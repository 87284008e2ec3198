open Expr

let is_even_int_const x =
  match as_rat x with
  | Some r -> (
      match Rat.to_int r with Some n -> n <> 0 && n mod 2 = 0 | None -> false)
  | None -> false

let rec rewrite e =
  match e.node with
  | Apply (Log, a) -> (
      match a.node with
      | Apply (Exp, x) -> x
      | _ -> e)
  | Apply (Exp, a) -> (
      match a.node with
      | Apply (Log, x) -> x
      | Mul factors -> (
          (* exp(c * log x * rest) = x^(c * rest) *)
          match
            List.partition
              (fun f -> match f.node with Apply (Log, _) -> true | _ -> false)
              factors
          with
          | [ l ], rest -> (
              match l.node with
              | Apply (Log, x) -> pow x (mul_n rest)
              | _ -> e)
          | _ -> e)
      | _ -> e)
  | Apply (Abs, a) -> (
      match a.node with
      | Apply (Abs, _) -> a
      | Pow (_, x) when is_even_int_const x -> a
      | _ -> e)
  | Pow (b, x) -> (
      match b.node with
      | Apply (Exp, inner) -> exp (mul inner x)
      | Apply (Abs, inner) when is_even_int_const x -> pow inner x
      | _ -> e)
  | Piecewise (branches, default) -> (
      (* Merge a default that is itself piecewise into a flat branch list. *)
      match default.node with
      | Piecewise (branches', default') ->
          piecewise (branches @ branches') default'
      | _ -> rewrite_guards branches default)
  | Num _ | Flt _ | Var _ | Add _ | Mul _ | Apply _ -> e

and rewrite_fix e =
  (* Chained rewrites (e.g. |exp u|^2 -> (exp u)^2 -> exp(2u)) need a local
     fixpoint; each step strictly shrinks or preserves size, so this
     terminates quickly. *)
  let e' = rewrite e in
  if equal e' e then e else rewrite_fix e'

and rewrite_guards branches default =
  (* Drop branches whose body equals the default (common after branchwise
     differentiation sends several branches to the same derivative). *)
  let branches = List.filter (fun (_, body) -> not (equal body default)) branches in
  piecewise branches default

let simplify e =
  let go =
    memo_fix (fun self e ->
        let rebuilt =
          match e.node with
          | Num _ | Flt _ | Var _ -> e
          | Add terms -> add_n (List.map self terms)
          | Mul factors -> mul_n (List.map self factors)
          | Pow (b, x) -> pow (self b) (self x)
          | Apply (Exp, a) -> exp (self a)
          | Apply (Log, a) -> log (self a)
          | Apply (Atan, a) -> atan (self a)
          | Apply (Abs, a) -> abs (self a)
          | Apply (Lambert_w, a) -> lambert_w (self a)
          | Piecewise (branches, default) ->
              piecewise
                (List.map
                   (fun (g, body) ->
                     ({ g with cond = self g.cond }, self body))
                   branches)
                (self default)
        in
        rewrite_fix rebuilt)
  in
  (* Rewrites can synthesize new nested redexes (e.g. |exp u * v|^2 ->
     (exp u)^2 * v^2), so iterate whole passes to a global fixpoint; each
     pass over the memoized DAG is cheap. *)
  let rec fix e k =
    let e' = go e in
    if equal e' e || k = 0 then e' else fix e' (k - 1)
  in
  fix e 8

(* ------------------------------------------------------------------ *)
(* Nonnegativity-assisted simplification                               *)
(* ------------------------------------------------------------------ *)

let with_nonneg vars e =
  (* Syntactic nonnegativity under the assumption: assumed variables,
     nonnegative constants, exp/abs/sqrt images, even powers, any power of a
     nonneg base, and sums/products of nonnegatives. *)
  let nonneg =
    memo_fix (fun self e ->
        match e.node with
        | Num r -> Rat.sign r >= 0
        | Flt f -> f >= 0.0
        | Var v -> List.mem v vars
        | Add terms -> List.for_all self terms
        | Mul factors -> List.for_all self factors
        | Pow (b, x) -> (
            self b
            ||
            match as_rat x with
            | Some r -> (
                match Rat.to_int r with
                | Some n -> n <> 0 && n mod 2 = 0
                | None -> false)
            | None -> false)
        | Apply ((Exp | Abs), _) -> true
        | Apply ((Log | Atan | Lambert_w), _) -> false
        | Piecewise (branches, default) ->
            self default && List.for_all (fun (_, body) -> self body) branches)
  in
  let rewrite_nn e =
    match e.node with
    | Pow (b, x) -> (
        match b.node with
        | Pow (inner, a) when nonneg inner && is_const a && is_const x ->
            pow inner (mul a x)
        | Mul factors
          when is_const x
               && List.for_all
                    (fun f -> nonneg f || match f.node with Pow (fb, _) -> nonneg fb | _ -> false)
                    factors ->
            (* All bases nonneg: (prod f_i)^p = prod f_i^p on the orthant. *)
            mul_n (List.map (fun f -> pow f x) factors)
        | _ -> e)
    | Apply (Abs, a) when nonneg a -> a
    | _ -> e
  in
  let go =
    memo_fix (fun self e ->
        let rebuilt =
          match e.node with
          | Num _ | Flt _ | Var _ -> e
          | Add terms -> add_n (List.map self terms)
          | Mul factors -> mul_n (List.map self factors)
          | Pow (b, x) -> pow (self b) (self x)
          | Apply (Exp, a) -> exp (self a)
          | Apply (Log, a) -> log (self a)
          | Apply (Atan, a) -> atan (self a)
          | Apply (Abs, a) -> abs (self a)
          | Apply (Lambert_w, a) -> lambert_w (self a)
          | Piecewise (branches, default) ->
              piecewise
                (List.map
                   (fun (g, body) -> ({ g with cond = self g.cond }, self body))
                   branches)
                (self default)
        in
        rewrite_fix (rewrite_nn rebuilt))
  in
  let rec fix e k =
    let e' = go e in
    if equal e' e || k = 0 then e' else fix e' (k - 1)
  in
  (* Final plain-simplify pass: the nonneg rewrites create fresh nodes (e.g.
     (exp y)^(1/2)) whose own rewrite opportunities appear only afterwards. *)
  simplify (fix (simplify e) 8)
