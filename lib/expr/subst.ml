open Expr

let replace_map lookup e =
  let go =
    memo_fix (fun self e ->
        match lookup e with
        | Some e' -> e'
        | None -> (
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
                  (self default)))
  in
  go e

let subst bindings e =
  replace_map
    (fun e ->
      match e.node with
      | Var v -> List.assoc_opt v bindings
      | _ -> None)
    e

let subst1 name v e = subst [ (name, v) ] e

let replace ~from ~into e =
  replace_map (fun e -> if equal e from then Some into else None) e

let replace_map_constants f e =
  replace_map
    (fun e ->
      match e.node with
      | Num r -> Option.map const (f (Rat.to_float r))
      | Flt c -> Option.map const (f c)
      | _ -> None)
    e

let at_large name value e = subst1 name (const value) e
let rename old_name new_name e = subst1 old_name (var new_name) e
