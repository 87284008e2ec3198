open Expr

let diff ~wrt e =
  let d =
    memo_fix (fun self e ->
        match e.node with
        | Num _ | Flt _ -> zero
        | Var v -> if String.equal v wrt then one else zero
        | Add terms -> add_n (List.map self terms)
        | Mul factors ->
            (* n-ary product rule: sum over factors of f_i' * prod_{j<>i} f_j *)
            let rec terms before = function
              | [] -> []
              | f :: after ->
                  let df = self f in
                  let term =
                    if is_zero df then zero
                    else mul_n (df :: List.rev_append before after)
                  in
                  term :: terms (f :: before) after
            in
            add_n (terms [] factors)
        | Pow (b, x) -> (
            let db = self b and dx = self x in
            match is_zero dx, is_zero db with
            | true, true -> zero
            | true, false ->
                (* d(b^c) = c * b^(c-1) * b' *)
                mul_n [ x; pow b (sub x one); db ]
            | false, true ->
                (* d(c^x) = c^x * ln c * x' *)
                mul_n [ e; log b; dx ]
            | false, false ->
                (* General case: b^x * (x' ln b + x b'/b). *)
                mul e (add (mul dx (log b)) (mul_n [ x; db; inv b ])))
        | Apply (op, a) ->
            let da = self a in
            if is_zero da then zero
            else
              let outer =
                match op with
                | Exp -> exp a
                | Log -> inv a
                | Atan -> inv (add one (sqr a))
                | Abs -> piecewise [ (guard_lt a, int (-1)) ] one
                | Lambert_w ->
                    (* W'(x) = 1 / ((1 + W) e^W); regular at x = 0. *)
                    inv (mul (add one (lambert_w a)) (exp (lambert_w a)))
              in
              mul outer da
        | Piecewise (branches, default) ->
            piecewise
              (List.map (fun (g, body) -> (g, self body)) branches)
              (self default))
  in
  d e

let diff_n ~wrt n e =
  let rec go n e = if n = 0 then e else go (n - 1) (Simplify.simplify (diff ~wrt e)) in
  go n e
