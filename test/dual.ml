type t = { v : float; d : float }

let const v = { v; d = 0.0 }
let active v = { v; d = 1.0 }
let passive v = { v; d = 0.0 }

let add a b = { v = a.v +. b.v; d = a.d +. b.d }
let sub a b = { v = a.v -. b.v; d = a.d -. b.d }
let mul a b = { v = a.v *. b.v; d = (a.d *. b.v) +. (a.v *. b.d) }

let div a b =
  { v = a.v /. b.v; d = ((a.d *. b.v) -. (a.v *. b.d)) /. (b.v *. b.v) }

let exp a =
  let e = Stdlib.exp a.v in
  { v = e; d = e *. a.d }

let log a = { v = Stdlib.log a.v; d = a.d /. a.v }

let pow a b =
  let v = Eval.pow_float a.v b.v in
  if b.d = 0.0 then
    (* Constant exponent: d(a^c) = c a^(c-1) a', valid for a <= 0 too when
       the power itself is defined (e.g. integer exponents). *)
    { v; d = b.v *. Eval.pow_float a.v (b.v -. 1.0) *. a.d }
  else
    { v; d = v *. ((b.d *. Stdlib.log a.v) +. (b.v *. a.d /. a.v)) }

let atan a = { v = Stdlib.atan a.v; d = a.d /. (1.0 +. (a.v *. a.v)) }

let abs a =
  if a.v < 0.0 then { v = -.a.v; d = -.a.d } else { v = a.v; d = a.d }

let lambert_w a =
  let w = Lambert.w0 a.v in
  { v = w; d = a.d /. ((1.0 +. w) *. Stdlib.exp w) }

let eval env ~wrt e =
  let go =
    Expr.memo_fix (fun self e ->
        match e.Expr.node with
        | Expr.Num r -> const (Rat.to_float r)
        | Expr.Flt f -> const f
        | Expr.Var v -> (
            match List.assoc_opt v env with
            | Some x -> if String.equal v wrt then active x else passive x
            | None -> raise (Eval.Unbound_variable v))
        | Expr.Add terms ->
            List.fold_left (fun acc t -> add acc (self t)) (const 0.0) terms
        | Expr.Mul factors ->
            List.fold_left (fun acc f -> mul acc (self f)) (const 1.0) factors
        | Expr.Pow (b, x) -> pow (self b) (self x)
        | Expr.Apply (op, a) -> (
            let da = self a in
            match op with
            | Expr.Exp -> exp da
            | Expr.Log -> log da
            | Expr.Atan -> atan da
            | Expr.Abs -> abs da
            | Expr.Lambert_w -> lambert_w da)
        | Expr.Piecewise (branches, default) ->
            let rec pick = function
              | [] -> self default
              | (g, body) :: rest ->
                  if Eval.guard_holds g.Expr.grel (self g.Expr.cond).v then
                    self body
                  else pick rest
            in
            pick branches)
  in
  go e
