open Expr

type env = (string * Interval.t) list

let apply_unop op i =
  match op with
  | Exp -> Transcend.exp i
  | Log -> Transcend.log i
  | Atan -> Transcend.atan i
  | Abs -> Interval.abs i
  | Lambert_w -> Transcend.lambert_w i

(* Shared forward rule for Pow nodes: an exact rational exponent goes
   through {!Transcend.pow_rat} (integer rationals delegate to pow_int
   bit-identically; non-integer ones account for the exponent's own
   rounding, which the float corner analysis silently drops); float or
   variable exponents keep the pow_expr corner analysis. Used by the
   tree walker, the HC4 tree revise and the compiled tape, so the three
   paths cannot drift. *)
let pow_node rat base expo =
  match rat with
  | Some r -> Transcend.pow_rat base r
  | None -> Interval.pow_expr base expo

let[@inline] guard_status_of_bounds rel lo hi =
  if not (lo <= hi) then `False
  else
    match rel with
    | Le -> if hi <= 0.0 then `True else if lo > 0.0 then `False else `Unknown
    | Lt -> if hi < 0.0 then `True else if lo >= 0.0 then `False else `Unknown

let guard_status_of_interval rel gi =
  guard_status_of_bounds rel (Interval.inf gi) (Interval.sup gi)

let guard_status_of_reg rel (r : Interval.Regs.t) i =
  guard_status_of_bounds rel (Float.Array.get r.lo i) (Float.Array.get r.hi i)

let eval env e =
  let go =
    memo_fix (fun self e ->
        match e.node with
        | Num r -> Interval.point (Rat.to_float r)
        | Flt f -> Interval.point f
        | Var v -> (
            match List.assoc_opt v env with
            | Some i -> i
            | None -> raise (Eval.Unbound_variable v))
        | Add terms ->
            List.fold_left
              (fun acc t -> Interval.add acc (self t))
              Interval.zero terms
        | Mul factors ->
            List.fold_left
              (fun acc f -> Interval.mul acc (self f))
              Interval.one factors
        | Pow (b, x) -> pow_node (as_rat x) (self b) (self x)
        | Apply (op, a) -> apply_unop op (self a)
        | Piecewise (branches, default) ->
            (* Accumulate the hull of every branch that may be active; stop
               as soon as a guard certainly holds (later branches dead). *)
            let rec walk acc = function
              | [] -> Interval.join acc (self default)
              | (g, body) :: rest -> (
                  match guard_status_of_interval g.grel (self g.cond) with
                  | `True -> Interval.join acc (self body)
                  | `False -> walk acc rest
                  | `Unknown -> walk (Interval.join acc (self body)) rest)
            in
            walk Interval.empty branches)
  in
  go e

let guard_status env g = guard_status_of_interval g.grel (eval env g.cond)
