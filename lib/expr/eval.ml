open Expr

type env = (string * float) list

exception Unbound_variable of string

let pow_float b x =
  if Float.is_integer x && Float.abs x <= 64.0 then begin
    let n = int_of_float x in
    (* binary powering; a loop over float refs keeps every step unboxed *)
    let acc = ref 1.0 and b = ref b and k = ref (Stdlib.abs n) in
    while !k <> 0 do
      if !k land 1 = 1 then acc := !acc *. !b;
      b := !b *. !b;
      k := !k asr 1
    done;
    if n >= 0 then !acc else 1.0 /. !acc
  end
  else Float.pow b x

let apply_unop op v =
  match op with
  | Exp -> Stdlib.exp v
  | Log -> Stdlib.log v
  | Atan -> Stdlib.atan v
  | Abs -> Float.abs v
  | Lambert_w -> Lambert.w0 v

let guard_holds rel c = match rel with Le -> c <= 0.0 | Lt -> c < 0.0

let eval env e =
  (* Fresh memo table per call: values depend on the environment. *)
  let go =
    memo_fix (fun self e ->
        match e.node with
        | Num r -> Rat.to_float r
        | Flt f -> f
        | Var v -> (
            match List.assoc_opt v env with
            | Some x -> x
            | None -> raise (Unbound_variable v))
        | Add terms -> List.fold_left (fun acc t -> acc +. self t) 0.0 terms
        | Mul factors -> List.fold_left (fun acc f -> acc *. self f) 1.0 factors
        | Pow (b, x) -> pow_float (self b) (self x)
        | Apply (op, a) -> apply_unop op (self a)
        | Piecewise (branches, default) ->
            let rec pick = function
              | [] -> self default
              | (g, body) :: rest ->
                  if guard_holds g.grel (self g.cond) then self body
                  else pick rest
            in
            pick branches)
  in
  go e

let eval1 name value e = eval [ (name, value) ] e
