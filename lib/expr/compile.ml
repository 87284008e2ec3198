open Expr

type instr =
  | Load_const of float
  | Load_var of int  (* argument slot *)
  | Add2 of int * int
  | Mul2 of int * int
  | Pow2 of int * int
  | Powi of int * int  (* register, integer exponent *)
  | Unop of unop * int
  | Select of (int * rel * int) list * int
      (* (guard register, relation, body register) list, default register *)

type t = { instrs : instr array; nvars : int }

(* The scalar meaning of each primitive unary function. *)
let scalar_of_unop = function
  | Exp -> Stdlib.exp
  | Log -> Stdlib.log
  | Atan -> Stdlib.atan
  | Abs -> Float.abs
  | Lambert_w -> Lambert.w0

let compile ~vars e =
  let var_slot v =
    let rec find i = function
      | [] ->
          invalid_arg
            (Printf.sprintf "Compile.compile: unbound variable %S" v)
      | v' :: rest -> if String.equal v v' then i else find (i + 1) rest
    in
    find 0 vars
  in
  let code = ref [] in
  let n = ref 0 in
  let emit i =
    code := i :: !code;
    let r = !n in
    incr n;
    r
  in
  let reg_of =
    memo_fix (fun self e ->
        match e.node with
        | Num r -> emit (Load_const (Rat.to_float r))
        | Flt f -> emit (Load_const f)
        | Var v -> emit (Load_var (var_slot v))
        | Add terms ->
            let regs = List.map self terms in
            let rec chain = function
              | [] -> emit (Load_const 0.0)
              | [ r ] -> r
              | r1 :: r2 :: rest -> chain (emit (Add2 (r1, r2)) :: rest)
            in
            chain regs
        | Mul factors ->
            let regs = List.map self factors in
            let rec chain = function
              | [] -> emit (Load_const 1.0)
              | [ r ] -> r
              | r1 :: r2 :: rest -> chain (emit (Mul2 (r1, r2)) :: rest)
            in
            chain regs
        | Pow (b, x) -> (
            let rb = self b in
            match as_rat x with
            | Some r when Rat.is_int r && Stdlib.abs r.Rat.num <= 64 ->
                emit (Powi (rb, r.Rat.num))
            | _ -> emit (Pow2 (rb, self x)))
        | Apply (op, a) -> emit (Unop (op, self a))
        | Piecewise (branches, default) ->
            let compiled =
              List.map
                (fun (g, body) -> (self g.cond, g.grel, self body))
                branches
            in
            emit (Select (compiled, self default)))
  in
  let _root = reg_of e in
  { instrs = Array.of_list (List.rev !code); nvars = List.length vars }

let length tape = Array.length tape.instrs
let arity tape = tape.nvars

(* [run]'s registers: one file per domain, grown to the longest tape run
   there. Every instruction writes its register before any later one reads
   it, so stale values are never seen. A fresh file per call would go
   straight to the major heap for tapes of more than 256 instructions,
   once per solver midpoint probe, and that garbage sets the major GC's
   pace and the verifier's peak heap. *)
let run_regs : float array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let run tape args =
  if Array.length args <> tape.nvars then
    invalid_arg "Compile.run: arity mismatch";
  let m = Array.length tape.instrs in
  let file = Domain.DLS.get run_regs in
  if Array.length !file < m then file := Array.make m 0.0;
  let regs = !file in
  for i = 0 to m - 1 do
    regs.(i) <-
      (match tape.instrs.(i) with
      | Load_const c -> c
      | Load_var slot -> args.(slot)
      | Add2 (a, b) -> regs.(a) +. regs.(b)
      | Mul2 (a, b) -> regs.(a) *. regs.(b)
      | Pow2 (a, b) -> Eval.pow_float regs.(a) regs.(b)
      | Powi (a, k) -> Eval.pow_float regs.(a) (float_of_int k)
      | Unop (op, a) -> scalar_of_unop op regs.(a)
      | Select (branches, default) ->
          let rec pick = function
            | [] -> regs.(default)
            | (g, rel, body) :: rest ->
                if Eval.guard_holds rel regs.(g) then regs.(body)
                else pick rest
          in
          pick branches)
  done;
  if m = 0 then 0.0 else regs.(m - 1)
