(** Reference floating-point evaluation of expressions.

    This is the slow, obviously-correct evaluator used by tests and by model
    validation (Algorithm 1's [valid(x)] check). Hot loops — the
    Pederson-Burke grid baseline — use {!Compile} instead. *)

type env = (string * float) list

exception Unbound_variable of string

(** [eval env e] evaluates [e] with variables bound by [env].
    Out-of-domain primitive applications (e.g. [log] of a negative number)
    follow IEEE semantics and produce [nan]/[infinity].
    @raise Unbound_variable if [e] mentions a variable missing from [env]. *)
val eval : env -> Expr.t -> float

(** [eval1 name value e] evaluates an expression of the single variable
    [name]. *)
val eval1 : string -> float -> Expr.t -> float

(** [pow_float b x] is the power semantics used throughout the library:
    exact integer powers by repeated multiplication, [Float.pow] otherwise. *)
val pow_float : float -> float -> float

(** [guard_holds rel c] decides a guard given the value of its condition. *)
val guard_holds : Expr.rel -> float -> bool
