(** Forward-mode automatic differentiation on dual numbers.

    Independent oracle for {!Deriv}: evaluating [Deriv.diff ~wrt e] at a point
    must agree with the dual-number derivative of [e] at that point. The test
    suite cross-checks the two on every functional, which is how we guard the
    symbolic-differentiation step the paper relies on for conditions EC2-EC4,
    EC6 and EC7. *)

type t = { v : float; d : float }

val const : float -> t

(** [active x] is the variable of differentiation: value [x], derivative 1. *)
val active : float -> t

(** [passive x] is any other variable: value [x], derivative 0. *)
val passive : float -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> t -> t
val exp : t -> t
val log : t -> t
val atan : t -> t
val abs : t -> t
val lambert_w : t -> t

(** [eval env ~wrt e] evaluates [e] with dual arithmetic, treating [wrt] as
    the active variable. Returns value and first derivative.
    @raise Eval.Unbound_variable on a missing binding. *)
val eval : (string * float) list -> wrt:string -> Expr.t -> t
