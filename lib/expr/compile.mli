(** Compilation of expressions to flat evaluation tapes.

    The Pederson-Burke baseline evaluates each functional at 10^4..10^10 grid
    points; walking the hash-consed DAG with an environment lookup per node is
    too slow for that. [compile] performs a topological linearization of the
    DAG into an array of register instructions (one slot per distinct
    subexpression, so common subexpressions are computed once) which then
    evaluates with no allocation.

    Piecewise nodes evaluate all branch bodies and select afterwards; this is
    sound for total float arithmetic (unused NaNs are discarded) and keeps
    the tape branch-free except for the final select. *)

type t

(** [compile ~vars e] compiles [e]; every free variable of [e] must appear in
    [vars]. The order of [vars] fixes the argument order of {!run}.
    @raise Invalid_argument if a free variable is missing from [vars]. *)
val compile : vars:string list -> Expr.t -> t

(** [run tape args] evaluates the compiled expression; [args] are the values
    of [vars] in order. [args] must have the same length as [vars].
    Agrees with {!Eval.eval} to the last ulp (same operations, same order).
    @raise Invalid_argument on arity mismatch. *)
val run : t -> float array -> float

(** Number of instructions in the tape (a machine-level operation count). *)
val length : t -> int

(** Variables of the tape, in argument order. *)
val arity : t -> int
