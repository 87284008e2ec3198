(** Interval evaluation of symbolic expressions.

    [eval env e] returns an interval guaranteed to contain the value of [e]
    at every point of the box described by [env] where [e] is defined (the
    fundamental theorem of interval arithmetic, applied to the expression
    DAG with memoization so shared subterms are evaluated once).

    Piecewise expressions evaluate the guard interval first; when the guard
    is decided over the whole box only that branch contributes, otherwise the
    hull of all possibly-active branches is returned. *)

type env = (string * Interval.t) list

(** @raise Eval.Unbound_variable on a variable missing from [env]. *)
val eval : env -> Expr.t -> Interval.t

(** Guard decision on intervals: [`True] if the guard holds on the whole box,
    [`False] if it holds nowhere, [`Unknown] otherwise. *)
val guard_status : env -> Expr.guard -> [ `True | `False | `Unknown ]

(** [guard_status_of_interval rel gi] decides a guard given the interval of
    its condition expression (shared with the HC4 contractor, which keeps its
    own forward cache). *)
val guard_status_of_interval :
  Expr.rel -> Interval.t -> [ `True | `False | `Unknown ]

(** [guard_status_of_reg rel regs i] is [guard_status_of_interval] of
    register [i], without boxing it: for register-file interpreters. *)
val guard_status_of_reg :
  Expr.rel -> Interval.Regs.t -> int -> [ `True | `False | `Unknown ]

(** [apply_unop op i] is the interval image of primitive [op] (dispatch into
    {!Interval} / {!Transcend}). *)
val apply_unop : Expr.unop -> Interval.t -> Interval.t

(** [pow_node rat base expo] is the forward rule for [Pow] nodes, shared
    by the tree walker and the compiled interval tape: when the
    exponent is the exact rational [rat] it dispatches to
    {!Transcend.pow_rat} (bit-identical to [pow_int] for integers,
    exponent-rounding-aware otherwise); with [None] it falls back to the
    {!Interval.pow_expr} corner analysis on [expo]. *)
val pow_node : Rat.t option -> Interval.t -> Interval.t -> Interval.t
