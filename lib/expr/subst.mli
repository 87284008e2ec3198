(** Substitution and related structural operations. *)

(** [subst bindings e] simultaneously replaces each variable by its bound
    expression. Unbound variables are left in place. The result is rebuilt
    with the smart constructors. *)
val subst : (string * Expr.t) list -> Expr.t -> Expr.t

(** [subst1 name v e] replaces the single variable [name] by [v]. *)
val subst1 : string -> Expr.t -> Expr.t -> Expr.t

(** [replace ~from ~into e] replaces every occurrence of the subexpression
    [from] (by hash-consed identity) with [into]. *)
val replace : from:Expr.t -> into:Expr.t -> Expr.t -> Expr.t

(** [at_large name value e] substitutes the float [value] for [name] — the
    paper's approximation of limits at infinity (e.g. F_c at r_s -> inf is
    taken as F_c at r_s = 100, following Pederson and Burke). *)
val at_large : string -> float -> Expr.t -> Expr.t

(** [rename old_name new_name e] renames a variable. *)
val rename : string -> string -> Expr.t -> Expr.t

(** [replace_map_constants f e] rewrites every numeric leaf whose float
    value [c] has [f c = Some c'] into the constant [c']. Used by
    the [Mutate] extension to inject wrong-constant bugs for CI-style
    testing. *)
val replace_map_constants : (float -> float option) -> Expr.t -> Expr.t
