(** Hash-consed symbolic expressions over the reals.

    This module is the substrate that replaces Maple/SymPy in the XCVerifier
    pipeline: density functional approximations are built as values of type
    {!t}, then differentiated ({!Deriv}), simplified ({!Simplify}), evaluated
    ({!Eval}, {!Compile}) and finally handed to the interval solver.

    Every distinct expression is allocated exactly once (hash-consing), so
    - structural equality is pointer/ID equality ({!equal} is O(1)),
    - common subexpressions are shared, which keeps SCAN-sized derivative
      expressions tractable,
    - per-node memo tables (keyed by {!id}) make differentiation and
      simplification linear in the number of distinct subterms.

    Smart constructors perform light normalization on the fly: n-ary sums and
    products are flattened and constant-folded, like terms and like factors are
    collected, and trivial identities ([x^1 = x], [e + 0 = e], [e * 1 = e],
    [0 * e = 0]) are applied. Deeper rewriting lives in {!Simplify}. *)

(** Unary primitive functions. *)
type unop =
  | Exp
  | Log  (** natural logarithm *)
  | Atan
  | Abs
  | Lambert_w  (** principal branch [W0] of the Lambert W function *)

(** Comparison relation of a piecewise guard, always against zero. *)
type rel = Le | Lt

type t = private { id : int; node : node; hash : int }

and node =
  | Num of Rat.t  (** exact rational constant *)
  | Flt of float  (** inexact (decimal/irrational) constant *)
  | Var of string
  | Add of t list  (** n-ary sum; flattened, at least two operands *)
  | Mul of t list  (** n-ary product; flattened, at least two operands *)
  | Pow of t * t
  | Apply of unop * t
  | Piecewise of (guard * t) list * t
      (** [Piecewise (branches, default)] evaluates the body of the first
          branch whose guard holds, and [default] if none does. *)

(** [guard = { cond; rel = Le }] means [cond <= 0];
    [rel = Lt] means [cond < 0]. *)
and guard = { cond : t; grel : rel }

(** {1 Identity} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val id : t -> int

(** {1 Constructors} *)

val num : Rat.t -> t
val int : int -> t

(** [rat a b] is the exact rational constant [a/b]. *)
val rat : int -> int -> t

(** [const f] is the constant [f] — represented exactly when [f] is an
    integer-valued float, as an opaque float constant otherwise. *)
val const : float -> t

val var : string -> t
val zero : t
val one : t
val two : t
val pi : t

val add : t -> t -> t
val add_n : t list -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val mul_n : t list -> t
val div : t -> t -> t
val pow : t -> t -> t

(** [powi e n] is [e^n] for an integer exponent. *)
val powi : t -> int -> t

(** [powr e r] is [e^r] for an exact rational exponent. *)
val powr : t -> Rat.t -> t

(** [sqrt e] is canonicalized to [e^(1/2)] so that power collection sees
    through it; likewise [cbrt e] is [e^(1/3)]. *)
val sqrt : t -> t

val cbrt : t -> t
val exp : t -> t
val log : t -> t
val atan : t -> t
val abs : t -> t
val lambert_w : t -> t
val sqr : t -> t
val inv : t -> t

(** [piecewise branches default] builds a piecewise expression. Branches whose
    guard is a constant are resolved statically. *)
val piecewise : (guard * t) list -> t -> t

(** [guard_le e] is the guard [e <= 0]; [guard_lt e] is [e < 0]. *)
val guard_le : t -> guard

val guard_lt : t -> guard

(** [if_lt a b ~then_ ~else_] is the expression equal to [then_] when
    [a < b] and to [else_] otherwise. *)
val if_lt : t -> t -> then_:t -> else_:t -> t

(** {1 Inspection} *)

(** [as_const e] is [Some f] when [e] is a constant (exact or float). *)
val as_const : t -> float option

(** [as_rat e] is [Some r] when [e] is an exact rational constant. *)
val as_rat : t -> Rat.t option

val is_zero : t -> bool
val is_one : t -> bool

(** [is_const e] holds for [Num] and [Flt] leaves. *)
val is_const : t -> bool

(** [vars e] is the set of free variable names, sorted. *)
val vars : t -> string list

(** [mem_var name e] tests whether [name] occurs free in [e]. *)
val mem_var : string -> t -> bool

(** [size e] counts DAG nodes (shared nodes counted once). *)
val size : t -> int

(** [tree_size e] counts tree nodes (shared nodes counted each time), i.e. the
    operation count of a naive implementation — the metric the paper uses when
    it says PBE correlation has over 300 operations. *)
val tree_size : t -> int

(** [depth e] is the height of the expression DAG. *)
val depth : t -> int

(** Fold over the distinct DAG nodes of an expression, children first. *)
val fold_dag : (t -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Memoization helper} *)

(** [memo_fix f] returns a function memoized on expression IDs; [f] receives
    the memoized function for recursive calls. *)
val memo_fix : ((t -> 'a) -> t -> 'a) -> t -> 'a
