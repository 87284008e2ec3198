(** Outward-rounded interval arithmetic over the extended reals.

    This is the arithmetic core of the δ-complete solver that stands in for
    dReal: every operation returns an interval guaranteed to contain the exact
    real image of its argument intervals. Soundness is obtained by computing
    each bound in round-to-nearest and then widening outward by one ulp per
    operation (two for the transcendental functions, whose libm
    implementations may be off by one ulp); this over-approximates true
    directed rounding but never under-approximates.

    The one-ulp steps assume the FPU is in its default round-to-nearest
    mode. They are computed with plain float arithmetic, after Rump,
    Zimmermann, Boldo and Melquiond, "Computing predecessor and successor
    in rounding to nearest" (BIT 49, 2009), and are bit-identical to
    [nextafter] ({!succ}, {!pred}) without its C call.

    Domain semantics follow SMT-over-reals: an operation applied outside its
    real domain contributes no values. [log [-2, -1]] is {!empty};
    [log [-1, 4]] is [[-inf, log 4]]. The empty interval propagates through
    every operation and is how the HC4 contractor signals an infeasible
    constraint.

    The interval with [lo = -inf, hi = +inf] is {!top}. Bounds are never NaN
    on non-empty intervals. *)

type t = private { lo : float; hi : float }

(** {1 Construction} *)

(** [make lo hi] with [lo <= hi]; infinite bounds allowed.
    @raise Invalid_argument if [lo > hi] or a bound is NaN. *)
val make : float -> float -> t

(** [point x] is the degenerate interval [[x, x]]. *)
val point : float -> t

val empty : t
val top : t
val zero : t
val one : t

(** [nonneg] is [[0, +inf)]. *)
val nonneg : t

(** {1 Predicates and accessors} *)

val is_empty : t -> bool
val is_point : t -> bool
val is_bounded : t -> bool
val inf : t -> float
val sup : t -> float
val mem : float -> t -> bool

(** [subset a b] holds when every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [width i] is [sup - inf]; [infinity] for unbounded, [0] for empty. *)
val width : t -> float

(** [midpoint i] is a finite point inside [i] (clamped for unbounded
    intervals).
    @raise Invalid_argument on the empty interval. *)
val midpoint : t -> float

(** [mag i] is the maximum absolute value; [mig i] the minimum. *)
val mag : t -> float

val mig : t -> float

val equal : t -> t -> bool

(** {1 Lattice} *)

val meet : t -> t -> t

(** [join] is the interval hull of the union. *)
val join : t -> t -> t

(** [split i] bisects at the midpoint. Both children are strictly narrower
    than [i] (the midpoint is nudged one ulp inward when rounding lands it on
    an endpoint), so splitting worklists always make progress.
    @raise Invalid_argument on empty or degenerate intervals, and on
    ulp-wide intervals with no float strictly between the bounds. *)
val split : t -> t * t

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t

(** [mul a b] is the outward-rounded product: [{0}] times anything is
    exactly [{0}], and otherwise each bound is the corner product the
    operands' signs name (two candidates, compared, only when both
    straddle 0), rounded one ulp outward. Corner products take
    0 * inf = 0. The result is bit for bit the outward hull of all four
    corner products: the endpoint product is monotone in each argument, so
    the selected corner equals the hull's up to the sign of a zero, which
    the outward step maps to the same bound. *)
val mul : t -> t -> t

(** [div a b] is the interval hull of [{ x/y | x in a, y in b, y <> 0 }].
    Note that this is {e value} division: [div a {0}] is {!empty} because no
    quotient by a non-zero divisor exists. Backward constraint propagation
    must use {!div_rel} instead. *)
val div : t -> t -> t

(** [div_rel a b] over-approximates the relational projection
    [{ x | exists y in b, x*y in a }] — what the HC4 backward pass for a
    product needs. When [0] is in both [a] and [b] the result is {!top}
    ([x * 0 = 0] holds for every [x]); otherwise it agrees with {!div}, so
    [0] not in [a] with [b = {0}] is still (correctly) infeasible. *)
val div_rel : t -> t -> t

val abs : t -> t

(** [inv a] is [div one a]. *)
val inv : t -> t

(** [pow_int a n] handles even/odd/negative integer exponents exactly. *)
val pow_int : t -> int -> t

(** [pow a p] for arbitrary real exponent: non-integer exponents restrict the
    base to [[0, inf)] (real-valued power semantics). *)
val pow : t -> float -> t

(** [pow_expr a b] bounds [a^b] where the exponent is itself an interval. *)
val pow_expr : t -> t -> t

(** {1 Sign tests (for constraint checking)} *)

(** [certainly_le i c]: every element of [i] is [<= c]. Empty: vacuously
    true. *)
val certainly_le : t -> float -> bool

val certainly_lt : t -> float -> bool
val certainly_ge : t -> float -> bool
val certainly_gt : t -> float -> bool

(** [possibly_le i c]: some element of [i] is [<= c]. *)
val possibly_le : t -> float -> bool

(** {1 Rounding helpers (shared with {!Transcend})} *)

(** [succ x] and [pred x] are [Float.succ x] and [Float.pred x] bit for
    bit (NaN included), in round-to-nearest. *)
val succ : float -> float

val pred : float -> float

(** [lo_down x] steps [x] one ulp toward [-inf]; [hi_up x] one ulp toward
    [+inf]. Infinities and NaN are fixed points. *)
val lo_down : float -> float

val hi_up : float -> float

(** [fmin] and [fmax] are [Float.min] and [Float.max] bit for bit
    ([-0 < +0], NaN wins), decided by comparisons on ordered operands. *)
val fmin : float -> float -> float

val fmax : float -> float -> float

(** [of_bounds lo hi] builds an interval from already-directed bounds,
    normalizing empty ([lo > hi]) to {!empty}. Used by {!Transcend}. *)
val of_bounds : float -> float -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Register files}

    Structure-of-arrays interval registers for tape interpreters: register
    [i] of [r] is [[r.lo.(i), r.hi.(i)]], empty as [(+inf, -inf)]. The
    kernels write their result straight into a destination register,
    without allocating, and compute it with the same rules as the boxed
    operation of the same name, bit for bit. Operands are (file, index)
    pairs; the destination may be one of them. *)
module Regs : sig
  type interval := t
  type t = private { lo : Float.Array.t; hi : Float.Array.t }

  (** [create n] is [n] empty registers. *)
  val create : int -> t

  val length : t -> int
  val get : t -> int -> interval
  val set : t -> int -> interval -> unit

  (** [store_bounds r i lo hi] is [set r i (of_bounds lo hi)]. *)
  val store_bounds : t -> int -> float -> float -> unit

  (** [copy dst d a i] copies register [a.(i)] to [dst.(d)]. *)
  val copy : t -> int -> t -> int -> unit

  (** [blit src dst n] copies the first [n] registers. *)
  val blit : t -> t -> int -> unit

  (** [fill r n iv] sets the first [n] registers to [iv]. *)
  val fill : t -> int -> interval -> unit

  val is_empty : t -> int -> bool

  (** [is_zero r i]: the register is exactly [[0, 0]]. *)
  val is_zero : t -> int -> bool

  val equal : t -> int -> t -> int -> bool

  (** [same r i iv]: the register holds [iv]'s bounds bit for bit, so
      unlike {!equal} it tells [-0] from [+0]. *)
  val same : t -> int -> interval -> bool

  (** [same_finite a i b j]: both registers hold the same finite bounds,
      bit for bit (so [-0] and [+0] differ). False for empty registers. *)
  val same_finite : t -> int -> t -> int -> bool

  (** [lo_above r i x]: the lower bound of [r.(i)] is above [x] (false
      for an empty register). *)
  val lo_above : t -> int -> float -> bool

  (** [straddles_zero r i]: [lo < 0 < hi], strictly. *)
  val straddles_zero : t -> int -> bool

  (** [is_bounded r i]: both bounds are finite (false for an empty
      register). *)
  val is_bounded : t -> int -> bool

  (** [lo_point dst d a i] sets [dst.(d)] to the point at [a.(i)]'s lower
      bound, [hi_point] to the one at its upper bound. *)
  val lo_point : t -> int -> t -> int -> unit

  val hi_point : t -> int -> t -> int -> unit

  (** [add dst d a i b j] sets [dst.(d)] to [add a.(i) b.(j)]; likewise
      the others. *)
  val add : t -> int -> t -> int -> t -> int -> unit

  val sub : t -> int -> t -> int -> t -> int -> unit

  (** [mul dst d a i b j] is {!mul} on registers: the two sign-selected
      corner products, bit for bit the four-corner hull. Malformed operands
      ([lo > hi] or NaN) give the empty register. *)
  val mul : t -> int -> t -> int -> t -> int -> unit

  (** [mul_one dst d a i] is [mul dst d a i r k] for a register [r.(k)]
      holding [[1, 1]], bit for bit (and [mul] is symmetric, so it is also
      [[1, 1]] times [a.(i)]): each bound rounded one ulp outward, [{0}]
      kept exactly, malformed operands empty. The first and the last
      product of a tape's product chain are by [[1, 1]]. *)
  val mul_one : t -> int -> t -> int -> unit

  val div : t -> int -> t -> int -> t -> int -> unit
  val div_rel : t -> int -> t -> int -> t -> int -> unit
  val meet : t -> int -> t -> int -> t -> int -> unit
  val join : t -> int -> t -> int -> t -> int -> unit

  (** [pow_int dst d a i n] sets [dst.(d)] to [pow_int a.(i) n]. *)
  val pow_int : t -> int -> t -> int -> int -> unit
end
