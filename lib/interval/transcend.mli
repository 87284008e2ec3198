(** Interval enclosures for the transcendental functions appearing in density
    functional approximations: exp and log in SCAN and PBE, atan in VWN and
    Lambert W in AM05.

    There is one enclosure path per function. exp, log and Lambert W
    evaluate libm at the endpoints, widen by two ulps (libm is faithfully
    rounded to within 1 ulp on every platform we target; the second ulp is
    margin) and meet the result with a kernel of {!Certified}, which
    carries a derived error bound instead of the blanket margin. The
    monotone kernels (exp, log, rational pow) engage on narrow inputs only;
    on wide inputs the libm enclosure alone is the designed path, counted
    by the [transcend.*.fallback] meters. Every function follows the
    natural-domain semantics of {!Interval}: inputs outside the real
    domain contribute no values. *)

(** The libm endpoint enclosures: the libm half of every exported
    exp/log/Lambert W enclosure, each of which is this result met with a
    certified kernel. Sound but lossy on their own (a NaN from the float W
    kernel escapes to [+inf]), and the reference side of the never-wider
    differential oracle. *)
module Legacy : sig
  val exp : Interval.t -> Interval.t
  val log : Interval.t -> Interval.t
  val lambert_w : Interval.t -> Interval.t
end

(** {1 Enclosures} *)

val exp : Interval.t -> Interval.t
val log : Interval.t -> Interval.t
val atan : Interval.t -> Interval.t

(** Principal branch [W0]; domain [[-1/e, inf)]. The numeric kernel
    {!Lambert.w0} is certified post-hoc: the returned bounds are widened
    (mixed absolute+relative stride, doubling) until the defining residual
    [w e^w - x] brackets zero; a failed certification is repaired by the
    certified kernel ({!Certified.w_lo} / {!Certified.w_hi}) instead of
    escaping to [-1] / [+inf]. *)
val lambert_w : Interval.t -> Interval.t

(** The NaN-robust bound policy of {!lambert_w}, exposed for tests: a NaN
    certification falls back to the sound extreme for its side ([-1.0] for
    the lower bound, [+inf] for the upper), never producing an inverted
    (empty) interval from a failed kernel evaluation. *)
val certified_w_bounds : lo:float -> hi:float -> Interval.t

(** [pow_rat i r]: enclosure of [x^r] for the exact rational [r]. Integer
    rationals delegate to {!Interval.pow_int} (bit-identical to the
    integer-exponent path); non-integer rationals account for the rounding
    of [r] to a float — which [Interval.pow i (Rat.to_float r)] silently
    drops — and go through the certified exp/log kernel when [i] is
    narrow. Nonnegative-base semantics, as {!Interval.pow}. *)
val pow_rat : Interval.t -> Rat.t -> Interval.t

(** [enclose_rat r]: tight interval enclosure of the exact rational [r]
    (one outward-rounded division of the exact components). For
    derivative rules that must account for the rounding of a rational
    constant. *)
val enclose_rat : Rat.t -> Interval.t

(** {1 Inverses for backward (HC4) propagation} *)

(** [tan_on_principal i]: inverse of {!atan}; [i] is clipped to
    [(-pi/2, pi/2)], and an end beyond the float nearest pi/2 maps to the
    pole ([+-inf]). *)
val tan_on_principal : Interval.t -> Interval.t

(** [w_inverse i] is [{ w e^w | w in i }], the inverse image map for
    Lambert W backward propagation (monotone on [w >= -1], which covers the
    range of [W0]). Evaluated as an interval composition (per-operation
    outward rounding), so the enclosure covers the composite's true
    rounding budget, which a two-ulp widening of the float formula
    under-covers. *)
val w_inverse : Interval.t -> Interval.t
