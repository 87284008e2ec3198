(** Certified transcendental kernels: double-double polynomial evaluation
    with statically derived error bounds.

    Each kernel evaluates its function in double-double (dd) arithmetic —
    a (hi, lo) pair of doubles built from error-free transforms — and
    returns an {!Interval.t} whose radius is the sum of

    - the {e truncation} error of the polynomial approximation, bounded
      statically from the Taylor remainder on the reduced domain,
    - the {e rounding} error of the dd evaluation, bounded statically from
      the per-operation dd error bounds (each dd add/mul carries a relative
      error of a few units of [2^-104]),
    - the {e reduction} error of the argument reduction, bounded
      dynamically from the actual intermediates (e.g. [|k|] times the
      defect of the two-term [ln 2] constant),

    outward-rounded by one ulp per endpoint. The per-kernel bound is
    exposed as a constant so callers (and the differential oracle in
    [test/test_transcend.ml]) can reason about it. The kernels never
    consult libm for the value they certify, so their enclosures are sound
    under the same trust model as {!Interval} itself (IEEE-754 arithmetic
    with correctly rounded [+ - * /] and [Float.fma]).

    Kernels return sound enclosures on their stated domains and fall back
    to a conservative hull outside them; dispatch policy (when to run a
    kernel at all) lives in {!Transcend}. *)

(** {1 Per-kernel error bounds}

    Relative bounds apply to the dd value computed by the kernel; see the
    derivations in [certified.ml]. *)

(** Relative error of the dd [exp] kernel on [|x| <= 708]. *)
val exp_rel_err : float

(** Relative error of [log m] on the reduced mantissa, plus the absolute
    error of the [e * ln 2] term; [log_abs_err] absorbs the latter. *)
val log_rel_err : float

val log_abs_err : float

(** {1 Kernels} *)

(** [exp i]: certified enclosure of [e^x] over [i]. Sound on all inputs;
    the dd kernel engages for endpoint magnitudes [<= 708], outside it
    falls back to the conservative monotone hull [[0, +inf]] seeded with
    the representable extremes. *)
val exp : Interval.t -> Interval.t

(** [log i]: certified enclosure of [ln x] over [i ∩ [0, +inf)]. *)
val log : Interval.t -> Interval.t

(** [pow_rat i r]: certified enclosure of [x^r] for the {e exact} rational
    [r], over nonnegative bases (negative bases contribute no values,
    matching {!Interval.pow}). Unlike [Interval.pow i (Rat.to_float r)]
    this accounts for the rounding of [p/q] to a float — an error of up to
    [|ln x| * ulp(r)/2] relative, which for extreme bases exceeds the
    blanket one-ulp widening of the float path. Integer rationals are
    delegated to {!Interval.pow_int} (bit-identical to the existing
    integer path). *)
val pow_rat : Interval.t -> Rat.t -> Interval.t

(** [w_lo x] / [w_hi x]: certified lower / upper bounds of the principal
    branch W0 at [x], for {!Transcend}'s escape-repair dispatch. Each bound
    is certified by bracketing the interval-evaluated residual [w e^w - x]
    (using the certified {!exp}), stepping outward with a mixed
    absolute+relative stride; near the branch point the initial guess comes
    from the [p = sqrt(2(e x + 1))] series evaluated in interval
    arithmetic, so [x] values where the float kernel NaNs still get finite
    bounds. *)
val w_lo : float -> float

val w_hi : float -> float

(** {1 Dispatch counters}

    Registered under [transcend.*]; incremented by the kernels and by
    {!Transcend}'s dispatch. *)

val count_exp_kernel : unit -> unit
val count_exp_fallback : unit -> unit
val count_log_kernel : unit -> unit
val count_log_fallback : unit -> unit
val count_pow_rat_kernel : unit -> unit
val count_pow_rat_int : unit -> unit
val count_w_kernel : unit -> unit
val count_w_fallback : unit -> unit
