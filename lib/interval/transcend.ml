let[@inline] down2 x = Interval.lo_down (Interval.lo_down x)
let[@inline] up2 x = Interval.hi_up (Interval.hi_up x)

(* Certified point kernels engage on narrow intervals only — midpoint
   (mean-value form) and endpoint evaluations are where sub-libm-width
   enclosures change contraction; on wide intervals the enclosure width is
   dominated by the function's variation and the cheaper libm path loses
   nothing. *)
let[@inline] ulp_of v =
  let a = Float.abs v in
  Interval.succ a -. a

let narrow i =
  Interval.is_bounded i
  && (Interval.is_point i
     || Interval.width i <= 32.0 *. ulp_of (Interval.mag i))

(* ------------------------------------------------------------------ *)
(* libm enclosures                                                     *)
(* ------------------------------------------------------------------ *)

(* fl(pi/2), the float just below pi/2. tan of the next float up wraps
   to about -6e15, so any bound beyond [half_pi] stands for the pole. *)
let half_pi = 2.0 *. Stdlib.atan 1.0
let half_pi_hi = up2 half_pi
let branch_point = -.Stdlib.exp (-1.0)

(* The NaN-robust bound policy for a failed certification, exposed for
   tests: the sound fallback differs per side — -1.0 (the infimum of W0's
   range) for the lower bound, +inf for the upper — because falling back
   to -1.0 on the upper side as well would invert the bounds and turn a
   nonempty image into the empty interval. In {!lambert_w} below the dd
   kernel repairs the escape before this policy applies, so there it only
   fires if the kernel itself gives up. *)
let certified_w_bounds ~lo ~hi =
  let lo = if Float.is_nan lo then -1.0 else lo in
  let hi = if Float.is_nan hi then Float.infinity else hi in
  Interval.of_bounds lo hi

module Legacy = struct
  (* The libm endpoint enclosures. Every exported exp/log/W result is the
     meet of one of these with a certified kernel, and the differential
     oracle (test_transcend) compares against them. They are sound but
     lossy on their own: Lambert upper bounds escape to +inf when the float
     kernel NaNs. *)

  let exp i =
    if Interval.is_empty i then Interval.empty
    else begin
      (* exp never goes below 0: clamp the widened lower bound. *)
      let lo = Interval.fmax 0.0 (down2 (Stdlib.exp (Interval.inf i))) in
      let hi = up2 (Stdlib.exp (Interval.sup i)) in
      Interval.of_bounds lo hi
    end

  let log i =
    let i = Interval.meet i Interval.nonneg in
    if Interval.is_empty i then Interval.empty
    else begin
      let lo =
        if Interval.inf i = 0.0 then Float.neg_infinity
        else down2 (Stdlib.log (Interval.inf i))
      in
      let hi =
        if Interval.sup i = 0.0 then Float.neg_infinity
        else up2 (Stdlib.log (Interval.sup i))
      in
      Interval.of_bounds lo hi
    end

  let certify_lo x =
    if x = Float.neg_infinity then Float.nan
    else if x = Float.infinity then Float.infinity
    else begin
      let w = Lambert.w0 x in
      if Float.is_nan w then Float.nan
      else begin
        let rec widen w steps =
          if steps > 64 then w -. (1e-9 *. (1.0 +. Float.abs w))
          else if Lambert.residual w x <= 0.0 then w
          else widen (Interval.lo_down (w -. (Float.abs w *. 1e-15))) (steps + 1)
        in
        Interval.fmax (-1.0) (widen (Interval.lo_down w) 0)
      end
    end

  let certify_hi x =
    if x = Float.infinity then Float.infinity
    else begin
      let w = Lambert.w0 x in
      if Float.is_nan w then Float.nan
      else begin
        let rec widen w steps =
          if steps > 64 then w +. (1e-9 *. (1.0 +. Float.abs w))
          else if Lambert.residual w x >= 0.0 then w
          else widen (Interval.hi_up (w +. (Float.abs w *. 1e-15))) (steps + 1)
        in
        widen (Interval.hi_up w) 0
      end
    end

  let lambert_w i =
    let dom = Interval.make branch_point Float.infinity in
    let i = Interval.meet i dom in
    if Interval.is_empty i then Interval.empty
    else
      certified_w_bounds
        ~lo:(certify_lo (Interval.inf i))
        ~hi:(certify_hi (Interval.sup i))
end

(* ------------------------------------------------------------------ *)
(* Monotone kernels: libm enclosure, met with the dd kernel when narrow *)
(* ------------------------------------------------------------------ *)

(* The meet of two sound enclosures is sound and (by construction) never
   wider than the libm one — the containment oracle relies on this. *)

let exp i =
  let base = Legacy.exp i in
  if Interval.is_empty base then base
  else if narrow i then Interval.meet base (Certified.exp i)
  else begin
    Certified.count_exp_fallback ();
    base
  end

let log i =
  let base = Legacy.log i in
  if Interval.is_empty base then base
  else if narrow i then Interval.meet base (Certified.log i)
  else begin
    Certified.count_log_fallback ();
    base
  end

let atan i =
  if Interval.is_empty i then Interval.empty
  else begin
    let lo = Interval.fmax (-.half_pi_hi) (down2 (Stdlib.atan (Interval.inf i))) in
    let hi = Interval.fmin half_pi_hi (up2 (Stdlib.atan (Interval.sup i))) in
    Interval.of_bounds lo hi
  end

(* ------------------------------------------------------------------ *)
(* Lambert W                                                           *)
(* ------------------------------------------------------------------ *)

(* Certify a numeric W evaluation by widening until the residual of the
   defining equation brackets zero on both sides. The stride is mixed
   absolute+relative (a few ulps of w, whichever is larger) and doubles on
   every miss — the old pure-relative step [|w| * 1e-15] was a no-op at
   w = 0, spinning 64 iterations before escaping with an absolute 1e-9
   slack. A NaN return means the certification failed (float kernel NaN
   near the branch point, or stride exhausted) and the caller repairs it
   with the certified kernel. *)

let w_stride w = Interval.fmax 1e-300 (Interval.fmax (4.0 *. ulp_of w) (Float.abs w *. 4e-17))

let certify_lo x =
  if x = Float.neg_infinity then Float.nan
  else if x = Float.infinity then Float.infinity
  else begin
    let w = Lambert.w0 x in
    if Float.is_nan w then Float.nan
    else begin
      let rec widen w step steps =
        if steps > 64 then Float.nan
        else if Lambert.residual w x <= 0.0 then w
        else widen (Interval.lo_down (w -. step)) (2.0 *. step) (steps + 1)
      in
      let w0 = Interval.lo_down w in
      let r = widen w0 (w_stride w0) 0 in
      if Float.is_nan r then r else Interval.fmax (-1.0) r
    end
  end

let certify_hi x =
  if x = Float.infinity then Float.infinity
  else begin
    let w = Lambert.w0 x in
    if Float.is_nan w then Float.nan
    else begin
      let rec widen w step steps =
        if steps > 64 then Float.nan
        else if Lambert.residual w x >= 0.0 then w
        else widen (Interval.hi_up (w +. step)) (2.0 *. step) (steps + 1)
      in
      let w0 = Interval.hi_up w in
      widen w0 (w_stride w0) 0
    end
  end

let lambert_w i =
  let dom = Interval.make branch_point Float.infinity in
  let i = Interval.meet i dom in
  if Interval.is_empty i then Interval.empty
  else begin
    let lo_f = certify_lo (Interval.inf i) in
    let lo =
      if Float.is_nan lo_f then Certified.w_lo (Interval.inf i) else lo_f
    in
    let hi_f = certify_hi (Interval.sup i) in
    let hi =
      if Float.is_nan hi_f then Certified.w_hi (Interval.sup i) else hi_f
    in
    (* Both sides are sound; the meet guarantees the result is never
       wider than the libm enclosure (whose stubborn-certification
       escapes the new stride sequence does not replicate exactly). *)
    Interval.meet (Legacy.lambert_w i) (certified_w_bounds ~lo ~hi)
  end

(* ------------------------------------------------------------------ *)
(* pow with rational exponents                                         *)
(* ------------------------------------------------------------------ *)

(* [Interval.pow i (Rat.to_float r)] silently drops the rounding of the
   exponent itself: x^fl(r) differs from x^r by up to
   |ln x| * ulp(r)/2 relative, which for extreme bases dwarfs the float
   path's one-ulp widening. The wide-interval path repairs this with an
   explicit relative widening; narrow intervals go through the dd kernel
   (exact rational exponent, no correction needed). *)
let widen_exponent_rounding i base p =
  if Interval.is_empty base then base
  else begin
    let ln_extreme x = if x > 0.0 && x < Float.infinity then Float.abs (Stdlib.log x) else 0.0 in
    let lnb = Interval.fmax (ln_extreme (Interval.mig i)) (ln_extreme (Interval.mag i)) in
    let d = (lnb +. 1.0) *. ulp_of p in
    (* base is within [0, +inf] (nonneg-base semantics). *)
    let lo = Interval.inf base and hi = Interval.sup base in
    let lo =
      if Float.is_finite lo then Interval.fmax 0.0 (Interval.lo_down (lo -. (lo *. d)))
      else lo
    in
    let hi = if hi = Float.infinity then hi else Interval.hi_up (hi +. (hi *. d)) in
    Interval.of_bounds lo hi
  end

let pow_rat i r =
  match Rat.to_int r with
  | Some n -> Interval.pow_int i n
  | None ->
      let p = Rat.to_float r in
      let base = widen_exponent_rounding i (Interval.pow i p) p in
      if narrow i then Interval.meet base (Certified.pow_rat i r) else base

(* Tight enclosure of an exact rational value: both components are < 2^53
   so float_of_int is exact and the one division is the only rounding.
   Used by derivative rules that must carry the exponent's rounding
   (d/dx x^r = r x^(r-1) with r exact, not fl(r)). *)
let enclose_rat r =
  Interval.div
    (Interval.point (float_of_int (Rat.num r)))
    (Interval.point (float_of_int (Rat.den r)))

(* ------------------------------------------------------------------ *)
(* Inverses                                                            *)
(* ------------------------------------------------------------------ *)

let tan_on_principal i =
  let dom = Interval.make (-.half_pi_hi) half_pi_hi in
  let i = Interval.meet i dom in
  if Interval.is_empty i then Interval.empty
  else begin
    let f x = Stdlib.tan x in
    let lo =
      if Interval.inf i < -.half_pi then Float.neg_infinity
      else down2 (f (Interval.inf i))
    in
    let hi =
      if Interval.sup i > half_pi then Float.infinity
      else up2 (f (Interval.sup i))
    in
    Interval.of_bounds lo hi
  end

(* w e^w, monotone increasing for w >= -1 (the range of W0), as an
   interval composition (every operation outward-rounded), so the
   enclosure covers the composite's actual rounding budget: the float
   formula's two roundings plus libm's exp error exceeded the old two-ulp
   widening. Monotone, so endpoints suffice. *)
let w_inverse i =
  let i = Interval.meet i (Interval.make (-1.0) Float.infinity) in
  if Interval.is_empty i then Interval.empty
  else begin
    let at w =
      if w = Float.infinity then Interval.point Float.infinity
      else Interval.mul (Interval.point w) (exp (Interval.point w))
    in
    Interval.of_bounds
      (Interval.inf (at (Interval.inf i)))
      (Interval.sup (at (Interval.sup i)))
  end
