(* Certified transcendental kernels.

   Strategy (Dandelion-style): evaluate a polynomial approximation of the
   function in double-double (dd) arithmetic, then return an interval whose
   radius is a *derived* bound on everything that can have gone wrong:

     radius = truncation (static, from the Taylor remainder on the reduced
              domain)
            + dd rounding (static, from per-operation dd error bounds)
            + reduction defect (dynamic, |k| times the representation error
              of the two-term constant)

   with one extra outward ulp per endpoint for the final double roundings.
   Every bound below is derived in a comment next to the constant that
   carries it and re-checked by the differential oracle in
   test/test_transcend.ml. The kernels rely only on IEEE-754 double
   arithmetic with correctly rounded + - * / and fma (the same trust base as
   Interval's directed rounding via pred/succ); no certified bound rests on
   libm (the W kernel takes only its starting guess from the float kernel
   Lambert.w0, and brackets it). *)

(* ------------------------------------------------------------------ *)
(* Error-free transforms and double-double arithmetic                  *)
(* ------------------------------------------------------------------ *)

(* A dd value hi + lo lives in a mutable cell: every operation below takes
   its operands as floats and writes its result into a destination cell
   (which may hold an operand — operands are read first). Inlined, the
   whole evaluation stays in unboxed floats, where pairs returned by value
   would allocate a tuple and two boxed floats per operation. *)
type dd = { mutable hi : float; mutable lo : float }

let dd () = { hi = 0.0; lo = 0.0 }

let[@inline] set d h l =
  d.hi <- h;
  d.lo <- l

(* Knuth two_sum: s + e = a + b exactly. *)
let[@inline] two_sum d a b =
  let s = a +. b in
  let b' = s -. a in
  set d s ((a -. (s -. b')) +. (b -. b'))

(* Fast path valid when |a| >= |b|. *)
let[@inline] quick_two_sum d a b =
  let s = a +. b in
  set d s (b -. (s -. a))

(* p + e = a * b exactly (glibc fma is correctly rounded). *)
let[@inline] two_prod d a b =
  let p = a *. b in
  set d p (Float.fma a b (-.p))

(* dd addition (the accurate variant): relative error <= 3 * 2^-106
   (Joldes-Muller-Popescu). The two two_sums and the first quick_two_sum
   are spelled out so their pairs stay in registers. *)
let[@inline] dd_add d xh xl yh yl =
  let sh = xh +. yh in
  let b1 = sh -. xh in
  let se = (xh -. (sh -. b1)) +. (yh -. b1) in
  let th = xl +. yl in
  let b2 = th -. xl in
  let te = (xl -. (th -. b2)) +. (yl -. b2) in
  let c = se +. th in
  let vh = sh +. c in
  let vl = c -. (vh -. sh) in
  quick_two_sum d vh (te +. vl)

let[@inline] dd_sub d xh xl yh yl = dd_add d xh xl (-.yh) (-.yl)

(* dd multiplication: relative error <= 7 * 2^-106. *)
let[@inline] dd_mul d xh xl yh yl =
  let ph = xh *. yh in
  let pe = Float.fma xh yh (-.ph) in
  quick_two_sum d ph (pe +. ((xh *. yl) +. (xl *. yh)))

(* dd division (one Newton correction): relative error <= 15 * 2^-106. *)
let dd_div d xh xl yh yl =
  let th = xh /. yh in
  dd_mul d th 0.0 yh yl;
  dd_sub d xh xl d.hi d.lo;
  quick_two_sum d th ((d.hi +. d.lo) /. yh)

(* A dd constant table, as (hi, lo) pairs. *)
let dd_inverses denominators =
  Array.map
    (fun den ->
      let d = dd () in
      dd_div d 1.0 0.0 den 0.0;
      (d.hi, d.lo))
    denominators

(* ------------------------------------------------------------------ *)
(* Outward rounding of a dd value with an explicit error radius        *)
(* ------------------------------------------------------------------ *)

(* Truth lies in [vh + vl - err, vh + vl + err]. Assembling an endpoint
   takes two roundings: d = RN(vl -/+ e) and c = RN(vh + d). The second
   satisfies pred (RN x) <= x <= succ (RN x) unconditionally, so a single
   outward step covers it exactly; the first perturbs by at most
   2^-53 |d| <= 2^-53 (|vl| + e) <= 2^-105 |vh| + 2^-53 e, which the 25%
   inflation of [err] absorbs whenever err >= 2^-103 |vh| — both call
   sites (exp, log) carry a relative error floor >= 5e-20, far above
   that, plus an absolute floor where the value can vanish. One step
   instead of two is what makes the kernel strictly tighter than the
   legacy blanket two-ulp margin at every point input. *)
let enclose_dd vh vl err =
  let e = 1.25 *. err in
  let lo = Interval.lo_down (vh +. (vl -. e)) in
  let hi = Interval.hi_up (vh +. (vl +. e)) in
  Interval.of_bounds lo hi

(* ------------------------------------------------------------------ *)
(* Dispatch counters                                                   *)
(* ------------------------------------------------------------------ *)

let m_exp_kernel = Obs.Metrics.counter "transcend.exp.kernel"
let m_exp_fallback = Obs.Metrics.counter "transcend.exp.fallback"
let m_log_kernel = Obs.Metrics.counter "transcend.log.kernel"
let m_log_fallback = Obs.Metrics.counter "transcend.log.fallback"
let m_pow_rat_kernel = Obs.Metrics.counter "transcend.pow_rat.kernel"
let m_pow_rat_int = Obs.Metrics.counter "transcend.pow_rat.int"
let m_w_kernel = Obs.Metrics.counter "transcend.w.kernel"
let m_w_fallback = Obs.Metrics.counter "transcend.w.fallback"
let count_exp_kernel () = Obs.Metrics.incr m_exp_kernel 1
let count_exp_fallback () = Obs.Metrics.incr m_exp_fallback 1
let count_log_kernel () = Obs.Metrics.incr m_log_kernel 1
let count_log_fallback () = Obs.Metrics.incr m_log_fallback 1
let count_pow_rat_kernel () = Obs.Metrics.incr m_pow_rat_kernel 1
let count_pow_rat_int () = Obs.Metrics.incr m_pow_rat_int 1
let count_w_kernel () = Obs.Metrics.incr m_w_kernel 1
let count_w_fallback () = Obs.Metrics.incr m_w_fallback 1

(* ------------------------------------------------------------------ *)
(* Constants                                                           *)
(* ------------------------------------------------------------------ *)

(* ln 2 as a dd: hi is the round-to-nearest double, lo the round-to-nearest
   of the remainder; |ln 2 - (hi + lo)| <= 1/2 ulp(lo) < 2^-106 < 2e-32. *)
let ln2_hi = 0x1.62e42fefa39efp-1
let ln2_lo = 0x1.abc9e3b39803fp-56
let inv_ln2 = 0x1.71547652b82fep+0

(* ------------------------------------------------------------------ *)
(* exp                                                                 *)
(* ------------------------------------------------------------------ *)

(* Reduced domain: x = k ln2 + r with |r| <= ln2/2 + slack < 0.35, so
   exp x = 2^k exp r with exp r in [0.70, 1.42].

   Degree-13 Taylor truncation: |exp r - T13(r)| <= |r|^14/14! * e^|r|
   <= 0.35^14 / 8.7e10 * 1.42 < 6e-18, i.e. < 8.6e-18 relative.

   Reduction error (r_dd vs exact x - k ln2): |k| <= 1024, so the ln2
   defect contributes <= 1024 * 2e-32 ~ 2.1e-29; the dd compression of the
   exact three-term sum adds <= 6 * 3 * 2^-106 * 0.35 < 1e-31. Through
   exp's Lipschitz constant (<= 1.42 on the branch) that is < 3.1e-29
   absolute on exp r, i.e. < 4.5e-29 relative.

   dd Horner rounding: 13 iterations of (mul + add), each <= 10 * 2^-106
   relative on magnitudes <= 1.42: < 3e-30 relative. Coefficient dd's are
   computed by dd_div from exact integers (13! < 2^53), each within
   15 * 2^-106 relative — absorbed by the same budget.

   Total relative error of the dd result: < 1e-17; exp_rel_err = 2e-17
   doubles it for margin. *)
let exp_rel_err = 2e-17

(* Beyond these the 2^k scaling of the dd tail would denormalize (low) or
   the value leaves double range (high); the kernel clamps to the edge.
   At 709 the scaled value peaks at 1.415 * 2^1023 ~ 1.27e308 < max_float,
   and at -670 the dd tail stays normal (2.6e-291 * 2^-53 > DBL_MIN). *)
let exp_dom_lo = -670.0
let exp_dom_hi = 709.0

let exp_coeffs =
  (* 1/i!, i = 13 .. 0, as dd (Horner order). *)
  let fact = Array.make 14 1.0 in
  for i = 1 to 13 do
    fact.(i) <- fact.(i - 1) *. float_of_int i (* exact: 13! < 2^53 *)
  done;
  dd_inverses (Array.init 14 (fun j -> fact.(13 - j)))

(* Certified enclosure of exp(t) for a dd argument with its own absolute
   error bound [terr]; requires exp_dom_lo <= t <= exp_dom_hi. *)
let exp_core th tl terr =
  let k = Float.round (th *. inv_ln2) in
  (* r = t - k*ln2 in dd: every product below is exact (two_prod; k is an
     integer < 2^11), so only the dd_add compressions round. *)
  let p = dd () and q = dd () and r = dd () in
  two_prod p k ln2_hi;
  two_prod q k ln2_lo;
  two_sum r th (-.p.hi);
  dd_add r r.hi r.lo (tl -. p.lo) 0.0;
  dd_sub r r.hi r.lo q.hi q.lo;
  let h0, l0 = exp_coeffs.(0) in
  let acc = p in
  set acc h0 l0;
  for j = 1 to 13 do
    dd_mul acc acc.hi acc.lo r.hi r.lo;
    let ch, cl = exp_coeffs.(j) in
    dd_add acc acc.hi acc.lo ch cl
  done;
  let ik = int_of_float k in
  let sh = Float.ldexp acc.hi ik and sl = Float.ldexp acc.lo ik in
  (* Argument uncertainty terr maps through the Lipschitz constant of exp
     on the result's scale: |d exp| = exp <= 1.01 * |sh| relative-wise. *)
  let err = Float.abs sh *. (exp_rel_err +. (1.01 *. terr)) in
  enclose_dd sh sl err

(* Enclosure of exp at a single endpoint, sound for every float. *)
let exp_point x =
  if x < exp_dom_lo then begin
    count_exp_fallback ();
    Interval.of_bounds 0.0 (Interval.sup (exp_core exp_dom_lo 0.0 0.0))
  end
  else if x > exp_dom_hi then begin
    count_exp_fallback ();
    Interval.of_bounds
      (Interval.inf (exp_core exp_dom_hi 0.0 0.0))
      Float.infinity
  end
  else begin
    count_exp_kernel ();
    exp_core x 0.0 0.0
  end

let exp i =
  if Interval.is_empty i then Interval.empty
  else if Interval.is_point i then begin
    let e = exp_point (Interval.inf i) in
    Interval.of_bounds (Interval.fmax 0.0 (Interval.inf e)) (Interval.sup e)
  end
  else
    Interval.of_bounds
      (Interval.fmax 0.0 (Interval.inf (exp_point (Interval.inf i))))
      (Interval.sup (exp_point (Interval.sup i)))

(* ------------------------------------------------------------------ *)
(* log                                                                 *)
(* ------------------------------------------------------------------ *)

(* x = 2^e m with m in [sqrt(1/2), sqrt 2): ln x = e ln2 + 2 artanh(u),
   u = (m-1)/(m+1), |u| <= 0.1716, s = u^2 <= 0.02945.

   artanh(u)/u = sum s^j/(2j+1), truncated after j = 11: the tail is
   <= s^12 / (25 (1 - s)) < 1.8e-20 on a series value >= 1, i.e.
   < 1.8e-20 relative on the 2u * P(s) part — and when e = 0 that part IS
   the result, so the bound stays relative to the result; when e <> 0,
   |result| >= ln2 - 0.35 > 0.34 >= |2uP|, so it still covers. m - 1 is
   exact (Sterbenz), m + 1 is an exact dd (two_sum), dd_div adds
   15 * 2^-106 relative, Horner rounding ~ 11 * 10 * 2^-106: all dwarfed
   by the truncation term. log_rel_err = 5e-20 more than covers the sum.

   The e * ln2 term carries |e| <= 1074 times the ln2 defect plus dd
   rounding on magnitude <= 745: < 1e-28 absolute = log_abs_err. *)
let log_rel_err = 5e-20
let log_abs_err = 1e-28
let sqrt_half = 0.7071067811865476

let log_coeffs =
  (* 1/(2j+1), j = 11 .. 0, as dd (Horner order in s = u^2). *)
  dd_inverses (Array.init 12 (fun j -> float_of_int ((2 * (11 - j)) + 1)))

(* dd log of a positive finite float into [v]; returns its derived error
   radius. *)
let log_core v x =
  let m0, e0 = Float.frexp x in
  let m, e = if m0 < sqrt_half then (m0 *. 2.0, e0 - 1) else (m0, e0) in
  let num = m -. 1.0 in
  let u = dd () and s = dd () and acc = dd () in
  two_sum u m 1.0;
  dd_div u num 0.0 u.hi u.lo;
  dd_mul s u.hi u.lo u.hi u.lo;
  let h0, l0 = log_coeffs.(0) in
  set acc h0 l0;
  for j = 1 to 11 do
    dd_mul acc acc.hi acc.lo s.hi s.lo;
    let ch, cl = log_coeffs.(j) in
    dd_add acc acc.hi acc.lo ch cl
  done;
  (* logm = 2 u P(s), the doubling exact *)
  let logm = u in
  dd_mul logm u.hi u.lo acc.hi acc.lo;
  set logm (2.0 *. logm.hi) (2.0 *. logm.lo);
  let ef = float_of_int e in
  let p = s and q = acc in
  two_prod p ef ln2_hi;
  two_prod q ef ln2_lo;
  dd_add v p.hi p.lo q.hi q.lo;
  dd_add v v.hi v.lo logm.hi logm.lo;
  (Float.abs v.hi *. log_rel_err) +. log_abs_err

let log_point x =
  count_log_kernel ();
  let v = dd () in
  let err = log_core v x in
  enclose_dd v.hi v.lo err

let log i =
  let i = Interval.meet i Interval.nonneg in
  if Interval.is_empty i then Interval.empty
  else begin
    let a = Interval.inf i and b = Interval.sup i in
    if a = b && a > 0.0 && a < Float.infinity then begin
      (* a point: one kernel call serves both ends *)
      let e = log_point a in
      Interval.of_bounds (Interval.inf e) (Interval.sup e)
    end
    else begin
      let lo =
        if a = 0.0 then Float.neg_infinity else Interval.inf (log_point a)
      in
      let hi =
        if b = 0.0 then Float.neg_infinity
        else if b = Float.infinity then Float.infinity
        else Interval.sup (log_point b)
      in
      Interval.of_bounds lo hi
    end
  end

(* ------------------------------------------------------------------ *)
(* pow with exact rational exponents                                   *)
(* ------------------------------------------------------------------ *)

(* x^r = exp(r * ln x). Rat components are < 2^53 so float_of_int is
   exact and dd_div gives r to 15 * 2^-106 relative; the exponent
   rounding that the float path ignores (|ln x| * ulp(p/q)/2, up to ~100
   ulps of the result for extreme bases) never enters. The absolute error
   of t = r_dd * ln_dd(x) maps to the same relative error on exp t. *)
let pow_rat_point x rat =
  (* x > 0 finite. *)
  let y = dd () and t = dd () in
  dd_div y (float_of_int (Rat.num rat)) 0.0 (float_of_int (Rat.den rat)) 0.0;
  let lerr = log_core t x in
  dd_mul t y.hi y.lo t.hi t.lo;
  let th = t.hi and tl = t.lo in
  (* |d(y * lx)| <= |y| * lerr + |t| * (rel of y and of the product). *)
  let terr = (Float.abs y.hi *. lerr) +. (Float.abs th *. 1e-30) in
  if th < exp_dom_lo then begin
    count_exp_fallback ();
    Interval.of_bounds 0.0 (Interval.sup (exp_core exp_dom_lo 0.0 0.0))
  end
  else if th > exp_dom_hi then begin
    count_exp_fallback ();
    Interval.of_bounds
      (Interval.inf (exp_core exp_dom_hi 0.0 0.0))
      Float.infinity
  end
  else exp_core th tl terr

let pow_rat i rat =
  match Rat.to_int rat with
  | Some n ->
      count_pow_rat_int ();
      Interval.pow_int i n
  | None ->
      (* Non-integer rational: nonnegative bases only, matching the
         natural-domain semantics of Interval.pow. *)
      let i = Interval.meet i Interval.nonneg in
      if Interval.is_empty i then Interval.empty
      else begin
        count_pow_rat_kernel ();
        let pos = Rat.sign rat > 0 in
        let at x =
          (* endpoint enclosure of x^r for x >= 0 *)
          if x = 0.0 then
            if pos then Interval.zero
            else Interval.of_bounds Float.infinity Float.infinity
          else if x = Float.infinity then
            if pos then Interval.of_bounds Float.infinity Float.infinity
            else Interval.zero
          else pow_rat_point x rat
        in
        let a = Interval.inf i and b = Interval.sup i in
        let ia = at a in
        (* a point: one kernel call serves both ends *)
        let ib = if b = a then ia else at b in
        (* monotone increasing for r > 0, decreasing for r < 0 *)
        if pos then
          Interval.of_bounds
            (Interval.fmax 0.0 (Interval.inf ia))
            (Interval.sup ib)
        else
          Interval.of_bounds
            (Interval.fmax 0.0 (Interval.inf ib))
            (Interval.sup ia)
      end

(* ------------------------------------------------------------------ *)
(* Lambert W                                                           *)
(* ------------------------------------------------------------------ *)

(* Certification is by interval evaluation of the residual w e^w - x with
   the certified exp: no float-rounding doubt, no NaN. g(w) = w e^w is
   strictly increasing on [-1, inf) (the range of W0), so
     sup g(w) <= x  ==>  w <= W0(x)
     inf g(w) >= x  ==>  w >= W0(x). *)
let residual_le w x =
  let g = Interval.mul (Interval.point w) (exp_point w) in
  Interval.sup g <= x

let residual_ge w x =
  let g = Interval.mul (Interval.point w) (exp_point w) in
  Interval.inf g >= x

(* Mixed absolute+relative stride, doubled each miss (the satellite-1 fix:
   the old pure-relative step was a no-op at w = 0). 60 doublings of the
   base stride exceed any finite distance that matters before the sound
   per-side fallback applies. *)
let stride w = 1e-16 *. (1.0 +. Float.abs w)

let w_lo x =
  if x = Float.infinity then Float.infinity
  else begin
    let guess =
      let w = Lambert.w0 x in
      if Float.is_nan w then -1.0 else Interval.fmax (-1.0) w
    in
    let rec down w step steps =
      if w <= -1.0 then -1.0 (* inf of W0's range: sound floor *)
      else if residual_le w x then w
      else if steps > 60 then -1.0
      else down (Interval.fmax (-1.0) (w -. step)) (2.0 *. step) (steps + 1)
    in
    count_w_kernel ();
    if guess <= -1.0 then
      (* At the branch point the floor itself is the certified bound. *)
      -1.0
    else down guess (stride guess) 0
  end

(* Upper-bound start near the branch point, where the float kernel NaNs:
   W0(x) <= -1 + p with p = sqrt(2 (e x + 1)), evaluated in interval
   arithmetic (upper end). The certification loop *checks* the start, so
   the series inequality need not be trusted — a failed check just steps
   upward. *)
let e_one = lazy (exp Interval.one)

let branch_hi_guess x =
  let e1 = Lazy.force e_one in
  let t =
    Interval.add
      (Interval.mul (Interval.point 2.0)
         (Interval.mul (Interval.point x) e1))
      (Interval.point 2.0)
  in
  let t = Interval.meet t Interval.nonneg in
  if Interval.is_empty t then -1.0
  else -1.0 +. Interval.sup (Interval.pow t 0.5)

let w_hi x =
  if x = Float.infinity then Float.infinity
  else begin
    let w0 = Lambert.w0 x in
    let guess =
      if Float.is_nan w0 then branch_hi_guess x else Interval.fmax (-1.0) w0
    in
    let rec up w step steps =
      if residual_ge w x then w
      else if steps > 60 then begin
        count_w_fallback ();
        Float.infinity
      end
      else up (w +. step) (2.0 *. step) (steps + 1)
    in
    count_w_kernel ();
    up guess (stride guess) 0
  end
