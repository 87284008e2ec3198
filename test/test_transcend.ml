(* Differential oracle for the certified transcendental kernels.

   Three properties, per the DLMF-vs-CAS comparative-verification model:

   - containment: independently computed reference values (libm point
     evaluations, correctly rounded sqrt/cbrt compositions, more-accurate
     alternative formulas) lie inside the new enclosures;
   - never wider: for exp / log / sin / cos / lambert_w the exported
     result is a subset of the libm-only [Transcend.Legacy] result
     (guaranteed by construction — each export meets both — but pinned
     here against regressions);
   - boundary tables at domain edges, the Lambert branch point, the old
     2^20 trig cutoff, and +-pi/2.

   atanh, w_inverse and (non-integer) pow_rat are deliberately *excluded*
   from the subset property: their float formulas under-cover the
   rounding budget (blanket two-ulp widening over 3+ roundings; silently
   dropped exponent rounding), so the sound enclosures may be slightly
   wider. They get reference-containment plus bounded-width checks
   instead, with the failing-before cases near the domain edges. *)

open Testutil

let iv = Interval.make
let point = Interval.point

(* Reference membership with a few ulps of tolerance for the reference's
   own rounding (the enclosure itself needs no tolerance). *)
let mem_approx ?(ulps = 4) v i =
  if Float.is_nan v then true
  else begin
    let lo = ref v and hi = ref v in
    for _ = 1 to ulps do
      lo := Float.pred !lo;
      hi := Float.succ !hi
    done;
    (not (Interval.is_empty i))
    && Interval.inf i <= !hi
    && Interval.sup i >= !lo
  end

let subset_of_legacy name f legacy_f gen =
  qcheck name gen (fun (lo, w, _frac) ->
      let i = iv lo (lo +. w) in
      Interval.subset (f i) (legacy_f i))

let containment name f reference gen =
  qcheck name gen (fun (lo, w, frac) ->
      let hi = lo +. w in
      let x = lo +. (frac *. w) in
      let i = f (iv lo hi) in
      let v = reference x in
      Float.is_nan v || Interval.is_empty i || Interval.mem v i
      || (* reference may round outside a sub-ulp enclosure *)
      mem_approx ~ulps:2 v i)

let small_gen =
  QCheck2.Gen.(
    tup3 (float_range (-50.0) 50.0) (float_range 0.0 20.0)
      (float_range 0.0 1.0))

let large_gen =
  QCheck2.Gen.(
    tup3
      (float_range (-1e15) 1e15)
      (float_range 0.0 10.0) (float_range 0.0 1.0))

let huge_gen =
  QCheck2.Gen.(
    tup3
      (float_range (-4.4e15) 4.4e15)
      (float_range 0.0 3.0) (float_range 0.0 1.0))

(* ------------------------------------------------------------------ *)
(* exp / log tightness: the kernels must actually engage               *)
(* ------------------------------------------------------------------ *)

let test_exp_kernel_tighter () =
  List.iter
    (fun x ->
      let fresh = Transcend.exp (point x)
      and old = Transcend.Legacy.exp (point x) in
      check_true
        (Printf.sprintf "exp kernel subset at %g" x)
        (Interval.subset fresh old);
      check_true
        (Printf.sprintf "exp kernel strictly tighter at %g" x)
        (Interval.width fresh < Interval.width old);
      check_true
        (Printf.sprintf "exp reference inside at %g" x)
        (mem_approx ~ulps:1 (Stdlib.exp x) fresh))
    [ 0.0; 1.0; -1.0; 0.5; -37.2; 12.75; 300.0; -300.0; 708.0; -650.0 ]

let test_log_kernel_tighter () =
  List.iter
    (fun x ->
      let fresh = Transcend.log (point x)
      and old = Transcend.Legacy.log (point x) in
      check_true
        (Printf.sprintf "log kernel subset at %g" x)
        (Interval.subset fresh old);
      check_true
        (Printf.sprintf "log kernel strictly tighter at %g" x)
        (Interval.width fresh < Interval.width old);
      check_true
        (Printf.sprintf "log reference inside at %g" x)
        (mem_approx ~ulps:1 (Stdlib.log x) fresh))
    [ 0.5; 2.0; 4.0; 1e-8; 1e12; 0.9999999; 1.0000001; 1e300; 1e-300 ]

let test_exp_boundaries () =
  (* x = 0: enclosure of 1 at sub-ulp width *)
  let one = Transcend.exp (point 0.0) in
  check_true "exp 0 contains 1" (Interval.mem 1.0 one);
  check_true "exp 0 tight" (Interval.width one <= 8.0 *. Float.succ 1.0 -. 8.0);
  (* overflow / underflow edges stay sound and ordered *)
  List.iter
    (fun x ->
      let i = Transcend.exp (point x) in
      check_true
        (Printf.sprintf "exp %g nonneg" x)
        (Interval.inf i >= 0.0);
      check_true
        (Printf.sprintf "exp %g contains libm" x)
        (mem_approx (Stdlib.exp x) i))
    [ 709.0; 710.0; 745.0; -745.0; -746.0; -710.0; 1e5; -1e5 ];
  check_true "exp of top is [0, inf]"
    (Interval.equal (Transcend.exp Interval.top)
       (Interval.make 0.0 Float.infinity));
  check_true "exp empty" (Interval.is_empty (Transcend.exp Interval.empty))

let test_log_boundaries () =
  let z = Transcend.log (point 1.0) in
  check_true "log 1 contains 0" (Interval.mem 0.0 z);
  check_true "log 1 tight" (Interval.width z < 1e-20);
  check_true "log [0,0] is -inf"
    (Interval.sup (Transcend.log (point 0.0)) = Float.neg_infinity);
  check_true "log [0,1] lower is -inf"
    (Interval.inf (Transcend.log (iv 0.0 1.0)) = Float.neg_infinity);
  check_true "log of negatives empty"
    (Interval.is_empty (Transcend.log (iv (-2.0) (-1.0))));
  check_true "log inf upper"
    (Interval.sup (Transcend.log Interval.top) = Float.infinity)

(* ------------------------------------------------------------------ *)
(* trig: certified reduction replaces the 2^20 cutoff                  *)
(* ------------------------------------------------------------------ *)

let test_trig_beyond_old_cutoff () =
  let c = Transcend.Legacy.trig_arg_cutoff in
  (* Just beyond the old cutoff the legacy enclosure is the trivial
     [-1, 1]; the certified one must be sound *and* nontrivial. *)
  List.iter
    (fun (a, w) ->
      let i = iv a (a +. w) in
      let s = Transcend.sin i and co = Transcend.cos i in
      check_true
        (Printf.sprintf "legacy sin trivial at %g" a)
        (Interval.equal (Transcend.Legacy.sin i) (iv (-1.0) 1.0));
      check_true
        (Printf.sprintf "certified sin nontrivial at %g" a)
        (Interval.width s < 2.0);
      (* sample: libm (with its own correct reduction) must land inside *)
      for j = 0 to 16 do
        let x = a +. (w *. float_of_int j /. 16.0) in
        check_true
          (Printf.sprintf "sin containment at %g" x)
          (mem_approx (Stdlib.sin x) s);
        check_true
          (Printf.sprintf "cos containment at %g" x)
          (mem_approx (Stdlib.cos x) co)
      done)
    [
      (2.0 *. c, 0.1);
      (c +. 1.0, 0.01);
      (1e9, 0.5);
      (1e12, 0.25);
      (0x1p40, 1.0);
      (0x1.921fb5446f318p+42, 0.0);
      (4.0e15, 0.125);
    ]

let test_trig_reduce_max_edge () =
  (* beyond 2^52 the certified reduction declines: [-1, 1] fallback *)
  let big = Float.succ Certified.trig_reduce_max in
  check_true "sin beyond reduce_max is trivial"
    (Interval.equal (Transcend.sin (point big)) (iv (-1.0) 1.0));
  (* at 2^52 it still reduces *)
  let at_max = Transcend.sin (point Certified.trig_reduce_max) in
  check_true "sin at reduce_max nontrivial" (Interval.width at_max < 2.0);
  check_true "sin at reduce_max sound"
    (mem_approx (Stdlib.sin Certified.trig_reduce_max) at_max)

let test_trig_both_slack_regimes () =
  (* small-argument regime: extremum inside must be hulled *)
  let s = Transcend.sin (iv (Transcend.half_pi_lo -. 1e-3) (Transcend.half_pi_lo +. 1e-3)) in
  check_true "interior maximum hulled" (Interval.sup s = 1.0);
  let c = Transcend.cos (iv (-0.1) 0.1) in
  check_true "cos interior maximum hulled" (Interval.sup c = 1.0);
  (* extremum *outside* by more than the new slack (but inside the old
     absolute 1e-9): result stays sound and subset-of-legacy *)
  let b = Transcend.half_pi_lo -. 5e-13 in
  let i = iv 0.5 b in
  let s = Transcend.sin i in
  check_true "near-extremum still sound" (mem_approx (Stdlib.sin b) s);
  check_true "near-extremum subset of legacy"
    (Interval.subset s (Transcend.Legacy.sin i));
  (* large-argument regime: extremum detection after a genuine reduction *)
  let k = 1e9 in
  let kk = Float.round (k /. (2.0 *. Transcend.pi_lo)) in
  let near_max = (kk *. 2.0 *. Float.pi) +. (Float.pi /. 2.0) in
  let i = iv (near_max -. 0.01) (near_max +. 0.01) in
  let s = Transcend.sin i in
  check_true "reduced interior maximum hulled" (Interval.sup s = 1.0);
  check_true "reduced enclosure nontrivial" (Interval.inf s > 0.9)

let test_reduction_identity () =
  (* reduce_two_pi against glibc's own (independent, Payne-Hanek) sin *)
  List.iter
    (fun x ->
      let rh, rl, err = Certified.reduce_two_pi x in
      let gap = Float.abs (Stdlib.sin (rh +. rl) -. Stdlib.sin x) in
      check_true
        (Printf.sprintf "reduction identity at %g (gap %g)" x gap)
        (gap <= err +. 1e-13))
    [
      1.0; -1.0; 6.5; 100.0; 12345.678; 1e6; 1e9; -1e9; 1e12; 0x1p30;
      0x1p45; 0x1p52; -0x1p52; 1048577.0;
    ]

let trig_huge_qcheck =
  qcheck "sin/cos containment up to 4.4e15"
    QCheck2.Gen.(tup2 (float_range (-4.4e15) 4.4e15) (float_range 0.0 2.0))
    (fun (a, w) ->
      let i = iv a (a +. w) in
      let s = Transcend.sin i and c = Transcend.cos i in
      let ok x =
        mem_approx (Stdlib.sin x) s && mem_approx (Stdlib.cos x) c
      in
      ok a && ok (a +. w) && ok (a +. (w /. 2.0)))

(* ------------------------------------------------------------------ *)
(* Lambert W                                                           *)
(* ------------------------------------------------------------------ *)

let test_w_zero_regression () =
  (* satellite 1: the old pure-relative certification stride was a no-op
     at w = 0 and escaped with an absolute 1e-9 slack *)
  let w = Transcend.lambert_w (point 0.0) in
  check_true "W(0) contains 0" (Interval.mem 0.0 w);
  check_true "W(0) is tight (old slack was 1e-9)"
    (Interval.width w < 1e-100)

let test_w_branch_point () =
  let bp = -.Stdlib.exp (-1.0) in
  (* at and just right of the branch point the float kernel NaNs; the
     legacy upper bound escaped to +inf, the certified kernel repairs it *)
  List.iter
    (fun x ->
      let fresh = Transcend.lambert_w (point x) in
      check_false
        (Printf.sprintf "W(%.17g) not empty" x)
        (Interval.is_empty fresh);
      check_true
        (Printf.sprintf "W(%.17g) upper bound finite" x)
        (Interval.sup fresh < Float.infinity);
      check_true
        (Printf.sprintf "W(%.17g) near -1" x)
        (Interval.inf fresh >= -1.0 && Interval.sup fresh < -0.9);
      (* residual check through independent float evaluation *)
      let lo = Interval.inf fresh and hi = Interval.sup fresh in
      check_true "residual brackets: lo side"
        ((lo *. Stdlib.exp lo) -. x <= 1e-12);
      check_true "residual brackets: hi side"
        ((hi *. Stdlib.exp hi) -. x >= -1e-12))
    [ bp; bp +. 1e-16; bp +. 1e-14; bp +. 1e-10 ];
  (* demonstrate the repaired escape: legacy was +inf here *)
  let x = bp +. 1e-16 in
  check_true "legacy escaped to +inf at branch"
    (Interval.sup (Transcend.Legacy.lambert_w (point x)) = Float.infinity
    || Float.is_nan (Lambert.w0 x) = false);
  check_true "left of domain is empty"
    (Interval.is_empty (Transcend.lambert_w (iv (-10.0) (bp -. 1e-10))))

let test_w_nan_policy () =
  (* the exported NaN fallback policy is unchanged *)
  let i = Transcend.certified_w_bounds ~lo:Float.nan ~hi:Float.nan in
  check_true "nan policy lo" (Interval.inf i = -1.0);
  check_true "nan policy hi" (Interval.sup i = Float.infinity)

let w_subset_qcheck =
  qcheck "lambert_w subset of legacy"
    QCheck2.Gen.(tup2 (float_range (-0.37) 50.0) (float_range 0.0 10.0))
    (fun (a, w) ->
      let i = iv a (a +. w) in
      Interval.subset (Transcend.lambert_w i) (Transcend.Legacy.lambert_w i))

let w_containment_qcheck =
  qcheck "lambert_w containment" small_gen (fun (lo, w, frac) ->
      let x = lo +. (frac *. w) in
      let i = Transcend.lambert_w (iv lo (lo +. w)) in
      let v = Lambert.w0 x in
      Float.is_nan v || Interval.is_empty i || mem_approx v i)

(* ------------------------------------------------------------------ *)
(* atanh / w_inverse: repaired rounding budget                          *)
(* ------------------------------------------------------------------ *)

(* More accurate independent reference: 0.5 (log1p x - log1p (-x)) — one
   rounding per term against the old formula's three-plus. *)
let atanh_ref x = 0.5 *. (Float.log1p x -. Float.log1p (-.x))

let test_atanh_edges () =
  (* failing-before oracle cases near +-1: the old blanket two-ulp
     widening of a 3-plus-rounding composite could miss the true value;
     the interval composition cannot *)
  List.iter
    (fun x ->
      let i = Transcend.atanh (point x) in
      check_true
        (Printf.sprintf "atanh reference inside at %.17g" x)
        (mem_approx ~ulps:1 (atanh_ref x) i);
      (* and the repaired enclosure is still ulp-scale, not slack-scale *)
      check_true
        (Printf.sprintf "atanh width reasonable at %.17g" x)
        (Interval.width i
        <= 1e-13 *. (1.0 +. Float.abs (atanh_ref x))))
    [
      0.9; -0.9; 0.99999; -0.99999; 1.0 -. 1e-10; -1.0 +. 1e-10;
      1.0 -. 2.3e-13; -1.0 +. 4.5e-14; 0.5; -0.5; 1e-300;
    ];
  check_true "atanh at 1 is +inf"
    (Interval.sup (Transcend.atanh (iv 0.0 1.0)) = Float.infinity);
  check_true "atanh at -1 is -inf"
    (Interval.inf (Transcend.atanh (iv (-1.0) 0.0)) = Float.neg_infinity);
  check_true "atanh outside domain empty"
    (Interval.is_empty (Transcend.atanh (iv 2.0 3.0)))

let atanh_containment_qcheck =
  qcheck "atanh containment"
    QCheck2.Gen.(tup2 (float_range (-1.0) 1.0) (float_range 0.0 1.0))
    (fun (a, frac) ->
      let b = a +. ((1.0 -. a) *. frac) in
      let i = Transcend.atanh (iv a b) in
      let mid = a +. ((b -. a) /. 2.0) in
      Interval.is_empty i || mem_approx (atanh_ref mid) i)

(* w e^w in dd-ish arithmetic (fma-based two_prod) as the independent
   reference for w_inverse. *)
let w_inverse_ref w =
  let e = Stdlib.exp w in
  let p = w *. e in
  let err = Float.fma w e (-.p) in
  p +. err

let test_w_inverse_edges () =
  (* failing-before cases near -1: w e^w has two roundings plus libm's
     exp error; the old two-ulp budget under-covered it *)
  List.iter
    (fun w ->
      let i = Transcend.w_inverse (point w) in
      check_true
        (Printf.sprintf "w_inverse reference inside at %.17g" w)
        (mem_approx ~ulps:2 (w_inverse_ref w) i);
      check_true
        (Printf.sprintf "w_inverse width reasonable at %.17g" w)
        (Interval.width i <= 1e-12 *. (1.0 +. Float.abs (w_inverse_ref w))))
    [ -1.0; -1.0 +. 1e-12; -0.9999999; -0.5; 0.0; 1e-300; 0.5; 1.0; 700.0 ];
  check_true "w_inverse at 0 is exact"
    (Interval.equal (Transcend.w_inverse (point 0.0)) Interval.zero);
  check_true "w_inverse clips below -1"
    (Interval.equal
       (Transcend.w_inverse (iv (-5.0) (-1.0)))
       (Transcend.w_inverse (point (-1.0))))

let w_inverse_containment_qcheck =
  qcheck "w_inverse containment" small_gen (fun (lo, w, frac) ->
      let x = lo +. (frac *. w) in
      let i = Transcend.w_inverse (iv lo (lo +. w)) in
      Interval.is_empty i || x < -1.0 || mem_approx (w_inverse_ref x) i)

(* ------------------------------------------------------------------ *)
(* pow_rat                                                             *)
(* ------------------------------------------------------------------ *)

let test_pow_rat_integer_parity () =
  (* integer rationals must be bit-identical to the pow_int path *)
  List.iter
    (fun (lo, hi, n) ->
      let i = iv lo hi in
      check_true
        (Printf.sprintf "pow_rat int parity %d" n)
        (Interval.equal
           (Transcend.pow_rat i (Rat.of_int n))
           (Interval.pow_int i n)))
    [ (-3.0, 2.0, 2); (-3.0, 2.0, 3); (0.5, 2.0, -1); (-1.0, 1.0, 0) ]

let test_pow_rat_references () =
  (* correctly rounded sqrt and faithful cbrt give independent references *)
  let cases =
    [
      (Rat.half, fun x -> Stdlib.sqrt x);
      (Rat.make 3 2, fun x -> x *. Stdlib.sqrt x);
      (Rat.third, fun x -> Float.cbrt x);
      (* (cbrt x)^2, not cbrt (x^2): the square must come second or the
         intermediate overflows/underflows at the 1e+-300 sample bases *)
      (Rat.make 2 3, fun x -> let c = Float.cbrt x in c *. c);
      (Rat.make 4 3, fun x -> x *. Float.cbrt x);
      (Rat.make (-1) 3, fun x -> 1.0 /. Float.cbrt x);
    ]
  in
  List.iter
    (fun (r, ref_f) ->
      List.iter
        (fun x ->
          let i = Transcend.pow_rat (point x) r in
          check_true
            (Printf.sprintf "pow_rat %s at %g" (Rat.to_string r) x)
            (mem_approx (ref_f x) i))
        [ 0.001; 0.1; 1.0; 2.0; 1e10; 1e300; 1e-300; 4.0 /. 3.0 ])
    cases;
  (* the exponent-rounding failing-before case: extreme base, exponent
     1/3 — x^fl(1/3) is ~100 ulps away from x^(1/3), outside the float
     path's one-ulp widening *)
  let x = 1e300 in
  let i = Transcend.pow_rat (point x) Rat.third in
  check_true "cbrt(1e300) inside certified pow_rat"
    (mem_approx ~ulps:1 (Float.cbrt x) i);
  check_true "pow_rat tight at extreme base"
    (Interval.width i <= 1e-13 *. Float.cbrt x)

let test_pow_rat_edges () =
  check_true "0^(1/2) = 0"
    (Interval.equal (Transcend.pow_rat (point 0.0) Rat.half) Interval.zero);
  check_true "0^(-1/2) = inf"
    (Interval.sup (Transcend.pow_rat (iv 0.0 1.0) (Rat.make (-1) 2))
    = Float.infinity);
  check_true "negative base contributes nothing"
    (Interval.is_empty (Transcend.pow_rat (iv (-4.0) (-1.0)) Rat.half));
  check_true "straddling base clips to nonneg"
    (Interval.inf (Transcend.pow_rat (iv (-4.0) 9.0) Rat.half) >= 0.0)

let pow_rat_containment_qcheck =
  qcheck "pow_rat containment"
    QCheck2.Gen.(
      tup4 (float_range 0.0 10.0) (float_range 0.0 5.0) (int_range (-9) 9)
        (int_range 1 5))
    (fun (a, w, p, q) ->
      let r = Rat.make p q in
      let i = Transcend.pow_rat (iv a (a +. w)) r in
      let x = a +. (w /. 2.0) in
      let v = Eval.pow_float x (Rat.to_float r) in
      Float.is_nan v || Interval.is_empty i || mem_approx v i)

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* A point [x, x] runs its certified kernel once and uses the one
   enclosure for both ends. The two-endpoint evaluation it replaces is
   rebuilt here from intervals that share one end with the point: the
   lower end of [x, succ x] and the upper end of [pred x, x] each come
   from their own kernel call at x. [increasing] picks which end bounds
   which side. *)
let two_end_eval f ~increasing x =
  let above = f (iv x (Float.succ x)) and below = f (iv (Float.pred x) x) in
  if increasing then Interval.of_bounds (Interval.inf above) (Interval.sup below)
  else Interval.of_bounds (Interval.inf below) (Interval.sup above)

(* Test-side copy of Transcend's float-path widening for the rounding of
   a rational exponent (lib/interval/transcend.ml). *)
let widen_exponent_rounding i base p =
  if Interval.is_empty base then base
  else begin
    let ulp_of v = let a = Float.abs v in Float.succ a -. a in
    let ln_extreme x =
      if x > 0.0 && x < Float.infinity then Float.abs (Stdlib.log x) else 0.0
    in
    let lnb =
      Float.max (ln_extreme (Interval.mig i)) (ln_extreme (Interval.mag i))
    in
    let d = (lnb +. 1.0) *. ulp_of p in
    let lo = Interval.inf base and hi = Interval.sup base in
    let lo =
      if Float.is_finite lo then Float.max 0.0 (Float.pred (lo -. (lo *. d)))
      else lo
    in
    let hi =
      if hi = Float.infinity then hi else Float.succ (hi +. (hi *. d))
    in
    Interval.of_bounds lo hi
  end

(* Transcend's meets, over the rebuilt certified enclosure of a point. *)
let two_end_transcend_log x =
  let i = point x in
  let base = Transcend.Legacy.log i in
  if Interval.is_empty base || not (Interval.is_bounded i) then base
  else
    Interval.meet base (two_end_eval Certified.log ~increasing:true x)

(* Integer exponents take Interval.pow_int, which has no kernel call. *)
let two_end_certified_pow_rat x r =
  match Rat.to_int r with
  | Some n -> Interval.pow_int (point x) n
  | None ->
      two_end_eval
        (fun i -> Certified.pow_rat i r)
        ~increasing:(Rat.sign r > 0) x

let two_end_transcend_pow_rat x r =
  let i = point x in
  match Rat.to_int r with
  | Some n -> Interval.pow_int i n
  | None ->
      let p = Rat.to_float r in
      let base = widen_exponent_rounding i (Interval.pow i p) p in
      if Interval.is_bounded i then
        Interval.meet base (two_end_certified_pow_rat x r)
      else base

(* The exact rational exponents of the registry's encoded conditions. *)
let registry_rats =
  lazy
    (List.sort_uniq Rat.compare
       (List.concat_map
          (fun (p : Encoder.problem) ->
            let prog =
              Itape.compile ~vars:(Box.vars p.Encoder.domain) p.Encoder.psi
            in
            Array.to_list (Itape.instrs prog)
            |> List.filter_map (function
                 | Itape.Ipow { const_rat = Some r; _ } -> Some r
                 | _ -> None))
          (Encoder.encode_all Registry.paper_five)))

(* ... plus a few of either sign *)
let oracle_rats =
  lazy
    (List.sort_uniq Rat.compare
       (Rat.third :: Rat.make (-1) 3 :: Rat.make 3 2 :: Rat.make (-7) 6
        :: Lazy.force registry_rats))

(* 0, subnormals, 1, huge values and, per exponent r, the bases where
   r ln x crosses the ends of the dd exp kernel's domain. *)
let special_points r =
  let around x = [ Float.pred x; x; Float.succ x ] in
  let rf = Rat.to_float r in
  [ 0.0; 0x1p-1074; 1e-310; 0x1p-1022; 1.0; 1e300; Float.max_float;
    Float.infinity ]
  @ around 1.0
  @ List.concat_map around
      (List.filter
         (fun x -> x > 0.0 && Float.is_finite x)
         [ Stdlib.exp (709.0 /. rf); Stdlib.exp (-670.0 /. rf) ])

let check_same name x got want =
  let bits v = Int64.bits_of_float v in
  if
    not
      ((Interval.is_empty got && Interval.is_empty want)
      || bits (Interval.inf got) = bits (Interval.inf want)
         && bits (Interval.sup got) = bits (Interval.sup want))
  then
    Alcotest.failf "%s at %h: %s, two-end %s" name x (Interval.to_string got)
      (Interval.to_string want)

let check_pow_rat_point r x =
  let rs = Rat.to_string r in
  check_same ("Certified.pow_rat " ^ rs) x
    (Certified.pow_rat (point x) r)
    (two_end_certified_pow_rat x r);
  check_same ("Transcend.pow_rat " ^ rs) x
    (Transcend.pow_rat (point x) r)
    (two_end_transcend_pow_rat x r)

let check_log_point x =
  check_same "Certified.log" x
    (Certified.log (point x))
    (two_end_eval Certified.log ~increasing:true x);
  check_same "Transcend.log" x
    (Transcend.log (point x))
    (two_end_transcend_log x)

let test_point_eval_specials () =
  let fractional =
    List.filter (fun r -> Rat.to_int r = None) (Lazy.force registry_rats)
  in
  check_true
    (Printf.sprintf "registry has fractional exponents (%d)"
       (List.length fractional))
    (List.length fractional >= 3);
  List.iter
    (fun r ->
      List.iter
        (fun x ->
          check_pow_rat_point r x;
          check_log_point x)
        (special_points r))
    (Lazy.force oracle_rats)

let point_eval_qcheck =
  qcheck ~count:500 "point enclosures = two-end evaluation, bit for bit"
    QCheck2.Gen.(
      oneof
        [
          map (fun b -> Float.abs (Int64.float_of_bits b)) int64;
          float_range 0.0 4.0;
          map (fun e -> Float.ldexp 1.0 e) (int_range (-1074) 1023);
        ])
    (fun x ->
      Float.is_nan x
      || begin
           check_log_point x;
           List.iter
             (fun r -> check_pow_rat_point r x)
             (Lazy.force oracle_rats);
           true
         end)

(* ------------------------------------------------------------------ *)
(* subset-of-legacy and containment sweeps for the remaining exports   *)
(* ------------------------------------------------------------------ *)

let test_counters_fire () =
  let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Metrics.install prev))
    (fun () ->
      ignore (Transcend.exp (point 1.0));
      ignore (Transcend.exp (iv 0.0 100.0));
      ignore (Transcend.sin (point 1e9));
      ignore (Transcend.sin (point 1e16));
      ignore (Transcend.lambert_w (point 1.0));
      ignore (Transcend.pow_rat (point 2.0) Rat.third);
      let snap = Obs.Metrics.snapshot () in
      let get name =
        match List.assoc_opt name snap.Obs.Metrics.counters with
        | Some v -> v
        | None -> Alcotest.failf "counter %s not registered" name
      in
      check_true "exp kernel counted" (get "transcend.exp.kernel" >= 1);
      check_true "exp fallback counted" (get "transcend.exp.fallback" >= 1);
      check_true "trig reduced counted" (get "transcend.trig.reduced" >= 1);
      check_true "trig fallback counted" (get "transcend.trig.fallback" >= 1);
      check_true "w kernel counted" (get "transcend.w.kernel" >= 0);
      check_true "pow_rat kernel counted" (get "transcend.pow_rat.kernel" >= 1))

(* There is one enclosure path and no process-global switch: at fixed
   points, including those beyond the old trig cutoff, every export is
   a subset of its libm enclosure, and a second domain computes the
   same enclosures as the main one. *)
let test_single_path_fixed_table () =
  let c = Transcend.Legacy.trig_arg_cutoff in
  let exports =
    [
      ("exp", Transcend.exp, Transcend.Legacy.exp);
      ("log", Transcend.log, Transcend.Legacy.log);
      ("sin", Transcend.sin, Transcend.Legacy.sin);
      ("cos", Transcend.cos, Transcend.Legacy.cos);
      ("lambert_w", Transcend.lambert_w, Transcend.Legacy.lambert_w);
    ]
  in
  let inputs =
    [
      point 1.0;
      point 0.5;
      iv 0.0 100.0;
      iv (-0.25) 2.0;
      iv 1e-300 1e-3;
      point (2.0 *. c);
      iv (c +. 1.0) (c +. 1.01);
    ]
  in
  let table () =
    List.concat_map
      (fun (_, f, _) -> List.map (fun i -> f i) inputs)
      exports
  in
  List.iter
    (fun (name, f, legacy_f) ->
      List.iter
        (fun i ->
          check_true
            (Printf.sprintf "%s [%g, %g] subset of libm enclosure" name
               (Interval.inf i) (Interval.sup i))
            (Interval.subset (f i) (legacy_f i)))
        inputs)
    exports;
  check_true "sin nontrivial beyond old cutoff"
    (Interval.width (Transcend.sin (point (2.0 *. c))) < 2.0);
  let here = table () in
  let there = Domain.join (Domain.spawn table) in
  List.iter2
    (fun a b -> check_true "same enclosure in another domain" (Interval.equal a b))
    here there

(* The solver at the escape points: conditions that the libm-only
   enclosures cannot refute (sin and cos beyond the old 2^20 cutoff
   collapse to [-1, 1]; W at the branch point escaped to +inf), so a
   solver on them would spend its fuel splitting a box that no split
   narrows. The certified enclosures refute each on the root box. The
   W box hugs the branch point with delta finer than the box, so an
   escaping enclosure would force splits. *)
let test_solve_at_escape_points () =
  let cfg =
    { Icp.default_config with fuel = 400; delta = 1e-9; faults = None }
  in
  let x = Expr.var "x" in
  let refute atom = [ Form.negate_atom atom ] in
  let sin_at = 0x1p21 and cos_at = 3.0 *. 0x1p20 in
  let bp = -.Stdlib.exp (-1.0) in
  List.iter
    (fun (label, cfg, dom, formula) ->
      let verdict, stats = Icp.solve cfg (Box.make [ ("x", dom) ]) formula in
      check_true (label ^ " is unsat") (verdict = Icp.Unsat);
      check_true
        (Printf.sprintf "%s: %d expansions <= 1" label stats.Icp.expansions)
        (stats.Icp.expansions <= 1))
    [
      ( "sin_escape", cfg, iv sin_at (sin_at +. 0.125),
        refute (Form.le (Expr.sub (Expr.sin x) (Expr.const 0.9))) );
      ( "cos_escape", cfg, iv cos_at (cos_at +. 0.125),
        refute (Form.le (Expr.sub (Expr.cos x) (Expr.const 0.9))) );
      ( "w_branch", { cfg with delta = 1e-13 }, iv bp (bp +. 1e-10),
        refute (Form.le (Expr.lambert_w x)) );
    ]

let suite =
  [
    case "exp kernel tighter than legacy" test_exp_kernel_tighter;
    case "log kernel tighter than legacy" test_log_kernel_tighter;
    case "exp boundary table" test_exp_boundaries;
    case "log boundary table" test_log_boundaries;
    case "trig beyond old 2^20 cutoff" test_trig_beyond_old_cutoff;
    case "trig 2^52 reduction edge" test_trig_reduce_max_edge;
    case "trig slack regimes" test_trig_both_slack_regimes;
    case "certified reduction identity" test_reduction_identity;
    case "lambert stride fix at x = 0" test_w_zero_regression;
    case "lambert branch point repair" test_w_branch_point;
    case "lambert NaN policy" test_w_nan_policy;
    case "solver at the escape points" test_solve_at_escape_points;
    case "atanh edge oracle" test_atanh_edges;
    case "w_inverse edge oracle" test_w_inverse_edges;
    case "pow_rat integer parity" test_pow_rat_integer_parity;
    case "pow_rat references" test_pow_rat_references;
    case "pow_rat edges" test_pow_rat_edges;
    case "point enclosures at special points" test_point_eval_specials;
    point_eval_qcheck;
    case "dispatch counters" test_counters_fire;
    case "single path on a fixed table" test_single_path_fixed_table;
    subset_of_legacy "exp subset of legacy" Transcend.exp Transcend.Legacy.exp
      small_gen;
    subset_of_legacy "log subset of legacy" Transcend.log Transcend.Legacy.log
      small_gen;
    subset_of_legacy "sin subset of legacy (small)" Transcend.sin
      Transcend.Legacy.sin small_gen;
    subset_of_legacy "cos subset of legacy (small)" Transcend.cos
      Transcend.Legacy.cos small_gen;
    subset_of_legacy "sin subset of legacy (large)" Transcend.sin
      Transcend.Legacy.sin large_gen;
    subset_of_legacy "cos subset of legacy (large)" Transcend.cos
      Transcend.Legacy.cos large_gen;
    containment "exp containment" Transcend.exp Stdlib.exp small_gen;
    containment "log containment" Transcend.log Stdlib.log small_gen;
    containment "sin containment (small)" Transcend.sin Stdlib.sin small_gen;
    containment "cos containment (small)" Transcend.cos Stdlib.cos small_gen;
    containment "sin containment (large)" Transcend.sin Stdlib.sin large_gen;
    containment "cos containment (large)" Transcend.cos Stdlib.cos large_gen;
    containment "sin containment (huge)" Transcend.sin Stdlib.sin huge_gen;
    containment "tanh containment" Transcend.tanh Stdlib.tanh small_gen;
    containment "atan containment" Transcend.atan Stdlib.atan small_gen;
    (* tan_on_principal clips to the principal branch, so only sample
       points inside (-pi/2, pi/2) are expected in the enclosure *)
    qcheck "tan_on_principal containment"
      QCheck2.Gen.(
        tup3 (float_range (-1.5) 1.5) (float_range 0.0 0.5)
          (float_range 0.0 1.0))
      (fun (lo, w, frac) ->
        let x = lo +. (frac *. w) in
        if Float.abs x >= Transcend.half_pi_lo then true
        else
          let i = Transcend.tan_on_principal (iv lo (lo +. w)) in
          Interval.is_empty i || mem_approx (Stdlib.tan x) i);
    containment "asin_hull containment" Transcend.asin_hull Stdlib.asin
      QCheck2.Gen.(
        tup3 (float_range (-1.0) 1.0) (float_range 0.0 0.5)
          (float_range 0.0 1.0));
    containment "acos_hull containment" Transcend.acos_hull Stdlib.acos
      QCheck2.Gen.(
        tup3 (float_range (-1.0) 1.0) (float_range 0.0 0.5)
          (float_range 0.0 1.0));
    trig_huge_qcheck;
    w_subset_qcheck;
    w_containment_qcheck;
    atanh_containment_qcheck;
    w_inverse_containment_qcheck;
    pow_rat_containment_qcheck;
  ]
