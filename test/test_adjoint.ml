(* Reverse-mode adjoint sweep over the interval tape, and the two consumers
   built on it: the tape-native mean-value contractor and smear-guided
   splitting.

   Soundness oracles, from cheapest to deepest:
   - forward-mode dual numbers ([Dual.eval]) give the true pointwise
     derivative at box midpoints; every adjoint partial must enclose it;
   - the symbolic gradient ([Deriv.diff] + [Ieval.eval]) gives an
     independent interval enclosure; on point boxes the two must
     intersect;
   - the mean-value contractor must never lose a certified satisfying
     point, and must handle gradients that straddle zero (the relational
     division regression);
   - smear splitting may change the exploration order but never the verdict
     class, and keeps paint logs byte-identical at every worker count. *)

open Testutil
open Expr

let x = var "x"
let y = var "y"
let iv = Interval.make
let box2 (xl, xh) (yl, yh) = Box.make [ ("x", iv xl xh); ("y", iv yl yh) ]

(* rel 1e-9 + abs 1e-9 slack: the oracles compute in float arithmetic with
   different operation orders, so exact containment at the bounds is not a
   meaningful ask. *)
let widen i =
  let pad v = if Float.is_finite v then (1e-9 *. Float.abs v) +. 1e-9 else 0.0 in
  let lo = Interval.inf i and hi = Interval.sup i in
  iv (lo -. pad lo) (hi +. pad hi)

let gradient_of e b = Itape.eval_gradient (Itape.compile ~vars:[ "x"; "y" ] (Form.le e)) b

let symbolic_partial e v b =
  Ieval.eval (Box.to_env b) (Simplify.simplify (Deriv.diff ~wrt:v e))

(* ------------------------------------------------------------------ *)
(* Adjoint partials vs the forward-mode and symbolic oracles *)

let prop_adjoint_contains_dual =
  qcheck ~count:500 "adjoint partials enclose dual-number derivatives"
    QCheck2.Gen.(
      tup4 expr_gen (float_range 0.0 1.0) (float_range 0.0 1.0)
        (float_range 0.0 0.5))
    (fun (e, lx, ly, w) ->
      let b = box2 (lx, lx +. w) (ly, ly +. w) in
      let g = gradient_of e b in
      let mid = Box.midpoint b in
      List.for_all
        (fun (i, v) ->
          let p = g.Itape.partials.(i) in
          let d = (Dual.eval mid ~wrt:v e).Dual.d in
          if not (Float.is_finite d) then true
          else if Interval.is_empty p then
            (* an empty partial only ever means the forward value itself
               left the domain somewhere in the chain *)
            true
          else
            Interval.mem d (widen p)
            &&
            (* same claim against the independent symbolic enclosure *)
            let ds = symbolic_partial e v b in
            Interval.is_empty ds || Interval.mem d (widen ds))
        [ (0, "x"); (1, "y") ])

(* On a point box both partials are sound enclosures of the same
   derivative, so they must intersect. That is all two sound enclosures
   guarantee: ill-conditioned expressions round the two operation orders
   apart by far more than any fixed slack, and where the argument of an
   [abs] contains 0 its kink weighs the chain by [-1, 1], which the two
   factorizations of the chain rule spread differently (see the kink case
   below). *)
let prop_adjoint_matches_symbolic_at_point =
  qcheck ~count:300 "adjoint agrees with symbolic gradient on point boxes"
    ~print:(fun (e, px, py) ->
      Printf.sprintf "%s at x = %h, y = %h" (Printer.to_string e) px py)
    QCheck2.Gen.(tup3 expr_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (e, px, py) ->
      let b = box2 (px, px) (py, py) in
      let g = gradient_of e b in
      List.for_all
        (fun (i, v) ->
          let p = g.Itape.partials.(i) in
          let ds = symbolic_partial e v b in
          Interval.is_empty p || Interval.is_empty ds
          || not (Interval.is_empty (Interval.meet p ds)))
        [ (0, "x"); (1, "y") ])

(* At x = 0 the [abs] arguments below, 2x - atan x and x + atan x, enclose
   0, so the derivative of each [abs] is the kink hull K = [-1, 1]. The
   symbolic gradient is forward mode: each use of an [abs] weighs the
   derivative of its whole argument by K. The adjoint is reverse mode: it
   sums the weights of an [abs]'s uses first, then weighs each path into x
   separately. Neither contains the other in general. With one use of
   2x - atan x, subdistributivity makes the adjoint wider: K 2 + K (-1) =
   [-3, 3] against K (2 - 1) = [-1, 1]. With two uses of x + atan x whose
   weights nearly cancel (y - 1 at y = 0.5), the symbolic one is wider:
   y K 2 - K 2 = [-3, 3] against (y - 1) K 1 + (y - 1) K 1 = [-1, 1]. *)
let test_adjoint_abs_kink_at_point () =
  let b = box2 (0.0, 0.0) (0.5, 0.5) in
  let partial e = (gradient_of e b).Itape.partials.(0) in
  let around lo hi i =
    Interval.subset (iv lo hi) i && Interval.subset i (widen (iv lo hi))
  in
  let one_use = add (const (-32.0)) (abs (sub (mul two x) (atan x))) in
  let p = partial one_use and ds = symbolic_partial one_use "x" b in
  check_true "one use: symbolic [-1, 1] inside the adjoint [-3, 3]"
    (around (-1.0) 1.0 ds && around (-3.0) 3.0 p);
  let g = add x (atan x) in
  let two_uses = sub (mul (abs g) y) (abs g) in
  let p = partial two_uses and ds = symbolic_partial two_uses "x" b in
  check_true "two uses: the adjoint [-1, 1] inside the symbolic [-3, 3]"
    (around (-1.0) 1.0 p && around (-3.0) 3.0 ds)

(* ------------------------------------------------------------------ *)
(* The mean-value contractor on the tape *)

let test_mvf_newton_step () =
  (* 2x - 1 <= 0 on [0.4, 0.6]: the linear solve cuts at x = 0.5 *)
  let prog = Itape.compile ~vars:[ "x" ] (Form.le (sub (mul two x) one)) in
  match Itape.contract_mvf prog (Box.make [ ("x", iv 0.4 0.6) ]) with
  | Itape.Infeasible -> Alcotest.fail "feasible"
  | Itape.Contracted b ->
      let xi = Box.get b "x" in
      check_true "upper bound near 0.5"
        (Interval.sup xi <= 0.5001 && Interval.sup xi >= 0.4999);
      check_close "lower bound kept" 0.4 (Interval.inf xi)

let test_mvf_infeasible () =
  (* x - x^2 + 1 in [1, 1.25] on [0.4, 0.6]: <= 0 is impossible *)
  let prog =
    Itape.compile ~vars:[ "x" ] (Form.le (add (sub x (sqr x)) one))
  in
  match Itape.contract_mvf prog (Box.make [ ("x", iv 0.4 0.6) ]) with
  | Itape.Infeasible -> ()
  | Itape.Contracted _ -> Alcotest.fail "should prove infeasible"

let test_straddling_gradient_contracts () =
  (* x^2 - 0.5 <= 0. On [0, 2] the gradient enclosure of 2x straddles zero
     (outward rounding pushes the lower bound just below 0), so relational
     division yields top: the dimension must survive as a sound no-op — the
     old mem-zero skip crashed through the same path by silently ignoring
     the dimension, and the point of div_rel is that both the no-op and the
     infeasibility sub-cases now fall out of one sound formula. Tree walk
     and tape must agree exactly. On [0.25, 2] the gradient is strictly
     positive and the same solve makes a genuine cut (true bound is
     sqrt(0.5) ~ 0.7071). *)
  let f = sub (sqr x) (const 0.5) in
  let tree b =
    Tree_oracle.Taylor.contract
      (Tree_oracle.Taylor.prepare ~vars:[ "x" ] (Form.le f))
      b
  in
  let tape b =
    match Itape.contract_mvf (Itape.compile ~vars:[ "x" ] (Form.le f)) b with
    | Itape.Infeasible -> Hc4.Infeasible
    | Itape.Contracted b' -> Hc4.Contracted b'
  in
  let straddle = Box.make [ ("x", iv 0.0 2.0) ] in
  (match (tree straddle, tape straddle) with
  | Hc4.Contracted bt, Hc4.Contracted bv ->
      check_true "straddle: keeps sqrt(0.5)"
        (Interval.mem (Float.sqrt 0.5) (Box.get bt "x"));
      check_true "straddle: keeps 0" (Interval.mem 0.0 (Box.get bt "x"));
      check_true "straddle: tree and tape agree" (Box.equal bt bv)
  | _ -> Alcotest.fail "straddle: must stay feasible");
  let offset = Box.make [ ("x", iv 0.25 2.0) ] in
  let check_cut label = function
    | Hc4.Infeasible -> Alcotest.failf "%s: feasible" label
    | Hc4.Contracted b ->
        let xi = Box.get b "x" in
        check_true (label ^ ": cut below 0.95") (Interval.sup xi <= 0.95);
        check_true (label ^ ": keeps sqrt(0.5)")
          (Interval.mem (Float.sqrt 0.5) xi)
  in
  check_cut "tree walk" (tree offset);
  check_cut "tape" (tape offset)

let prop_mvf_soundness =
  qcheck "contract_mvf never loses certified solutions"
    QCheck2.Gen.(tup3 expr_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (e, px, py) ->
      let atom = Form.le e in
      let prog = Itape.compile ~vars:[ "x"; "y" ] atom in
      let unit_box = box2 (0.0, 1.0) (0.0, 1.0) in
      let point = [ ("x", px); ("y", py) ] in
      let env = List.map (fun (v, q) -> (v, Interval.point q)) point in
      let i = Ieval.eval env e in
      if (not (Interval.is_empty i)) && Interval.certainly_lt i 0.0 then
        match Itape.contract_mvf prog unit_box with
        | Itape.Infeasible -> false
        | Itape.Contracted b -> Box.mem point b
      else true)

(* ------------------------------------------------------------------ *)
(* The mean-value stage's midpoint replay skip *)

(* [contract_mvf] on [box], checked bit for bit against the reference that
   always replays f(m), and whether it skipped the replay. *)
let mvf_skip label atom box =
  let prog = Itape.compile ~vars:(Box.vars box) atom in
  let before = Test_itape.replays_skipped () in
  let got = Itape.contract_mvf prog box in
  let skipped = Test_itape.replays_skipped () - before in
  check_true (label ^ ": same answer as the replay-always reference")
    (Test_itape.same_bits (Tree_oracle.Mvf_replay.contract prog atom box) got);
  (got, skipped = 1)

let check_kept label box = function
  | Itape.Contracted b -> check_true (label ^ ": box kept") (Box.equal b box)
  | Itape.Infeasible -> Alcotest.failf "%s: must stay feasible" label

let test_mvf_skip_eq () =
  (* x^2 + y^2 - 1 = 0 on [-2, 2]^2: the partials 2x, 2y straddle 0,
     F = [-1, 7] is bounded, and with terms of [-8, 8] each the sum from
     F.lo reaches 0 from below while the one from F.hi reaches it from
     above: skipped. *)
  let b = box2 (-2.0, 2.0) (-2.0, 2.0) in
  let got, skipped =
    mvf_skip "x^2 + y^2 = 1" (Form.eq (sub (add (sqr x) (sqr y)) one)) b
  in
  check_true "x^2 + y^2 = 1: replay skipped" skipped;
  check_kept "x^2 + y^2 = 1" b got;
  (* x^2 + y^2 + 1 = 0 on [-0.1, 0.1]^2: F = [1, 1.02]; the sum from F.lo
     reaches 0 but the one from F.hi does not, so the replay runs and
     proves the atom infeasible from f(m) = 1. *)
  let got, skipped =
    mvf_skip "x^2 + y^2 + 1 = 0"
      (Form.eq (add (add (sqr x) (sqr y)) one))
      (box2 (-0.1, 0.1) (-0.1, 0.1))
  in
  check_false "x^2 + y^2 + 1 = 0: replayed" skipped;
  check_true "x^2 + y^2 + 1 = 0: infeasible" (got = Itape.Infeasible)

let test_mvf_skip_unbounded_root () =
  (* exp(x^2 + y^2) - 2 >= 0 on [-30, 30]^2: the partials straddle 0 and
     the sum from F.lo = -1 meets the target, but F's upper bound is +inf:
     the replay must run. *)
  let b = box2 (-30.0, 30.0) (-30.0, 30.0) in
  let got, skipped =
    mvf_skip "exp(x^2 + y^2) >= 2"
      (Form.ge (sub (exp (add (sqr x) (sqr y))) two))
      b
  in
  check_false "unbounded F: replayed" skipped;
  check_kept "unbounded F" b got

let test_mvf_skip_replay_proves_infeasible () =
  (* x^2 + y^2 + 1 <= 0 on [-0.1, 0.1]^2: both partials straddle 0, but the
     sum from F.hi = 1.02 stays above 0, so the replay runs and proves
     Infeasible from f(m) = 1. *)
  let got, skipped =
    mvf_skip "x^2 + y^2 + 1 <= 0"
      (Form.le (add (add (sqr x) (sqr y)) one))
      (box2 (-0.1, 0.1) (-0.1, 0.1))
  in
  check_false "all straddle, sum misses: replayed" skipped;
  check_true "all straddle, sum misses: infeasible" (got = Itape.Infeasible)

let test_mvf_skip_midpoint_outside_domain () =
  (* sqrt(x^2 - 1) >= 1/2 on [-2, 2]: the midpoint 0 is outside the
     domain, so f(m) is empty and a replay keeps the box; the partial
     straddles 0 and F = [-1/2, sqrt 3 - 1/2] is bounded, so the skip
     fires and keeps it too. *)
  let b = Box.make [ ("x", iv (-2.0) 2.0) ] in
  let got, skipped =
    mvf_skip "sqrt(x^2 - 1) >= 1/2"
      (Form.ge (sub (sqrt (sub (sqr x) one)) (const 0.5)))
      b
  in
  check_true "midpoint outside the domain: replay skipped" skipped;
  check_kept "midpoint outside the domain" b got

(* ------------------------------------------------------------------ *)
(* Smear splitting primitives *)

let test_smear_dim_follows_gradient () =
  (* equal widths, so widest_dim cannot discriminate: the smear scores
     must route the split to the steep dimension, whichever it is *)
  let b = box2 (0.0, 1.0) (0.0, 1.0) in
  let scores_for e =
    let g = gradient_of e b in
    Array.mapi
      (fun i p -> Interval.mag p *. Interval.width (Box.get_idx b i))
      g.Itape.partials
  in
  let steep_x = scores_for (add (mul (const 10.0) x) y) in
  Alcotest.(check int) "steep x picks dim 0" 0 (Box.smear_dim b ~scores:steep_x);
  let steep_y = scores_for (add x (mul (const 10.0) y)) in
  Alcotest.(check int) "steep y picks dim 1" 1 (Box.smear_dim b ~scores:steep_y)

let test_smear_dim_fallback () =
  let b = box2 (0.0, 1.0) (0.0, 2.0) in
  Alcotest.(check int) "all-zero scores fall back to widest"
    (Box.widest_dim b)
    (Box.smear_dim b ~scores:[| 0.0; 0.0 |]);
  Alcotest.(check int) "NaN scores fall back to widest" (Box.widest_dim b)
    (Box.smear_dim b ~scores:[| Float.nan; Float.nan |])

let test_midpoint_box () =
  let b = box2 (0.0, 1.0) (2.0, 4.0) in
  let m = Box.midpoint_box b in
  check_close "x midpoint" 0.5 (Interval.inf (Box.get m "x"));
  check_close "x is a point" 0.5 (Interval.sup (Box.get m "x"));
  check_close "y midpoint" 3.0 (Interval.inf (Box.get m "y"));
  Alcotest.(check (list string)) "same variable order" (Box.vars b)
    (Box.vars m)

(* ------------------------------------------------------------------ *)
(* Smear vs widest on real pairs: same verdict class, deterministic logs *)

let pair_config ~split_heuristic ~workers =
  {
    Verify.default_config with
    threshold = 0.4;
    solver =
      {
        Icp.default_config with
        fuel = 200;
        delta = 1e-2;
        contractor_rounds = 2;
      };
    workers;
    split_heuristic;
  }

let test_verdict_class_equivalence () =
  List.iter
    (fun (dfa, cond) ->
      let classify split_heuristic =
        match
          Verify.run_pair
            ~config:(pair_config ~split_heuristic ~workers:test_workers)
            (Registry.find dfa) cond
        with
        | Some o -> Outcome.classify o
        | None -> Alcotest.failf "%s must be applicable" dfa
      in
      let w = classify `Widest and s = classify `Smear in
      check_true
        (Printf.sprintf "%s/%s: smear and widest agree on the class (%s vs %s)"
           dfa (Conditions.name cond)
           (Outcome.classification_symbol w)
           (Outcome.classification_symbol s))
        (w = s))
    [
      ("pbe", Conditions.Ec1);
      ("pbe", Conditions.Ec7);
      ("lyp", Conditions.Ec1);
    ]

let normalized o =
  Serialize.to_string { o with Outcome.stats = Outcome.zero_stats }

let test_smear_paint_log_determinism () =
  let run workers =
    match
      Verify.run_pair
        ~config:(pair_config ~split_heuristic:`Smear ~workers)
        (Registry.find "pbe") Conditions.Ec1
    with
    | Some o -> normalized o
    | None -> Alcotest.fail "PBE/EC1 must be applicable"
  in
  let reference = run 1 in
  Alcotest.(check string) "smear paint log byte-identical (workers=4)"
    reference (run 4)

let suite =
  [
    prop_adjoint_contains_dual;
    prop_adjoint_matches_symbolic_at_point;
    case "adjoint and symbolic gradient at an abs kink"
      test_adjoint_abs_kink_at_point;
    case "mvf newton-like contraction" test_mvf_newton_step;
    case "mvf proves infeasibility" test_mvf_infeasible;
    case "straddling gradient still contracts" test_straddling_gradient_contracts;
    prop_mvf_soundness;
    case "mvf replay skip on an = atom" test_mvf_skip_eq;
    case "mvf replay runs when F is unbounded" test_mvf_skip_unbounded_root;
    case "mvf replay still proves infeasibility"
      test_mvf_skip_replay_proves_infeasible;
    case "mvf replay skip with the midpoint outside the domain"
      test_mvf_skip_midpoint_outside_domain;
    case "smear_dim follows the gradient" test_smear_dim_follows_gradient;
    case "smear_dim fallback to widest" test_smear_dim_fallback;
    case "midpoint_box" test_midpoint_box;
    case "smear vs widest verdict classes" test_verdict_class_equivalence;
    case "smear paint log determinism" test_smear_paint_log_determinism;
  ]
