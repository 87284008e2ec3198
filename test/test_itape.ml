open Testutil

(* The interval-tape VM (Itape / Hc4.contract_tape) and the soundness fixes
   that ride with it.

   The headline property is bit-identity: the compiled tape must reproduce
   the tree-walking HC4 revise of Tree_oracle operation for operation, so
   verdicts, boxes and paint logs are byte-identical to the tree walker's
   at every worker count. The regression
   cases pin the zero-divisor, Lambert-W fallback, huge-argument trig and
   zero-progress split fixes, each of which failed before this change. *)

(* ------------------------------------------------------------------ *)
(* Generators *)

(* Intervals over a mix of magnitudes, biased toward the degenerate and
   zero-containing shapes the zero-divisor bug lives on. *)
let interval_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun a b -> Interval.make (Float.min a b) (Float.max a b))
          (float_range (-3.0) 3.0) (float_range (-3.0) 3.0);
        return (Interval.point 0.0);
        map (fun x -> Interval.point x) (float_range (-2.0) 2.0);
        map (fun x -> Interval.make 0.0 x) (float_range 0.0 2.0);
      ])

let box_gen =
  QCheck2.Gen.(
    map2
      (fun ix iy -> Box.make [ ("x", ix); ("y", iy) ])
      interval_gen interval_gen)

let rel_gen =
  QCheck2.Gen.oneofl [ Form.Le0; Form.Lt0; Form.Ge0; Form.Gt0; Form.Eq0 ]

(* Products of the shapes the tape plans differently (Itape's [plan]): 3
   to 5 factors, with and without a leading constant; c x; c k x and a
   constant-valued factor between two variable ones, k = W(a) for a
   constant a; and a single factor. Expr folds numeric constants into one
   leading factor and unwraps a single factor, so a tape constant only
   ever leads a product, and k — constant-valued but not a tape constant,
   as W does not fold — stands in for the second constant and for the one
   in a middle position. Expr orders the other factors by creation, so a
   factor made after k follows it. *)
let product_gen =
  QCheck2.Gen.(
    let factor =
      oneof [ expr_gen; return (Expr.var "x"); return (Expr.var "y") ]
    in
    let c = map Expr.const (float_range (-4.0) 4.0) in
    let k = map (fun a -> Expr.lambert_w (Expr.const a)) (float_range 0.0 2.0) in
    oneof
      [
        map Expr.mul_n (list_size (int_range 3 5) factor);
        map2 (fun c fs -> Expr.mul_n (c :: fs)) c
          (list_size (int_range 2 4) factor);
        map2 Expr.mul c factor;
        map3 (fun c k x -> Expr.mul_n [ c; k; x ]) c k factor;
        map3
          (fun k a c ->
            Expr.mul_n
              [ c; Expr.var "x"; k; Expr.exp (Expr.mul (Expr.const a) (Expr.var "y")) ])
          k (float_range 0.5 1.5)
          (oneof [ c; return Expr.one ]);
        map (fun e -> Expr.mul_n [ e ]) factor;
      ])

(* expr_gen plus piecewise roots, so the tape's guard-pruned branch walk is
   exercised (the plain generator never emits Piecewise), roots that
   clip their argument to a domain: non-integer powers and W, and the
   products of product_gen, alone and inside a sum. *)
let atom_expr_gen =
  QCheck2.Gen.(
    let pw =
      map3
        (fun g b d ->
          Expr.piecewise [ (Expr.guard_le g, b) ] d)
        expr_gen expr_gen expr_gen
    in
    let pw2 =
      map3
        (fun g1 (g2, b2) d ->
          Expr.piecewise
            [ (Expr.guard_lt g1, Expr.sin g1); (Expr.guard_le g2, b2) ]
            d)
        expr_gen
        (pair expr_gen expr_gen)
        expr_gen
    in
    let clipped =
      map2
        (fun e k ->
          match k with
          | 0 -> Expr.sqrt e
          | 1 -> Expr.powr e (Rat.make (-1) 3)
          | 2 -> Expr.add (Expr.powr e (Rat.make 3 2)) (Expr.var "y")
          | _ -> Expr.lambert_w e)
        expr_gen (int_range 0 3)
    in
    frequency
      [
        (4, expr_gen);
        (1, pw);
        (1, pw2);
        (1, clipped);
        (1, product_gen);
        (1, map2 Expr.add product_gen expr_gen);
      ])

let atom_gen =
  QCheck2.Gen.map2 (fun e rel -> Form.atom e rel) atom_expr_gen rel_gen

(* ------------------------------------------------------------------ *)
(* Equivalence: tape revise = tree revise, bit for bit *)

let same_result a b =
  match (a, b) with
  | Hc4.Infeasible, Hc4.Infeasible -> true
  | Hc4.Contracted b1, Hc4.Contracted b2 -> Box.equal b1 b2
  | _ -> false

let prop_revise_equiv =
  qcheck ~count:500 "tape revise = tree revise"
    QCheck2.Gen.(pair atom_gen box_gen)
    (fun (atom, box) ->
      let tape = Itape.compile ~vars:(Box.vars box) atom in
      same_result (Tree_oracle.revise box atom) (Itape.revise tape box))

let prop_contract_equiv =
  qcheck ~count:200 "contract_tape = contract (result and sweeps)"
    QCheck2.Gen.(
      triple (list_size (int_range 1 3) atom_gen) box_gen (int_range 1 4))
    (fun (formula, box, rounds) ->
      let tree_c = Hc4.counters () and tape_c = Hc4.counters () in
      let compiled = Hc4.compile ~vars:(Box.vars box) formula in
      let tree = Tree_oracle.contract ~counters:tree_c box formula ~rounds in
      let tape = Hc4.contract_tape ~counters:tape_c compiled box ~rounds in
      same_result tree tape
      && tree_c.Hc4.sweeps = tape_c.Hc4.sweeps
      && tape_c.Hc4.revise_calls <= tree_c.Hc4.revise_calls)

(* ------------------------------------------------------------------ *)
(* Soundness regression: multiplication by a zero factor *)

(* x * y = 0 with y = [0,0]: every x satisfies the atom, so revise must
   keep x untouched. Before div_rel, the Mul backward pass computed
   x's requirement as div [0,0] [0,0] = empty and declared the atom
   Infeasible — an unsound verdict (x = 1, y = 0 is a model). *)
let test_mul_by_zero_sound () =
  let atom = Form.eq (Expr.mul (Expr.var "x") (Expr.var "y")) in
  let box =
    Box.make [ ("x", Interval.make 1.0 2.0); ("y", Interval.point 0.0) ]
  in
  let check label = function
    | Hc4.Infeasible -> Alcotest.failf "%s: x*0 = 0 declared Infeasible" label
    | Hc4.Contracted b ->
        check_true (label ^ ": x untouched")
          (Interval.equal (Box.get b "x") (Interval.make 1.0 2.0));
        check_true (label ^ ": y untouched")
          (Interval.equal (Box.get b "y") (Interval.point 0.0))
  in
  check "tree" (Tree_oracle.revise box atom);
  let tape = Itape.compile ~vars:(Box.vars box) atom in
  check "tape" (Itape.revise tape box)

(* x * y = 1 with y = [0,0] really is infeasible (0 not in [1,1]); the fix
   must not weaken that direction. *)
let test_mul_by_zero_still_prunes () =
  let atom =
    Form.eq (Expr.sub (Expr.mul (Expr.var "x") (Expr.var "y")) (Expr.int 1))
  in
  let box =
    Box.make [ ("x", Interval.make 1.0 2.0); ("y", Interval.point 0.0) ]
  in
  check_true "tree prunes x*0 = 1"
    (Tree_oracle.revise box atom = Hc4.Infeasible);
  let tape = Itape.compile ~vars:(Box.vars box) atom in
  check_true "tape prunes x*0 = 1" (Itape.revise tape box = Hc4.Infeasible)

(* The relational division itself: when both arguments contain zero the
   projection { x | exists y in b, x*y in a } is the whole line, not the
   hull div computes; when only the divisor is zero it stays empty. *)
let test_div_rel () =
  let z = Interval.point 0.0 in
  check_true "0/0 relational = top"
    (Interval.equal (Interval.div_rel z z) Interval.top);
  check_true "straddling/straddling relational = top"
    (Interval.equal
       (Interval.div_rel (Interval.make (-1.0) 1.0) (Interval.make (-1.0) 1.0))
       Interval.top);
  check_true "nonzero/0 relational = empty"
    (Interval.is_empty (Interval.div_rel Interval.one z));
  check_true "0 not in numerator: div_rel agrees with div"
    (Interval.equal
       (Interval.div_rel (Interval.make 1.0 2.0) (Interval.make 1.0 4.0))
       (Interval.div (Interval.make 1.0 2.0) (Interval.make 1.0 4.0)))

(* ------------------------------------------------------------------ *)
(* Soundness regression: Lambert-W certified bounds under NaN *)

(* The kernel really does produce NaN just below the branch point on this
   libm — the seam the old code mapped to an upper bound of -1.0, turning
   an unknown value into an empty (infeasible) enclosure. The fallback must
   keep the enclosure valid: -1.0 is a sound *lower* bound (range of w0),
   but an unknown *upper* bound must widen to +inf. *)
let test_lambert_nan_fallback () =
  let i = Transcend.certified_w_bounds ~lo:0.5 ~hi:Float.nan in
  check_false "NaN upper certification keeps a nonempty enclosure"
    (Interval.is_empty i);
  check_close "lower bound kept" 0.5 (Interval.inf i);
  check_true "unknown upper bound widens to +inf"
    (Interval.sup i = Float.infinity);
  let j = Transcend.certified_w_bounds ~lo:Float.nan ~hi:2.0 in
  check_close "unknown lower bound falls back to -1 (range of w0)" (-1.0)
    (Interval.inf j);
  check_close "upper bound kept" 2.0 (Interval.sup j)

let test_lambert_kernel_nan_evidence () =
  (* Evidence that the seam is live: the float kernel NaNs immediately below
     the branch point -1/e, which is where certify_hi's probes can land. *)
  let branch_point = -.Float.exp (-1.0) in
  check_true "w0 NaNs just below the branch point"
    (Float.is_nan (Lambert.w0 (Float.pred branch_point)));
  (* and the interval operator stays sound across the branch point *)
  let i = Transcend.lambert_w (Interval.make (-1.0) 0.0) in
  check_false "lambert_w enclosure nonempty" (Interval.is_empty i);
  check_true "contains w0(0) = 0" (Interval.mem 0.0 i)

(* ------------------------------------------------------------------ *)
(* Soundness regression: trig of huge arguments *)

(* cos changes sign between these two adjacent floats near 2^42 (checked in
   the guard), so sin attains 1... wait, sin attains its extremum where cos
   crosses zero downward — the true maximum of sin on [a, b] is 1 up to the
   enclosure's rounding. The old endpoint-plus-slack estimate returned an
   upper bound of ~0.99999997, excluding the true maximum. The legacy
   implementation escapes to the trivially sound [-1, 1] beyond 2^20; the
   certified reduction keeps a nontrivial enclosure that still contains
   the maximum. *)
let test_trig_huge_argument_sound () =
  let a = 0x1.921fb5446f318p+42 in
  let b = Float.succ a in
  (* the deterministic witness: a true local maximum of sin inside [a,b] *)
  check_true "cos sign change brackets a maximum of sin"
    (Stdlib.cos a > 0.0 && Stdlib.cos b < 0.0);
  let s = Transcend.sin (Interval.make a b) in
  check_true "sin enclosure of huge args contains the true maximum 1"
    (Interval.mem 1.0 s);
  check_true "argument is beyond the legacy trust cutoff"
    (Interval.mag (Interval.make a b) > Transcend.Legacy.trig_arg_cutoff);
  check_true "certified reduction keeps the enclosure nontrivial"
    (Interval.width s < 2.0)

let test_trig_small_argument_still_tight () =
  (* The cutoff must not cost precision where the reconstruction is safe. *)
  let i = Transcend.sin (Interval.make 0.1 0.2) in
  check_true "still tight below the cutoff" (Interval.sup i < 0.21);
  check_true "sound" (Interval.mem (Stdlib.sin 0.15) i);
  let c = Transcend.cos (Interval.make 1000.0 1000.1) in
  check_true "cos tight at moderate magnitude" (Interval.width c < 0.2);
  check_true "cos sound at moderate magnitude"
    (Interval.mem (Stdlib.cos 1000.05) c)

(* ------------------------------------------------------------------ *)
(* Regression: zero-progress splits *)

let test_split_progress () =
  (* One float strictly inside: both children strictly narrower. *)
  let lo = 1.0 in
  let hi = Float.succ (Float.succ lo) in
  let l, r = Interval.split (Interval.make lo hi) in
  check_true "left strictly narrower" (Interval.sup l < hi);
  check_true "right strictly narrower" (Interval.inf r > lo);
  check_true "children cover" (Interval.sup l = Interval.inf r);
  (* No float strictly inside: split must refuse, not loop. *)
  (match Interval.split (Interval.make lo (Float.succ lo)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "split of an ulp-wide interval must raise");
  (* The midpoint nudge: a heavily skewed interval whose float midpoint
     collapses onto an endpoint must still make progress. *)
  let i = Interval.make (-1e308) 1e308 in
  let l, r = Interval.split i in
  check_true "huge interval splits"
    (Interval.width l < Interval.width i && Interval.width r < Interval.width i)

let prop_split_progress =
  qcheck ~count:300 "split always makes progress or raises"
    QCheck2.Gen.(
      map2
        (fun a b -> (Float.min a b, Float.max a b))
        finite_float_gen finite_float_gen)
    (fun (lo, hi) ->
      if not (lo < hi) then true
      else
        match Interval.split (Interval.make lo hi) with
        | l, r ->
            Interval.inf l = lo && Interval.sup r = hi
            && Interval.sup l = Interval.inf r
            && Interval.sup l > lo && Interval.sup l < hi
        | exception Invalid_argument _ ->
            (* only legal when no float lies strictly between *)
            Float.succ lo >= hi)

(* ------------------------------------------------------------------ *)
(* Bit-for-bit comparison *)

let bits_equal_iv a b =
  Int64.equal
    (Int64.bits_of_float (Interval.inf a))
    (Int64.bits_of_float (Interval.inf b))
  && Int64.equal
       (Int64.bits_of_float (Interval.sup a))
       (Int64.bits_of_float (Interval.sup b))

let bits_equal_box a b =
  List.for_all2 bits_equal_iv
    (Array.to_list (Box.intervals a))
    (Array.to_list (Box.intervals b))

let flip_zero_signs box =
  let flip x = if x = 0.0 then -.x else x in
  Box.make
    (List.map
       (fun v ->
         let iv = Box.get box v in
         (v, Interval.make (flip (Interval.inf iv)) (flip (Interval.sup iv))))
       (Box.vars box))

let same_bits a b =
  match (a, b) with
  | Itape.Infeasible, Itape.Infeasible -> true
  | Itape.Contracted x, Itape.Contracted y -> bits_equal_box x y
  | _ -> false

let skip_matches_tree box atom =
  let tape = Itape.compile ~vars:(Box.vars box) atom in
  same_bits (Tree_oracle.revise box atom) (Itape.revise tape box)
  && same_bits
       (Tree_oracle.revise (flip_zero_signs box) atom)
       (Itape.revise tape (flip_zero_signs box))

(* ------------------------------------------------------------------ *)
(* Differential oracle: tape vs tree vs point evaluation.

   Three independent evaluators of the same atom must agree: the compiled
   tape's forward pass (Itape.eval / status_on), the tree walk
   (Ieval.eval / Tree_oracle.status_on), and point evaluation at the box midpoint
   (Eval.eval, with Dual.eval's value track as a fourth witness). Interval
   comparisons are exact — the tape is operation-identical to the tree —
   while the float-in-enclosure check allows point-evaluation roundoff. *)

let prop_status_eval_equiv =
  qcheck ~count:300 "tape eval/status_on = tree walk on random atoms"
    QCheck2.Gen.(pair atom_gen box_gen)
    (fun (atom, box) ->
      let tape = Itape.compile ~vars:(Box.vars box) atom in
      Interval.equal
        (Ieval.eval (Box.to_env box) atom.Form.expr)
        (Itape.eval tape box)
      && Itape.status_on tape box = Tree_oracle.status_on box atom)

(* Random sub-box of a problem domain: shrink every dimension by two
   uniform cut points (kept ordered, so rounding cannot cross the ends). *)
let subbox_gen domain =
  QCheck2.Gen.(
    let shrink iv =
      map2
        (fun a b ->
          let a, b = if a <= b then (a, b) else (b, a) in
          let lo = Interval.inf iv and w = Interval.width iv in
          Interval.make (lo +. (a *. w)) (lo +. (b *. w)))
        (float_range 0.0 1.0) (float_range 0.0 1.0)
    in
    map
      (fun ivs -> Box.make (List.combine (Box.vars domain) ivs))
      (flatten_l
         (List.map (fun v -> shrink (Box.get domain v)) (Box.vars domain))))

let table1_problems = Encoder.encode_all Registry.paper_five

let prop_registry_differential_oracle =
  qcheck ~count:200 "registry differential oracle: tape = tree = point"
    QCheck2.Gen.(
      oneofl table1_problems >>= fun p ->
      map (fun b -> (p, b)) (subbox_gen p.Encoder.domain))
    (fun (p, box) ->
      let atom = p.Encoder.psi in
      let tape = Itape.compile ~vars:(Box.vars box) atom in
      let enc = Itape.eval tape box in
      let env = Box.midpoint box in
      let v = Eval.eval env atom.Form.expr in
      let dual = Dual.eval env ~wrt:(List.hd (Box.vars box)) atom.Form.expr in
      let slack = 1e-9 *. (1.0 +. Float.abs v) in
      (* the tape's enclosure and certainty test match the tree walk *)
      Interval.equal (Ieval.eval (Box.to_env box) atom.Form.expr) enc
      && Itape.status_on tape box = Tree_oracle.status_on box atom
      (* revise, with the backward rules it skips, matches the tree's
         revise running every rule, bit for bit *)
      && skip_matches_tree box atom
      (* dual's value track is the float evaluator, operation for operation *)
      && (dual.Dual.v = v || (Float.is_nan dual.Dual.v && Float.is_nan v))
      (* the midpoint value lies in the interval enclosure, up to point
         roundoff relative to its own magnitude *)
      && (Float.is_nan v
         || (v >= Interval.inf enc -. slack && v <= Interval.sup enc +. slack))
      (* a decided interval status agrees with the paper's float spot check,
         away from the decision boundary *)
      && (match Itape.status_on tape box with
         | `Unknown -> true
         | (`Holds | `Fails) when Float.is_nan v || Float.abs v <= slack ->
             true
         | `Holds -> Form.holds_at env atom
         | `Fails -> not (Form.holds_at env atom)))

(* ------------------------------------------------------------------ *)
(* Mean-value stage: skipping the midpoint replay changes no answer *)

(* Itape.contract_mvf skips its midpoint replay where every partial
   strictly straddles 0, the box sweep's root is bounded and the mean-value
   sum from the root's inner endpoint still meets the target. It must
   answer bit for bit as Tree_oracle.Mvf_replay, which always replays. *)

let replays_skipped () =
  match
    List.assoc_opt "itape.mvf_replays_skipped"
      (Obs.Metrics.snapshot ()).Obs.Metrics.counters
  with
  | Some n -> n
  | None -> 0

let mvf_matches_replay (atom : Form.atom) box =
  let prog = Itape.compile ~vars:(Box.vars box) atom in
  same_bits (Tree_oracle.Mvf_replay.contract prog atom box)
    (Itape.contract_mvf prog box)

(* interval_gen plus infinite bounds and zero bounds of either sign *)
let edge_interval_gen =
  QCheck2.Gen.(
    let bound =
      oneof
        [
          oneofl [ Float.neg_infinity; -0.0; 0.0; Float.infinity ];
          float_range (-3.0) 3.0;
        ]
    in
    oneof
      [
        interval_gen;
        map2
          (fun a b -> Interval.make (Float.min a b) (Float.max a b))
          bound bound;
      ])

let edge_box_gen =
  QCheck2.Gen.(
    map2
      (fun ix iy -> Box.make [ ("x", ix); ("y", iy) ])
      edge_interval_gen edge_interval_gen)

(* atom_gen's roots, and the same roots pushed past overflow: a root whose
   box sweep is [inf, inf] or [-inf, -inf] over finite partials. exp 800
   folds to the constant inf, so a shift that folds to a NaN constant
   (inf - inf) is left out. *)
let mvf_atom_gen =
  QCheck2.Gen.(
    let huge = Expr.exp (Expr.int 800) in
    let no_nan_const e =
      Expr.fold_dag
        (fun n ok ->
          ok
          &&
          match Expr.as_const n with
          | Some c -> not (Float.is_nan c)
          | None -> true)
        e true
    in
    map2
      (fun (e, k) rel ->
        let shifted =
          match k with
          | 0 -> Expr.add e huge
          | 1 -> Expr.sub e huge
          | _ -> e
        in
        Form.atom (if no_nan_const shifted then shifted else e) rel)
      (pair atom_expr_gen (int_range 0 5))
      rel_gen)

(* Bowls s ((x - a)^2 + (y - b)^2) + t w^2 on the box of half-width w
   around (a, b): every partial strictly straddles 0, the natural
   enclosure is wider than f(m) on one side, and the mean-value sum meets
   or misses the target near t = -4 and t = -6 (and their negatives), so
   both the skip and a replay that proves Infeasible are common. *)
let bowl_gen =
  QCheck2.Gen.(
    map3
      (fun (a, b, w) (s, t) rel ->
        let sq v c = Expr.sqr (Expr.sub (Expr.var v) (Expr.const c)) in
        let e =
          Expr.add
            (Expr.mul (Expr.const s) (Expr.add (sq "x" a) (sq "y" b)))
            (Expr.const (t *. w *. w))
        in
        let side c = Interval.make (c -. w) (c +. w) in
        (Form.atom e rel, Box.make [ ("x", side a); ("y", side b) ]))
      (triple (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)
         (float_range 1e-3 1.0))
      (pair (oneofl [ 1.0; -1.0 ]) (float_range (-8.0) 8.0))
      rel_gen)

let prop_mvf_skip_equiv =
  qcheck ~count:1000 "contract_mvf = replay-always reference, bit for bit"
    QCheck2.Gen.(oneof [ pair mvf_atom_gen edge_box_gen; bowl_gen ])
    (fun (atom, box) ->
      mvf_matches_replay atom box
      && mvf_matches_replay atom (flip_zero_signs box))

let table1_subbox_gen =
  QCheck2.Gen.(
    oneofl table1_problems >>= fun p ->
    map (fun b -> (p.Encoder.psi, b)) (subbox_gen p.Encoder.domain))

let prop_mvf_skip_equiv_table1 =
  qcheck ~count:300
    "contract_mvf = replay-always reference on Table I sub-boxes"
    table1_subbox_gen
    (fun (atom, box) -> mvf_matches_replay atom box)

(* The two properties above hold vacuously if the skip never fires, or if
   it always does: on a fixed sample of Table I sub-boxes it must do both. *)
let test_mvf_skip_exercised () =
  let sample =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 22 |]) ~n:200
      table1_subbox_gen
  in
  let before = replays_skipped () in
  List.iter
    (fun (atom, box) ->
      check_true "contract_mvf = replay-always reference"
        (mvf_matches_replay atom box))
    sample;
  let skipped = replays_skipped () - before in
  if skipped = 0 || skipped >= List.length sample then
    Alcotest.failf "the replay was skipped on %d of %d sub-boxes" skipped
      (List.length sample)

(* ------------------------------------------------------------------ *)
(* Adjoint sweep: eval_gradient = the unplanned reference, bit for bit *)

(* Itape.eval_gradient reads a product's prefixes from the forward sweep
   and its plan and builds only the suffixes its non-constant operands
   read; Tree_oracle.Adjoint forms every cofactor from [1, 1] by the
   generic prefix/suffix folds. Values, partials and the decided flag
   must agree bit for bit, signed zeros included. *)

let same_gradient (g : Itape.gradient) (h : Itape.gradient) =
  bits_equal_iv g.value h.value
  && g.decided = h.decided
  && List.for_all2 bits_equal_iv (Array.to_list g.partials)
       (Array.to_list h.partials)

let gradient_matches_oracle (atom : Form.atom) box =
  let prog = Itape.compile ~vars:(Box.vars box) atom in
  same_gradient
    (Tree_oracle.Adjoint.eval_gradient prog box)
    (Itape.eval_gradient prog box)

let prop_gradient_oracle =
  qcheck ~count:500 "eval_gradient = adjoint oracle, bit for bit"
    QCheck2.Gen.(pair atom_gen (oneof [ box_gen; edge_box_gen ]))
    (fun (atom, box) ->
      gradient_matches_oracle atom box
      && gradient_matches_oracle atom (flip_zero_signs box))

let prop_gradient_oracle_table1 =
  qcheck ~count:200 "eval_gradient = adjoint oracle on Table I sub-boxes"
    table1_subbox_gen
    (fun (atom, box) -> gradient_matches_oracle atom box)

(* ------------------------------------------------------------------ *)
(* Paint-log identity on a real campaign pair.

   The fixture is the normalized PBE/EC1 paint log of the tree-walking
   engine under exactly this config, recorded when the solver still had a
   tree-walk path (Verify.config.use_tape = false). Matching it at 1 and 4
   workers keeps "byte-identical to the tree walker" checked evidence. *)

let paint_fixture = "fixtures/pbe_ec1_tree_paint.sexp"

let campaign_config ~workers =
  {
    Verify.default_config with
    threshold = 0.4;
    solver =
      {
        Icp.default_config with
        fuel = 60;
        delta = 1e-2;
        contractor_rounds = 2;
        faults = None;
      };
    workers;
    use_taylor = false;
  }

let normalized o = Serialize.to_string { o with Outcome.stats = Outcome.zero_stats }

let test_paint_log_matches_tree_fixture () =
  let run ~workers =
    match
      Verify.run_pair ~config:(campaign_config ~workers) (Registry.find "pbe")
        Conditions.Ec1
    with
    | Some o -> normalized o
    | None -> Alcotest.fail "PBE/EC1 must be applicable"
  in
  let reference =
    String.trim (In_channel.with_open_bin paint_fixture In_channel.input_all)
  in
  Alcotest.(check string) "tape paint log = tree fixture (workers=1)"
    reference (run ~workers:1);
  Alcotest.(check string) "tape paint log = tree fixture (workers=4)"
    reference (run ~workers:4)

(* The tape is the only engine: a config asking for the removed tree-walk
   path is refused up front rather than silently run on the tape. *)
let test_tree_walk_config_refused () =
  let config = { (campaign_config ~workers:1) with use_tape = false } in
  let refused label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: use_tape = false must be refused" label
  in
  refused "run_pair" (fun () ->
      ignore (Verify.run_pair ~config (Registry.find "pbe") Conditions.Ec1));
  refused "campaign" (fun () ->
      ignore (Verify.campaign ~config [ Registry.find "pbe" ]))

(* ------------------------------------------------------------------ *)
(* Reuse of the forward registers *)

(* A domain's forward registers keep their last sweep, and a call on the
   same program and the same slot bounds reuses it. Random call sequences
   over two programs and a pool of boxes — each box next to a copy with
   every zero bound's sign flipped, which Interval.equal cannot tell
   apart but a sweep can (x itself, abs x) — must answer bit for bit as
   the same calls each made in a fresh domain. *)

(* A select whose guard alone reads x: a sweep after a change of x only
   must still recompute it. *)
let guard_only_x =
  let y = Expr.var "y" in
  Expr.piecewise [ (Expr.guard_le (Expr.var "x"), y) ] (Expr.neg y)

(* W(1) does not fold: a register that reads no slot but is no constant,
   which a full sweep must write although no slot change reaches it. *)
let x_plus_w1 = Expr.add (Expr.var "x") (Expr.lambert_w (Expr.int 1))

(* What a sweep must recompute: a register that reads no slot on a full
   sweep, and a select whose guard alone reads the changed slot on a
   partial one. *)
let test_sweeps_reach_dependents () =
  let box =
    Box.make [ ("x", Interval.make (-1.0) 1.0); ("y", Interval.make 0.5 1.5) ]
  in
  let box_x = Box.set box "x" (Interval.make (-2.0) (-1.0)) in
  let same label e b =
    let tape = Itape.compile ~vars:(Box.vars box) (Form.atom e Form.Ge0) in
    ignore (Itape.eval tape box);
    check_true label
      (bits_equal_iv (Ieval.eval (Box.to_env b) e) (Itape.eval tape b))
  in
  same "x + W(1) swept like the tree walk" x_plus_w1 box;
  same "select re-swept after a change of its guard's slot" guard_only_x box_x

let reuse_atom_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, atom_gen);
        (1, map (fun rel -> Form.atom (Expr.var "x") rel) rel_gen);
        (1, map (fun rel -> Form.atom (Expr.abs (Expr.var "y")) rel) rel_gen);
        (1, map (fun rel -> Form.atom guard_only_x rel) rel_gen);
        (1, map (fun rel -> Form.atom x_plus_w1 rel) rel_gen);
      ])

(* Neighbours of a box that share all but one slot with it, so that a
   call after a call on the box sweeps both register files partially: the
   two halves of a split of x, and y contracted from above. A point slot
   has no such neighbour and stands in for itself. *)
let neighbours box =
  let x = Box.get box "x" and y = Box.get box "y" in
  let halves =
    if Interval.is_point x then [ box; box ]
    else
      let l, r = Interval.split x in
      [ Box.set box "x" l; Box.set box "x" r ]
  in
  let contracted =
    if Interval.is_point y then box
    else
      Box.set box "y"
        (Interval.make (Interval.inf y)
           (Interval.inf y +. (0.75 *. Interval.width y)))
  in
  halves @ [ contracted ]

let call_gen = QCheck2.Gen.oneofl [ `Eval; `Status; `Revise; `Gradient; `Mvf ]

let run_call prog box = function
  | `Eval -> `Value (Itape.eval prog box)
  | `Status -> `Status (Itape.status_on prog box)
  | `Revise -> `Result (Itape.revise prog box)
  | `Gradient -> `Gradient (Itape.eval_gradient prog box)
  | `Mvf -> `Result (Itape.contract_mvf prog box)

let same_answer a b =
  match (a, b) with
  | `Value x, `Value y -> bits_equal_iv x y
  | `Status x, `Status y -> x = y
  | `Result Itape.Infeasible, `Result Itape.Infeasible -> true
  | `Result (Itape.Contracted x), `Result (Itape.Contracted y) ->
      bits_equal_box x y
  | `Gradient (g : Itape.gradient), `Gradient (h : Itape.gradient) ->
      bits_equal_iv g.value h.value
      && g.decided = h.decided
      && List.for_all2 bits_equal_iv (Array.to_list g.partials)
           (Array.to_list h.partials)
  | _ -> false

(* Two call pairs the random sequences below reach only by chance. First,
   a call after a call on [box] on a neighbour of it, which sweeps the box
   file (and, for [`Mvf], the midpoint file) partially: the products that
   read the changed slot rewrite their partial products, the others keep
   theirs. *)
let partial_then_reverse prog box =
  let nbs = neighbours box @ neighbours (flip_zero_signs box) in
  let calls = [ `Gradient; `Revise; `Mvf ] in
  let run () =
    List.concat_map
      (fun nb ->
        List.map
          (fun call ->
            ignore (Itape.eval prog box);
            run_call prog nb call)
          calls)
      nbs
  in
  let fresh =
    Domain.join
      (Domain.spawn (fun () ->
           List.concat_map
             (fun nb ->
               List.map
                 (fun call ->
                   Itape.forget ();
                   run_call prog nb call)
                 calls)
             nbs))
  in
  List.for_all2 same_answer (run ()) fresh

(* Second, a program with more partial products than the one before it
   in a fresh domain, which grows the partial-product buffers. *)
let lengthened (atom : Form.atom) =
  let x = Expr.var "x" and y = Expr.var "y" in
  Form.atom
    (Expr.add atom.expr
       (Expr.mul_n
          [ Expr.const 0.5; x; y; Expr.sin x; Expr.cos y; Expr.tanh x; Expr.atan y ]))
    atom.rel

let grown_buffer short long box =
  List.for_all
    (fun call ->
      let after_short () =
        ignore (run_call short box call);
        run_call long box call
      in
      same_answer
        (Domain.join (Domain.spawn after_short))
        (Domain.join (Domain.spawn (fun () -> run_call long box call))))
    [ `Eval; `Revise; `Gradient; `Mvf ]

let prop_forward_reuse =
  qcheck ~count:100 "reused forward sweeps = fresh-domain calls, bit for bit"
    QCheck2.Gen.(
      triple
        (pair reuse_atom_gen reuse_atom_gen)
        (list_size (return 2) box_gen)
        (list_size (int_range 1 16)
           (triple (int_range 0 1) (int_range 0 9) call_gen)))
    (fun ((a1, a2), boxes, calls) ->
      let vars = [ "x"; "y" ] in
      let progs = [| Itape.compile ~vars a1; Itape.compile ~vars a2 |] in
      let pool =
        Array.of_list
          (List.concat_map (fun b -> [ b; flip_zero_signs b ]) boxes
          @ neighbours (List.hd boxes)
          @ neighbours (flip_zero_signs (List.nth boxes 1)))
      in
      Itape.forget ();
      List.for_all
        (fun (p, b, call) ->
          let prog = progs.(p) and box = pool.(b) in
          let got = run_call prog box call in
          let fresh = Domain.join (Domain.spawn (fun () -> run_call prog box call)) in
          same_answer got fresh)
        calls
      && partial_then_reverse progs.(0) (List.hd boxes)
      && grown_buffer progs.(0) (Itape.compile ~vars (lengthened a1))
           (List.nth boxes 1))

(* ------------------------------------------------------------------ *)
(* Sparse backward: skipped rules change no register *)

(* Itape.revise does not run the backward rule of a register whose
   requirement is still its own bounded forward value, when the rule is in
   the program's skip mask. The tree walker runs every rule, so revise must
   match it bit for bit — signed zeros included — wherever a rule is
   skipped, next to the same box with its zero bounds' signs flipped. The
   registry differential oracle checks this on cut-down Table I domains;
   here the whole domains and the rules a skip must not cover. *)

let test_skip_table1_domains () =
  List.iter
    (fun (p : Encoder.problem) ->
      if not (skip_matches_tree p.domain p.psi) then
        Alcotest.failf "%s/%s: sparse revise differs from the tree walk"
          p.dfa.Registry.name
          (Conditions.name p.condition))
    table1_problems

(* Rules a skip must not cover. The product below is SCAN-shaped: its
   forward value [-inf, -2.2275] is unbounded, and the tree's backward
   quotient [-inf, -2.2275] / [0.45, +inf] hits inf/inf and empties the
   constant factor, so both engines report Infeasible. Skipping it would
   keep the box. The integer powers invert through fl(1/n): for n = ±3, 9
   and ±12 that cuts x's upper bound by ulps on these boxes, so a skip
   would change the answer there, while for |n| a power of two the
   inverse is exact and a skip must not. The non-integer powers and W
   clip their argument to their domain before the forward rule, so the
   tree contracts a child reaching outside it even when the register's
   requirement is its own bounded forward value: sqrt x >= 0 on [-1, 4]
   keeps [0, 4], W(x) >= -1 on [-1, 1] keeps [-1/e, 1]. *)
let test_skip_targeted () =
  let x = Expr.var "x" in
  let product = Expr.mul (Expr.const (-4.95)) x in
  let check label atom lo hi =
    let box = Box.make [ ("x", Interval.make lo hi) ] in
    if not (skip_matches_tree box atom) then
      Alcotest.failf "%s on [%h, %h]: sparse revise differs from the tree"
        label lo hi
  in
  check "-4.95 x <= 0" (Form.atom product Form.Le0) 0.45 Float.infinity;
  check "exp (-4.95 x) >= 0"
    (Form.atom (Expr.exp product) Form.Ge0)
    0.45 Float.infinity;
  List.iter
    (fun n ->
      let atom = Form.atom (Expr.pow x (Expr.int n)) Form.Ge0 in
      List.iter
        (fun (lo, hi) -> check (Printf.sprintf "x^%d >= 0" n) atom lo hi)
        [ (0.3, 7e5); (1.1, 1e3); (0.01, 100.0); (2.0, 1e10); (3.0, 1e6) ])
    [ -3; 3; 12; 9; -12; 1; -1; 2; -2; 4; 8; -16 ];
  check "sqrt x >= 0" (Form.atom (Expr.sqrt x) Form.Ge0) (-1.0) 4.0;
  check "x^(3/2) >= 0" (Form.atom (Expr.powr x (Rat.make 3 2)) Form.Ge0)
    (-1.0) 4.0;
  check "x^(1/3) >= 0" (Form.atom (Expr.cbrt x) Form.Ge0) (-1.0) 4.0;
  check "sqrt x >= 0" (Form.atom (Expr.sqrt x) Form.Ge0) 0.0 4.0;
  check "W(x) >= -1"
    (Form.atom (Expr.add (Expr.lambert_w x) Expr.one) Form.Ge0)
    (-1.0) 1.0;
  check "W(x) >= -1"
    (Form.atom (Expr.add (Expr.lambert_w x) Expr.one) Form.Ge0)
    (-0.375) 1.0;
  check "W(x) >= -1"
    (Form.atom (Expr.add (Expr.lambert_w x) Expr.one) Form.Ge0)
    0.0 1.0

(* ------------------------------------------------------------------ *)
(* Allocation: the sweeps do not allocate per instruction *)

(* A transcendental-free atom with [k] product terms, positive on the box
   below so no sweep prunes or contracts and every call takes the same
   branches whatever [k]. *)
let sum_of_products k =
  let x = Expr.var "x" and y = Expr.var "y" in
  Expr.add_n
    (List.init k (fun j ->
         let c = Expr.const (float_of_int (j + 1) /. 8.0) in
         let d = Expr.const (float_of_int (j + 2) /. 16.0) in
         Expr.mul (Expr.add x c) (Expr.add y d)))

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let wall_counter name =
  match
    List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.wall_counters
  with
  | Some n -> n
  | None -> 0

let sweep_counts () =
  (wall_counter "itape.forward_sweeps", wall_counter "itape.forward_partial")

let test_sweeps_allocation_flat () =
  (* [box_x] differs from [box] in x alone, so a call on it after one on
     [box] sweeps both register files partially. *)
  let box =
    Box.make [ ("x", Interval.make 1.0 2.0); ("y", Interval.make 0.5 1.5) ]
  and box_x =
    Box.make [ ("x", Interval.make 1.25 2.0); ("y", Interval.make 0.5 1.5) ]
  in
  let tape k =
    Itape.compile ~vars:(Box.vars box) (Form.atom (sum_of_products k) Form.Ge0)
  in
  let short = tape 2 and long = tape 200 in
  check_true "long tape is long" (Itape.length long > 50 * Itape.length short);
  let calls =
    [
      ("eval", fun p b () -> ignore (Itape.eval p b));
      ("revise", fun p b () -> ignore (Itape.revise p b));
      ("eval_gradient", fun p b () -> ignore (Itape.eval_gradient p b));
      ("contract_mvf", fun p b () -> ignore (Itape.contract_mvf p b));
    ]
  in
  List.iter
    (fun (name, call) ->
      (* warm-up: grow this domain's scratch registers to the long tape *)
      call short box ();
      call long box ();
      (* each measured call follows a call on the other program, so both
         register files sweep in full *)
      let sweeps, partial = sweep_counts () in
      let ws = minor_words_of (call short box) in
      let wl = minor_words_of (call long box) in
      if sweep_counts () <> (sweeps + 2, partial) then
        Alcotest.failf "%s: a measured call did not sweep in full" name;
      if ws <> wl then
        Alcotest.failf "%s: %.0f minor words on %d registers, %.0f on %d" name
          ws (Itape.length short) wl (Itape.length long);
      (* one changed slot: both sweep partially *)
      let sweeps, partial = sweep_counts () in
      call short box ();
      let ws = minor_words_of (call short box_x) in
      call long box ();
      let wl = minor_words_of (call long box_x) in
      if sweep_counts () <> (sweeps + 4, partial + 2) then
        Alcotest.failf "%s: a one-slot call did not sweep partially" name;
      if ws <> wl then
        Alcotest.failf "%s: partial sweeps: %.0f minor words on %d registers, \
                        %.0f on %d" name
          ws (Itape.length short) wl (Itape.length long))
    calls

let suite =
  [
    prop_revise_equiv;
    prop_contract_equiv;
    case "mul by zero factor is not infeasible" test_mul_by_zero_sound;
    case "mul by zero still prunes real conflicts" test_mul_by_zero_still_prunes;
    case "relational division" test_div_rel;
    case "lambert NaN certification fallback" test_lambert_nan_fallback;
    case "lambert kernel NaN evidence" test_lambert_kernel_nan_evidence;
    case "trig of huge arguments is sound" test_trig_huge_argument_sound;
    case "trig below cutoff stays tight" test_trig_small_argument_still_tight;
    case "split progress" test_split_progress;
    prop_split_progress;
    prop_status_eval_equiv;
    prop_forward_reuse;
    case "sweeps reach every dependent register" test_sweeps_reach_dependents;
    case "sparse revise on every Table I domain" test_skip_table1_domains;
    case "sparse revise keeps the rules it cannot skip" test_skip_targeted;
    prop_registry_differential_oracle;
    prop_mvf_skip_equiv;
    prop_mvf_skip_equiv_table1;
    prop_gradient_oracle;
    prop_gradient_oracle_table1;
    case "mean-value replay skip exercised" test_mvf_skip_exercised;
    case "paint log matches tree-walk fixture"
      test_paint_log_matches_tree_fixture;
    case "tree-walk config refused" test_tree_walk_config_refused;
    case "sweeps allocate independently of tape length"
      test_sweeps_allocation_flat;
  ]
