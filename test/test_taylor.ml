open Testutil
open Expr

let x = var "x"
let y = var "y"

let iv = Interval.make
let box2 (xl, xh) (yl, yh) = Box.make [ ("x", iv xl xh); ("y", iv yl yh) ]

(* The mean-value-form contractor, on the compiled tape the solver runs
   (Itape.contract_mvf / Hc4.mean_value_tape). test_adjoint.ml covers the
   single-atom Newton step, infeasibility proof and unit-box soundness of
   Itape.contract_mvf; these cases pin the enclosure it tests against, the
   multi-atom stage Verify runs (Hc4.mean_value_tape) and its place in the
   solver pipeline. *)

let mvf vars atom = Itape.contract_mvf (Itape.compile ~vars atom)

(* the solver's mean-value stage over a whole conjunction *)
let mvf_stage formula b =
  Hc4.mean_value_tape (Hc4.compile ~vars:(Box.vars b) formula) b

let test_enclosure_tightens () =
  (* f = x - x^2 on a small box: the natural extension loses the x/x^2
     correlation; the mean value form recovers most of it. *)
  let f = sub x (sqr x) in
  let small = Box.make [ ("x", iv 0.49 0.51) ] in
  let natural = Itape.eval (Itape.compile ~vars:[ "x" ] (Form.le f)) small in
  (* f <= 0.24 is false on the whole box (f >= 0.2499 there), but the
     natural enclosure reaches below 0.24: only the tighter mean-value
     enclosure refutes it *)
  check_true "natural extension reaches 0.24" (Interval.inf natural < 0.24);
  check_true "mvf refutes f <= 0.24"
    (mvf [ "x" ] (Form.le (sub f (const 0.24))) small = Itape.Infeasible);
  (* and the enclosure still contains the true range [f(0.49), 0.25]:
     both ends of it survive contraction (0.24995 sits just above
     f(0.49) = 0.2499, so rounding cannot put x = 0.49 outside) *)
  let keeps label atom p =
    match mvf [ "x" ] atom small with
    | Itape.Infeasible -> Alcotest.failf "%s: declared infeasible" label
    | Itape.Contracted b -> check_true label (Interval.mem p (Box.get b "x"))
  in
  keeps "keeps the maximum 0.25 at x=1/2"
    (Form.ge (sub f (const 0.25))) 0.5;
  keeps "keeps x = 0.49" (Form.le (sub f (const 0.24995))) 0.49

let test_enclosure_contains_samples =
  (* On small boxes, where the mean value form is tighter than the natural
     extension and decides the contraction, bracketing a sampled value
     from either side must never lose the sample. *)
  qcheck "mvf keeps sampled points on small boxes"
    QCheck2.Gen.(
      tup4 expr_gen (float_range 0.0 1.0) (float_range 0.0 0.2)
        (float_range 0.0 1.0))
    (fun (e, lo, w, frac) ->
      let b = box2 (lo, lo +. w) (0.2, 0.4) in
      let point = [ ("x", lo +. (frac *. w)); ("y", 0.3) ] in
      let env = List.map (fun (v, q) -> (v, Interval.point q)) point in
      let i = Ieval.eval env e in
      if Interval.is_empty i || not (Interval.is_bounded i) then true
      else
        let keeps atom =
          match mvf [ "x"; "y" ] atom b with
          | Itape.Infeasible -> false
          | Itape.Contracted b' -> Box.mem point b'
        in
        keeps (Form.le (sub e (const (Interval.sup i))))
        && keeps (Form.ge (sub e (const (Interval.inf i)))))

let test_contract_infeasible () =
  (* x >= 0.3 holds on [0.4, 0.6]; x - x^2 + 1 (in [1, 1.25] there) <= 0
     does not. The stage must run past the satisfied first atom and
     report the second one's refutation. *)
  let f = add (sub x (sqr x)) one in
  match
    mvf_stage
      [ Form.ge (sub x (const 0.3)); Form.le f ]
      (Box.make [ ("x", iv 0.4 0.6) ])
  with
  | Hc4.Infeasible -> ()
  | Hc4.Contracted _ -> Alcotest.fail "should prove infeasible"

let test_contract_newton_step () =
  (* 2x - 1 <= 0 cuts x to [0.4, ~0.5]; y - x <= 0 then cuts y to
     [0.4, ~0.5], but only if the stage hands the second atom the box the
     first one contracted (on the input box y would stay [0.4, 0.6]). *)
  let formula = [ Form.le (sub (mul two x) one); Form.le (sub y x) ] in
  match mvf_stage formula (box2 (0.4, 0.6) (0.4, 0.6)) with
  | Hc4.Infeasible -> Alcotest.fail "feasible"
  | Hc4.Contracted b ->
      let near_half label i =
        check_true label (Interval.sup i <= 0.5001 && Interval.sup i >= 0.4999)
      in
      near_half "x upper bound near 0.5" (Box.get b "x");
      near_half "y upper bound near 0.5" (Box.get b "y");
      check_close "x lower bound kept" 0.4 (Interval.inf (Box.get b "x"));
      check_close "y lower bound kept" 0.4 (Interval.inf (Box.get b "y"))

let test_piecewise_degrades () =
  (* undecided guard: the contractor must be a no-op, not unsound *)
  let pw = if_lt x (const 0.5) ~then_:(neg one) ~else_:one in
  match mvf [ "x" ] (Form.le pw) (Box.make [ ("x", iv 0.0 1.0) ]) with
  | Itape.Infeasible -> Alcotest.fail "must not decide across the seam"
  | Itape.Contracted b ->
      check_true "no contraction across undecided guard"
        (Interval.equal (Box.get b "x") (iv 0.0 1.0))

let test_soundness_random =
  (* A point where both atoms certainly hold survives the stage on the
     unit box. *)
  qcheck "taylor contraction never loses solutions"
    QCheck2.Gen.(
      tup4 expr_gen expr_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (e1, e2, px, py) ->
      let point = [ ("x", px); ("y", py) ] in
      let env = List.map (fun (v, q) -> (v, Interval.point q)) point in
      let holds e =
        let i = Ieval.eval env e in
        (not (Interval.is_empty i)) && Interval.certainly_lt i 0.0
      in
      if holds e1 && holds e2 then
        match
          mvf_stage [ Form.le e1; Form.le e2 ] (box2 (0.0, 1.0) (0.0, 1.0))
        with
        | Hc4.Infeasible -> false
        | Hc4.Contracted b -> Box.mem point b
      else true)

let test_solver_integration () =
  (* Via the ICP pipeline: proving x - x^2 <= 0.26 valid on [0,1]
     (max of x - x^2 is 0.25; the 0.01 margin keeps the problem out of the
     delta-sat regime). Plain interval arithmetic needs splitting; with the
     MVF stage the budget shrinks. *)
  let f = sub (sub x (sqr x)) (const 0.26) in
  let atom = Form.gt f in
  (* not psi *)
  let b = Box.make [ ("x", iv 0.0 1.0) ] in
  let compiled = Hc4.compile ~vars:(Box.vars b) [ atom ] in
  let cfg =
    {
      Icp.default_config with
      fuel = 10_000;
      delta = 1e-4;
      sample_check = false;
      tape = Some compiled;
    }
  in
  let v_plain, s_plain = Icp.solve cfg b [ atom ] in
  let v_taylor, s_taylor =
    Icp.solve ~contractors:[ Hc4.mean_value_tape compiled ] cfg b [ atom ]
  in
  check_true "both unsat"
    (v_plain = Icp.Unsat && v_taylor = Icp.Unsat);
  check_true
    (Printf.sprintf "taylor needs fewer expansions (%d vs %d)"
       s_taylor.Icp.expansions s_plain.Icp.expansions)
    (s_taylor.Icp.expansions <= s_plain.Icp.expansions)

let test_verify_integration () =
  (* End to end through Algorithm 1 on a real pair. *)
  let config =
    {
      Verify.default_config with
      threshold = 0.7;
      solver =
        { Icp.default_config with fuel = 200; delta = 1e-3; contractor_rounds = 2 };
      deadline_seconds = Some 20.0;
    }
  in
  match Xcverifier.verify ~config ~dfa:"pbe" ~condition:"ec1" () with
  | Some o ->
      check_true "still classified correctly (OK or OK*)"
        (match Outcome.classify o with
        | Outcome.Full_verified | Outcome.Partial_verified -> true
        | _ -> false)
  | None -> Alcotest.fail "applicable"

let suite =
  [
    case "enclosure tightens on small boxes" test_enclosure_tightens;
    test_enclosure_contains_samples;
    case "proves infeasibility" test_contract_infeasible;
    case "newton-like contraction" test_contract_newton_step;
    case "degrades at undecided piecewise guards" test_piecewise_degrades;
    test_soundness_random;
    case "icp pipeline integration" test_solver_integration;
    case "verify integration (PBE EC1)" test_verify_integration;
  ]
