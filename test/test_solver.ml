open Testutil
open Expr

let x = var "x"
let y = var "y"

let iv = Interval.make
let box2 (xl, xh) (yl, yh) = Box.make [ ("x", iv xl xh); ("y", iv yl yh) ]
let unit_box = box2 (0.0, 1.0) (0.0, 1.0)

(* ---- Box ------------------------------------------------------------ *)

let test_box_basics () =
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Box.vars unit_box);
  Alcotest.(check int) "dim" 2 (Box.dim unit_box);
  check_true "get" (Interval.equal (Box.get unit_box "x") (iv 0.0 1.0));
  let b = Box.set unit_box "y" (iv 2.0 3.0) in
  check_true "set" (Interval.equal (Box.get b "y") (iv 2.0 3.0));
  check_true "set is functional"
    (Interval.equal (Box.get unit_box "y") (iv 0.0 1.0));
  Alcotest.check_raises "unknown var" Not_found (fun () ->
      ignore (Box.get unit_box "z"));
  Alcotest.check_raises "duplicate var"
    (Invalid_argument "Box.make: duplicate variable \"x\"") (fun () ->
      ignore (Box.make [ ("x", Interval.one); ("x", Interval.one) ]))

let test_box_split () =
  let b = box2 (0.0, 4.0) (0.0, 1.0) in
  Alcotest.(check int) "widest dim" 0 (Box.widest_dim b);
  let l, r = Box.split b in
  check_close "left boundary" 2.0 (Interval.sup (Box.get l "x"));
  check_close "right boundary" 2.0 (Interval.inf (Box.get r "x"));
  check_true "y untouched" (Interval.equal (Box.get l "y") (iv 0.0 1.0));
  let children = Box.split_all b in
  Alcotest.(check int) "split_all 2^2" 4 (List.length children);
  let vol = List.fold_left (fun acc c -> acc +. Box.volume c) 0.0 children in
  check_close "volume preserved" (Box.volume b) vol

let test_box_point_ops () =
  let mid = Box.midpoint unit_box in
  check_close "mid x" 0.5 (List.assoc "x" mid);
  check_true "mem mid" (Box.mem mid unit_box);
  check_false "mem outside" (Box.mem [ ("x", 2.0); ("y", 0.5) ] unit_box);
  check_close "max_width" 4.0 (Box.max_width (box2 (0.0, 4.0) (0.0, 1.0)))

(* ---- Form ------------------------------------------------------------ *)

let test_form () =
  let f = sub (add (sqr x) (sqr y)) one in
  let a = Form.le f in
  check_true "holds inside" (Form.holds_at [ ("x", 0.1); ("y", 0.2) ] a);
  check_false "fails outside" (Form.holds_at [ ("x", 1.0); ("y", 1.0) ] a);
  let na = Form.negate_atom a in
  check_true "negation flips" (Form.holds_at [ ("x", 1.0); ("y", 1.0) ] na);
  check_false "negation flips back" (Form.holds_at [ ("x", 0.1); ("y", 0.2) ] na);
  Alcotest.check_raises "cannot negate equality"
    (Invalid_argument "Form.negate_atom: cannot negate an equality") (fun () ->
      ignore (Form.negate_atom (Form.eq f)));
  (* status over boxes, as the solver tests it: on the compiled tape *)
  let status_on b = Itape.status_on (Itape.compile ~vars:(Box.vars b) a) b in
  (match status_on (box2 (2.0, 3.0) (2.0, 3.0)) with
  | `Fails -> ()
  | _ -> Alcotest.fail "far box should certainly fail");
  (match status_on (box2 (0.0, 0.1) (0.0, 0.1)) with
  | `Holds -> ()
  | _ -> Alcotest.fail "tiny box should certainly hold");
  match status_on unit_box with
  | `Unknown -> ()
  | _ -> Alcotest.fail "unit box should be unknown"

let test_form_nan_semantics () =
  (* log of a negative number: the model is outside the domain, so valid(x)
     must be false — matching Algorithm 1's counterexample check. *)
  let a = Form.ge (log x) in
  check_false "NaN evaluates to false" (Form.holds_at [ ("x", -1.0) ] a)

(* ---- HC4 ------------------------------------------------------------- *)

(* One HC4 revise of a single atom, on the compiled tape the solver uses. *)
let revise box atom = Itape.revise (Itape.compile ~vars:(Box.vars box) atom) box

let contracted_box = function
  | Hc4.Contracted b -> b
  | Hc4.Infeasible -> Alcotest.fail "unexpected infeasible"

let test_hc4_linear () =
  (* x + y <= 0 on [0,1]^2 forces x = y = 0 up to rounding. *)
  let r = revise unit_box (Form.le (add x y)) in
  let b = contracted_box r in
  check_true "x pinched" (Interval.sup (Box.get b "x") <= 1e-9);
  check_true "y pinched" (Interval.sup (Box.get b "y") <= 1e-9)

let test_hc4_infeasible () =
  (* x + y + 3 <= 0 impossible on the unit box. *)
  match revise unit_box (Form.le (add_n [ x; y; int 3 ])) with
  | Hc4.Infeasible -> ()
  | Hc4.Contracted _ -> Alcotest.fail "should be infeasible"

let test_hc4_quadratic () =
  (* x^2 - 4 >= 0 on x in [0, 10] contracts to [2, 10]. *)
  let b = Box.make [ ("x", iv 0.0 10.0) ] in
  let r = contracted_box (revise b (Form.ge (sub (sqr x) (int 4)))) in
  check_true "lower bound near 2" (Interval.inf (Box.get r "x") >= 1.999);
  check_true "lower bound sound" (Interval.inf (Box.get r "x") <= 2.0)

let test_hc4_exp () =
  (* exp x <= 1 forces x <= 0. *)
  let b = Box.make [ ("x", iv (-5.0) 5.0) ] in
  let r = contracted_box (revise b (Form.le (sub (exp x) one))) in
  check_true "x <= 0 (+ulp)" (Interval.sup (Box.get r "x") <= 1e-9);
  check_true "lower untouched" (Interval.inf (Box.get r "x") = -5.0)

let test_hc4_shared_subterm () =
  (* (x - 1)^2 + (x - 1) <= -0.25 has the shared subterm (x - 1); solution
     x - 1 = -1/2, i.e. x = 1/2. One linear DAG pass must not diverge. *)
  let t = sub x one in
  let f = add (sqr t) t in
  let b = Box.make [ ("x", iv (-10.0) 10.0) ] in
  let compiled = Hc4.compile ~vars:(Box.vars b) [ Form.le (add f (rat 1 4)) ] in
  let r = Hc4.contract_tape compiled b ~rounds:20 in
  let bx = contracted_box r in
  check_true "contains solution 0.5" (Interval.mem 0.5 (Box.get bx "x"));
  check_true "substantially narrowed" (Interval.width (Box.get bx "x") < 10.0)

(* Certified premise: the float check [Form.holds_at] can be fooled by
   underflow (exp(-1092) evaluates to 0.0, "satisfying" exp(..) <= 0 that no
   real point satisfies), so the property quantifies only over points where
   degenerate-interval evaluation certifies strict satisfaction. *)
let certainly_satisfies_le point e =
  let env = List.map (fun (v, x) -> (v, Interval.point x)) point in
  let i = Ieval.eval env e in
  (not (Interval.is_empty i)) && Interval.certainly_lt i 0.0

let test_hc4_soundness_random =
  (* Contraction must never discard a point satisfying the constraint. *)
  qcheck "hc4 never loses solutions"
    QCheck2.Gen.(tup3 expr_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (e, px, py) ->
      let atom = Form.le e in
      let point = [ ("x", px); ("y", py) ] in
      if certainly_satisfies_le point e then
        match revise unit_box atom with
        | Hc4.Infeasible -> false
        | Hc4.Contracted b -> Box.mem point b
      else true)

(* ---- ICP ------------------------------------------------------------- *)

let cfg = { Icp.default_config with fuel = 2000 }

let test_icp_unsat () =
  (* circle of radius 1 cannot reach the far corner box *)
  let f = Form.le (sub (add (sqr x) (sqr y)) one) in
  let b = box2 (2.0, 3.0) (2.0, 3.0) in
  match Icp.solve cfg b [ f ] with
  | Icp.Unsat, stats ->
      check_true "few expansions" (stats.Icp.expansions < 10)
  | _ -> Alcotest.fail "expected unsat"

let test_icp_sat_model () =
  let f = Form.le (sub (add (sqr x) (sqr y)) one) in
  match Icp.solve cfg unit_box [ f ] with
  | Icp.Sat { model; _ }, _ ->
      check_true "model satisfies" (Form.holds_at model f);
      check_true "model in box" (Box.mem model unit_box)
  | _ -> Alcotest.fail "expected sat"

let test_icp_conjunction () =
  (* x >= y  /\  y >= x + 1: infeasible. *)
  let f1 = Form.ge (sub x y) and f2 = Form.ge (sub (sub y x) one) in
  (match Icp.solve cfg unit_box [ f1; f2 ] with
  | Icp.Unsat, _ -> ()
  | _ -> Alcotest.fail "expected unsat");
  (* x >= y /\ y >= x is the diagonal: delta-sat. *)
  let f3 = Form.ge (sub y x) in
  match Icp.solve cfg unit_box [ f1; f3 ] with
  | Icp.Sat { model; _ }, _ ->
      let mx = List.assoc "x" model and my = List.assoc "y" model in
      check_close ~tol:1e-2 "on diagonal" mx my
  | _ -> Alcotest.fail "expected (delta-)sat"

let test_icp_timeout () =
  (* Give the solver almost no fuel on an undecidable-at-this-width box. *)
  let f = Form.ge (sub (sin (mul (const 20.0) x)) (const 0.9999999)) in
  let tiny = { Icp.default_config with fuel = 2; sample_check = false } in
  let b = Box.make [ ("x", iv 0.0 10.0) ] in
  match Icp.solve tiny b [ f ] with
  | Icp.Timeout, stats -> check_true "fuel consumed" (stats.Icp.expansions >= 2)
  | Icp.Unsat, _ -> Alcotest.fail "should not decide with fuel 2"
  | Icp.Sat _, _ -> ()

let test_icp_transcendental () =
  (* exp x = 2 has solution ln 2: check sat of conjunction of inequalities. *)
  let f1 = Form.ge (sub (exp x) two) and f2 = Form.le (sub (exp x) two) in
  let b = Box.make [ ("x", iv 0.0 1.0) ] in
  match Icp.solve cfg b [ f1; f2 ] with
  | Icp.Sat { model; _ }, _ ->
      check_close ~tol:1e-2 "ln 2" (Stdlib.log 2.0) (List.assoc "x" model)
  | _ -> Alcotest.fail "expected sat near ln 2"

let test_icp_unbound_variable () =
  (* without a tape the formula is compiled on entry, so a variable the box
     lacks is reported before any search *)
  Alcotest.check_raises "unbound variable"
    (Invalid_argument "Itape.compile: unbound variable \"z\"") (fun () ->
      ignore (Icp.solve cfg unit_box [ Form.le (sub (var "z") x) ]))

let test_icp_soundness_random =
  qcheck ~count:100 "unsat verdicts are sound"
    QCheck2.Gen.(tup3 expr_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (e, px, py) ->
      let atom = Form.le e in
      match Icp.solve { cfg with fuel = 300 } unit_box [ atom ] with
      | Icp.Unsat, _ ->
          (* no real point may satisfy the constraint (certified check) *)
          not (certainly_satisfies_le [ ("x", px); ("y", py) ] e)
      | (Icp.Sat _ | Icp.Timeout), _ -> true)

let suite =
  [
    case "box basics" test_box_basics;
    case "box splitting" test_box_split;
    case "box points" test_box_point_ops;
    case "formula atoms" test_form;
    case "NaN model check" test_form_nan_semantics;
    case "hc4 linear" test_hc4_linear;
    case "hc4 infeasible" test_hc4_infeasible;
    case "hc4 quadratic backward" test_hc4_quadratic;
    case "hc4 exp backward" test_hc4_exp;
    case "hc4 shared subterms" test_hc4_shared_subterm;
    test_hc4_soundness_random;
    case "icp unsat" test_icp_unsat;
    case "icp unbound variable" test_icp_unbound_variable;
    case "icp sat with model" test_icp_sat_model;
    case "icp conjunction" test_icp_conjunction;
    case "icp timeout" test_icp_timeout;
    case "icp transcendental root" test_icp_transcendental;
    test_icp_soundness_random;
  ]
