open Testutil

let fast_config =
  {
    Verify.default_config with
    threshold = 0.7;
    solver =
      { Icp.default_config with fuel = 400; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 20.0;
    use_taylor = false;
  }

let run name cond = Xcverifier.verify ~config:fast_config ~dfa:name ~condition:cond ()

let test_vwn_ec1_verifies () =
  match run "vwn_rpa" "ec1" with
  | Some o ->
      check_true "fully verified" (Outcome.classify o = Outcome.Full_verified);
      let c = Outcome.coverage o in
      check_close "100% verified" 1.0 c.Outcome.verified
  | None -> Alcotest.fail "applicable"

let test_lyp_ec1_refuted () =
  match run "lyp" "ec1" with
  | Some o -> (
      check_true "refuted" (Outcome.classify o = Outcome.Refuted);
      match Outcome.first_counterexample o with
      | Some model ->
          (* the model must really violate the condition *)
          let atom =
            Option.get
              (Conditions.local_condition Conditions.Ec1 (Registry.find "lyp"))
          in
          check_false "model violates psi" (Form.holds_at model atom);
          (* and lie in the known violation region: high s *)
          check_true "violation at high s"
            (List.assoc Dft_vars.s_name model > 1.0)
      | None -> Alcotest.fail "must report a counterexample")
  | None -> Alcotest.fail "applicable"

let test_pbe_ec5_full () =
  match run "pbe" "ec5" with
  | Some o ->
      check_true "LO extension fully verified (paper: full check)"
        (Outcome.classify o = Outcome.Full_verified)
  | None -> Alcotest.fail "applicable"

let test_inapplicable () =
  Alcotest.(check (option reject)) "LYP has no LO bound" None (run "lyp" "ec4")

let test_outcome_bookkeeping () =
  match run "pbe" "ec7" with
  | Some o ->
      check_true "solver calls counted" (o.Outcome.stats.Outcome.solver_calls > 0);
      check_true "expansions counted"
        (o.Outcome.stats.Outcome.total_expansions
        >= o.Outcome.stats.Outcome.solver_calls);
      check_true "elapsed nonneg" (o.Outcome.stats.Outcome.elapsed >= 0.0);
      check_true "regions recorded" (o.Outcome.regions <> []);
      (* every region box must be inside the domain *)
      List.iter
        (fun (r : Outcome.region) ->
          List.iter
            (fun v ->
              check_true "region inside domain"
                (Interval.subset (Box.get r.Outcome.box v)
                   (Box.get o.Outcome.domain v)))
            (Box.vars r.Outcome.box))
        o.Outcome.regions
  | None -> Alcotest.fail "applicable"

let test_deadline_cutoff () =
  (* A zero deadline must stop immediately, recording timeouts. *)
  let config = { fast_config with deadline_seconds = Some 0.0 } in
  match Xcverifier.verify ~config ~dfa:"pbe" ~condition:"ec2" () with
  | Some o ->
      let c = Outcome.coverage o in
      check_true "nothing verified under zero budget" (c.Outcome.verified = 0.0);
      check_true "classified unknown" (Outcome.classify o = Outcome.Unknown)
  | None -> Alcotest.fail "applicable"

let test_threshold_controls_depth () =
  let coarse = { fast_config with threshold = 3.0 } in
  match Xcverifier.verify ~config:coarse ~dfa:"lyp" ~condition:"ec1" () with
  | Some o ->
      List.iter
        (fun (r : Outcome.region) ->
          check_true "no region below threshold depth"
            (r.Outcome.depth <= 2))
        o.Outcome.regions
  | None -> Alcotest.fail "applicable"

let test_rasterize () =
  match run "lyp" "ec1" with
  | Some o ->
      let grid =
        Outcome.rasterize o ~xdim:Dft_vars.rs_name ~ydim:Dft_vars.s_name
          ~nx:16 ~ny:16
      in
      Alcotest.(check int) "rows" 16 (Array.length grid);
      (* bottom rows (small s) verified, top rows violated *)
      let statuses_bottom = grid.(0) and statuses_top = grid.(15) in
      check_true "bottom has verified cells"
        (Array.exists (fun s -> s = Outcome.Verified) statuses_bottom);
      check_true "top has counterexample cells"
        (Array.exists
           (fun s -> match s with Outcome.Counterexample _ -> true | _ -> false)
           statuses_top)
  | None -> Alcotest.fail "applicable"

let test_render_smoke () =
  match run "lyp" "ec1" with
  | Some o ->
      let map = Render.outcome_map ~nx:24 ~ny:8 o in
      check_true "map mentions axes" (String.length map > 100);
      check_true "contains counterexample glyph" (String.contains map '#');
      check_true "contains verified glyph" (String.contains map '.')
  | None -> Alcotest.fail "applicable"

let test_classification_symbols () =
  Alcotest.(check string) "full" "OK"
    (Outcome.classification_symbol Outcome.Full_verified);
  Alcotest.(check string) "partial" "OK*"
    (Outcome.classification_symbol Outcome.Partial_verified);
  Alcotest.(check string) "unknown" "?"
    (Outcome.classification_symbol Outcome.Unknown);
  Alcotest.(check string) "refuted" "X"
    (Outcome.classification_symbol Outcome.Refuted)

(* Verify.order_children: child i of a split takes path parent @ [i], so
   the order it returns is the children's paths. [margin] below counts its
   calls and would reverse split order. *)
let ordered_children ~threshold boxes =
  let calls = ref 0 in
  let margin b =
    incr calls;
    -.Interval.inf (Box.get b "x")
  in
  let ordered = Verify.order_children ~threshold ~margin boxes in
  (ordered, !calls)

let check_children label want got =
  Alcotest.(check int) (label ^ ": children") (List.length want)
    (List.length got);
  List.iteri
    (fun i ((wb, wm), (gb, gm)) ->
      check_true (Printf.sprintf "%s: child %d box" label i) (Box.equal wb gb);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: child %d margin" label i)
        wm gm)
    (List.combine want got)

(* Every child below the threshold: split order, margin 0, no margin
   evaluated. *)
let test_children_below_threshold () =
  let parent =
    Box.make [ ("x", Interval.make 0.0 1.0); ("y", Interval.make 0.0 1.0) ]
  in
  let boxes = Box.split_all parent in
  let ordered, calls = ordered_children ~threshold:0.6 boxes in
  Alcotest.(check int) "no margin evaluated" 0 calls;
  check_children "below" (List.map (fun b -> (b, 0.0)) boxes) ordered;
  (* the same split at the threshold of its children's width is sorted *)
  let ordered, calls = ordered_children ~threshold:0.5 boxes in
  Alcotest.(check int) "every margin evaluated" 4 calls;
  check_true "sorted, most violating first"
    (List.map (fun (b, _) -> Interval.inf (Box.get b "x")) ordered
    = [ 0.5; 0.5; 0.0; 0.0 ])

(* A sibling set that straddles the threshold keeps its full margin sort,
   the children below the threshold included. *)
let test_children_straddle_threshold () =
  let box lo hi = Box.make [ ("x", Interval.make lo hi) ] in
  let b1 = box 0.0 1.0 and b2 = box 1.0 1.25 in
  let b3 = box 1.25 1.5 and b4 = box 1.5 3.0 in
  let ordered, calls = ordered_children ~threshold:0.5 [ b1; b2; b3; b4 ] in
  Alcotest.(check int) "every margin evaluated" 4 calls;
  check_children "straddle"
    [ (b4, -1.5); (b3, -1.25); (b2, -1.0); (b1, -0.0) ]
    ordered

let suite =
  [
    case "VWN RPA EC1 fully verifies" test_vwn_ec1_verifies;
    case "LYP EC1 refuted with valid model" test_lyp_ec1_refuted;
    case "PBE EC5 fully verifies" test_pbe_ec5_full;
    case "inapplicable pairs skipped" test_inapplicable;
    case "outcome bookkeeping" test_outcome_bookkeeping;
    case "deadline cutoff" test_deadline_cutoff;
    case "threshold bounds depth" test_threshold_controls_depth;
    case "rasterization" test_rasterize;
    case "render smoke" test_render_smoke;
    case "classification symbols" test_classification_symbols;
    case "children below the threshold keep split order"
      test_children_below_threshold;
    case "children straddling the threshold sort by margin"
      test_children_straddle_threshold;
  ]
