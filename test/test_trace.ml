open Testutil

(* Trace telemetry: a fully deterministic verification run (no deadline, so
   scheduling never depends on the clock) whose JSON trace is pinned by a
   checked-in golden file, plus the structural invariants the trace must
   satisfy against the outcome it was recorded from. *)

let circle_atom =
  Form.ge
    (Expr.sub
       (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
       (Expr.int 1))

let domain =
  Box.make
    [
      ("x", Interval.make (-2.0) 2.0);
      ("y", Interval.make (-2.0) 2.0);
    ]

let config workers =
  {
    Verify.default_config with
    threshold = 1.0;
    solver =
      { Icp.default_config with fuel = 40; delta = 1e-2; contractor_rounds = 2 };
    workers;
    use_taylor = false;
  }

let traced_run workers =
  let recorder = Trace.create () in
  let o =
    Verify.run_custom ~config:(config workers) ~recorder ~dfa_label:"trace-test"
      ~condition_label:"circle" ~domain ~psi:circle_atom ()
  in
  (o, Trace.events recorder)

let golden_path = "fixtures/trace_golden.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden () =
  let _, events = traced_run 1 in
  let json = Serialize.trace_to_string events in
  (* Regenerate with:
     XCV_WRITE_GOLDEN=test/fixtures/trace_golden.json \
       dune exec test/main.exe -- test trace *)
  match Sys.getenv_opt "XCV_WRITE_GOLDEN" with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc json;
          output_char oc '\n');
      Printf.printf "golden trace rewritten: %s\n" path
  | None ->
      let golden = String.trim (read_file golden_path) in
      Alcotest.(check string) "trace JSON matches golden file" golden json

module J = Serialize.Json

let json_int i = J.Num (float_of_int i)

let json_list = function
  | J.Arr l -> l
  | _ -> Alcotest.fail "expected a JSON array"

(* The printed trace holds one object per event, in event order, naming
   the event's kind, path, depth and step. *)
let test_json_lists_events () =
  let _, events = traced_run 1 in
  let printed =
    json_list (J.member "events" (J.of_string (Serialize.trace_to_string events)))
  in
  Alcotest.(check int) "event count" (List.length events) (List.length printed);
  List.iter2
    (fun (e : Trace.event) j ->
      check_true "kind"
        (J.member "kind" j = J.Str (Trace.kind_name e.Trace.kind));
      check_true "path"
        (J.member "path" j = J.Arr (List.map json_int e.Trace.path));
      check_true "depth" (J.member "depth" j = json_int e.Trace.depth);
      check_true "step" (J.member "step" j = json_int e.Trace.step))
    events printed

let test_fuel_sum_matches_stats () =
  let o, events = traced_run 1 in
  check_true "trace non-empty" (events <> []);
  Alcotest.(check int) "solve fuel sums to Outcome.stats.total_expansions"
    o.Outcome.stats.Outcome.total_expansions
    (Trace.total_fuel events);
  let verdicts =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           match e.Trace.kind with Trace.Verdict _ -> true | _ -> false)
         events)
  in
  Alcotest.(check int) "one verdict event per solver call"
    o.Outcome.stats.Outcome.solver_calls verdicts;
  Alcotest.(check int) "one verdict event per painted region"
    (List.length o.Outcome.regions)
    verdicts

let test_workers_invariant () =
  (* Without a deadline every above-threshold box is solved, so the sorted
     event log — and its JSON — is identical at any worker count. *)
  let _, seq = traced_run 1 in
  let _, par = traced_run 4 in
  Alcotest.(check string) "identical trace at workers=4"
    (Serialize.trace_to_string seq)
    (Serialize.trace_to_string par)

(* The [--trace] report: labels, stats and the event log, whose [fuel]
   fields (solve and retry events) sum to the reported expansions. *)
let test_report_embeds_trace () =
  let o, events = traced_run 1 in
  let j = J.of_string (Serialize.trace_report o events) in
  check_true "dfa" (J.member "dfa" j = J.Str "trace-test");
  check_true "condition" (J.member "condition" j = J.Str "circle");
  let printed = json_list (J.member "events" (J.member "trace" j)) in
  Alcotest.(check int) "embedded trace intact" (List.length events)
    (List.length printed);
  let fuel =
    List.fold_left
      (fun acc ev ->
        match J.member "kind" ev with
        | J.Str ("solve" | "retry") -> (
            match J.member "fuel" ev with
            | J.Num f -> acc +. f
            | _ -> Alcotest.fail "fuel is not a number")
        | _ -> acc)
      0.0 printed
  in
  check_true "fuel sums to stats.total_expansions"
    (J.member "total_expansions" (J.member "stats" j) = J.Num fuel);
  Alcotest.(check int) "expansions as in the outcome"
    o.Outcome.stats.Outcome.total_expansions (int_of_float fuel)

(* Metamorphic fuel doubling: fuel only cuts a solver call short, so a call
   that decides (Unsat or Sat) at fuel f returns the same verdict after the
   same number of expansions at fuel 2f. Compared box by box on the paths
   both runs reach: a box that timed out at f may be decided at 2f, which
   prunes or reshapes its subtree. *)
let decided_calls ~fuel (dfa, cond) =
  let config =
    {
      Verify.default_config with
      threshold = 0.625;
      solver =
        { Icp.default_config with fuel; delta = 1e-3; contractor_rounds = 3;
          faults = None };
      workers = test_workers;
    }
  in
  let recorder = Trace.create () in
  ignore (Verify.run_pair ~config ~recorder (Registry.find dfa) cond);
  let calls = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Solve { fuel; prunes } ->
          Hashtbl.replace calls e.Trace.path (fuel, prunes, "")
      | Trace.Verdict v -> (
          match Hashtbl.find_opt calls e.Trace.path with
          | Some (fuel, prunes, _) ->
              Hashtbl.replace calls e.Trace.path (fuel, prunes, v)
          | None -> ())
      | _ -> ())
    (Trace.events recorder);
  calls

let test_fuel_doubling () =
  let fuel = 20 in
  List.iter
    (fun ((dfa, cond) as pair) ->
      let name = Printf.sprintf "%s/%s" dfa (Conditions.name cond) in
      let at_f = decided_calls ~fuel pair
      and at_2f = decided_calls ~fuel:(2 * fuel) pair in
      let compared = ref 0 in
      Hashtbl.iter
        (fun path ((_, _, verdict) as call) ->
          match (verdict, Hashtbl.find_opt at_2f path) with
          | ("verified" | "counterexample" | "inconclusive"), Some call' ->
              incr compared;
              if call <> call' then
                Alcotest.failf "%s: the call at path [%s] changed at fuel %d"
                  name
                  (String.concat ";" (List.map string_of_int path))
                  (2 * fuel)
          | _ -> ())
        at_f;
      check_true (name ^ ": some decided calls compared") (!compared > 0))
    [
      ("pbe", Conditions.Ec7);
      ("pbe", Conditions.Ec1);
      ("lyp", Conditions.Ec1);
      ("am05", Conditions.Ec3);
      ("scan", Conditions.Ec1);
    ]

let suite =
  [
    case "golden file" test_golden;
    case "JSON lists every event" test_json_lists_events;
    case "fuel sum equals outcome stats" test_fuel_sum_matches_stats;
    case "trace independent of worker count" test_workers_invariant;
    case "trace report structure" test_report_embeds_trace;
    case "fuel doubling keeps decided calls" test_fuel_doubling;
  ]
