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

let events_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.path = b.Trace.path && a.Trace.depth = b.Trace.depth
  && a.Trace.step = b.Trace.step
  && Box.equal a.Trace.box b.Trace.box
  && a.Trace.kind = b.Trace.kind

let test_roundtrip () =
  let _, events = traced_run 1 in
  let events' = Serialize.trace_of_string (Serialize.trace_to_string events) in
  Alcotest.(check int) "event count" (List.length events)
    (List.length events');
  List.iter2
    (fun a b -> check_true "event round-trips bit-exactly" (events_equal a b))
    events events'

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

let test_report_embeds_trace () =
  let o, events = traced_run 1 in
  let report = Serialize.trace_report o events in
  let j = Serialize.Json.of_string report in
  match j with
  | Serialize.Json.Obj fields ->
      check_true "has dfa" (List.mem_assoc "dfa" fields);
      check_true "has stats" (List.mem_assoc "stats" fields);
      let trace =
        match List.assoc_opt "trace" fields with
        | Some t -> Serialize.trace_of_json t
        | None -> Alcotest.fail "report lacks trace"
      in
      Alcotest.(check int) "embedded trace intact" (List.length events)
        (List.length trace)
  | _ -> Alcotest.fail "report is not a JSON object"

let suite =
  [
    case "golden file" test_golden;
    case "JSON round-trip" test_roundtrip;
    case "fuel sum equals outcome stats" test_fuel_sum_matches_stats;
    case "trace independent of worker count" test_workers_invariant;
    case "trace report structure" test_report_embeds_trace;
  ]
