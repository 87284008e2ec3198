open Testutil

let config =
  {
    Verify.default_config with
    threshold = 0.7;
    solver =
      { Icp.default_config with fuel = 200; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 10.0;
    use_taylor = false;
  }

let outcome dfa cond =
  Option.get (Xcverifier.verify ~config ~dfa ~condition:cond ())

let same_status a b =
  match a, b with
  | Outcome.Verified, Outcome.Verified | Outcome.Timeout, Outcome.Timeout ->
      true
  | Outcome.Counterexample m1, Outcome.Counterexample m2
  | Outcome.Inconclusive m1, Outcome.Inconclusive m2 ->
      m1 = m2
  | Outcome.Error e1, Outcome.Error e2 -> String.equal e1 e2
  | _ -> false

let check_roundtrip o =
  let o' = Serialize.of_string (Serialize.to_string o) in
  Alcotest.(check string) "dfa" o.Outcome.dfa o'.Outcome.dfa;
  Alcotest.(check string) "condition" o.Outcome.condition o'.Outcome.condition;
  Alcotest.(check int) "calls" o.Outcome.stats.Outcome.solver_calls
    o'.Outcome.stats.Outcome.solver_calls;
  Alcotest.(check int) "expansions" o.Outcome.stats.Outcome.total_expansions
    o'.Outcome.stats.Outcome.total_expansions;
  Alcotest.(check int) "prunes" o.Outcome.stats.Outcome.total_prunes
    o'.Outcome.stats.Outcome.total_prunes;
  Alcotest.(check int) "revise calls" o.Outcome.stats.Outcome.total_revise_calls
    o'.Outcome.stats.Outcome.total_revise_calls;
  Alcotest.(check int) "retries" o.Outcome.stats.Outcome.retries
    o'.Outcome.stats.Outcome.retries;
  check_close "elapsed" o.Outcome.stats.Outcome.elapsed
    o'.Outcome.stats.Outcome.elapsed;
  check_true "domain" (Box.equal o.Outcome.domain o'.Outcome.domain);
  Alcotest.(check int) "region count"
    (List.length o.Outcome.regions)
    (List.length o'.Outcome.regions);
  List.iter2
    (fun (a : Outcome.region) (b : Outcome.region) ->
      check_true "box bit-exact" (Box.equal a.Outcome.box b.Outcome.box);
      Alcotest.(check int) "depth" a.Outcome.depth b.Outcome.depth;
      check_true "status" (same_status a.Outcome.status b.Outcome.status))
    o.Outcome.regions o'.Outcome.regions;
  (* derived artifacts must agree exactly *)
  Alcotest.(check string) "re-rendered map"
    (Render.outcome_map o) (Render.outcome_map o');
  check_true "same classification" (Outcome.classify o = Outcome.classify o')

let test_roundtrip_lyp () = check_roundtrip (outcome "lyp" "ec1")
let test_roundtrip_vwn () = check_roundtrip (outcome "vwn_rpa" "ec7")

let test_label_escaping () =
  (* "VWN RPA" has a space; must survive the atom encoding *)
  let o = outcome "vwn_rpa" "ec1" in
  Alcotest.(check string) "label with space" "VWN RPA"
    (Serialize.of_string (Serialize.to_string o)).Outcome.dfa

let test_file_archive () =
  let outcomes = [ outcome "lyp" "ec1"; outcome "vwn_rpa" "ec1" ] in
  let path = Filename.temp_file "xcv" ".outcomes" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save path outcomes;
      let loaded = Serialize.load path in
      Alcotest.(check int) "count" 2 (List.length loaded);
      (* Table I rebuilt from the archive matches the live one *)
      Alcotest.(check string) "table from archive"
        (Report.table1 outcomes)
        (Report.table1 loaded))

let test_rejects_garbage () =
  let fails s =
    match Serialize.of_string s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "should reject %S" s
  in
  fails "(not-an-outcome)";
  fails "(outcome 999 (dfa x) (condition y))";
  fails "((("

(* ---- v3 additions: error regions, retries, checkpoints --------------- *)

let box1 = Box.make [ ("x", Interval.make 0.0 1.0) ]

let error_out msg =
  {
    Outcome.dfa = "synthetic";
    condition = "ec1";
    domain = box1;
    regions =
      [
        { Outcome.box = box1; status = Outcome.Error msg; depth = 0 };
        { Outcome.box = box1; status = Outcome.Verified; depth = 1 };
      ];
    stats = { Outcome.zero_stats with Outcome.retries = 3 };
  }

let test_error_status_roundtrip () =
  (* error messages contain spaces, parens, quotes — all must survive *)
  let o = error_out "Failure(\"interval (inverted bounds)\")" in
  check_roundtrip o;
  let o' = Serialize.of_string (Serialize.to_string o) in
  Alcotest.(check int) "retries survive" 3 o'.Outcome.stats.Outcome.retries

let test_reads_v2_archive () =
  (* a hand-built version-2 line: 4-counter stats, no error status *)
  let v2 =
    "(outcome 2 (dfa lda) (condition ec1) (box (x 0x0p+0 0x1p+0)) \
     (stats 7 40 3 12 0x1p-3) (regions (region 0 (verified) \
     (box (x 0x0p+0 0x1p+0)))))"
  in
  let o = Serialize.of_string v2 in
  Alcotest.(check string) "dfa" "lda" o.Outcome.dfa;
  Alcotest.(check int) "calls" 7 o.Outcome.stats.Outcome.solver_calls;
  Alcotest.(check int) "v2 retries default to zero" 0
    o.Outcome.stats.Outcome.retries;
  (* and version 4 is still rejected *)
  match
    Serialize.of_string
      "(outcome 4 (dfa x) (condition y) (box (x 0x0p+0 0x1p+0)) \
       (stats 1 1 1 1 1 0x0p+0) (regions))"
  with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "version 4 should be rejected"

let test_reads_v1_trace () =
  let v1 =
    "{\"version\":1,\"events\":[{\"path\":[0],\"depth\":1,\"step\":1,\
     \"box\":{\"x\":[0,1]},\"kind\":\"solve\",\"fuel\":5,\"prunes\":2}]}"
  in
  (match Serialize.trace_of_string v1 with
  | [ ev ] -> Alcotest.(check int) "v1 fuel" 5 (Trace.total_fuel [ ev ])
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
  match Serialize.trace_of_string "{\"version\":3,\"events\":[]}" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "trace version 3 should be rejected"

let test_retry_event_roundtrip () =
  let ev =
    {
      Trace.path = [ 1; 0 ];
      depth = 2;
      step = -999;
      box = box1;
      kind = Trace.Retry { attempt = 1; reason = "timeout"; fuel = 42 };
    }
  in
  match Serialize.trace_of_string (Serialize.trace_to_string [ ev ]) with
  | [ ev' ] ->
      check_true "retry event survives" (ev'.Trace.kind = ev.Trace.kind);
      Alcotest.(check int) "negative step survives" (-999) ev'.Trace.step;
      Alcotest.(check int) "retry fuel counted" 42 (Trace.total_fuel [ ev' ])
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

(* Checkpoint entries as the campaign writes them: one line per pair,
   appended with a single write. *)
let append_entry path (o : Outcome.t) =
  Serialize.append_line path
    (Serialize.entry_to_string
       {
         Serialize.outcome = o;
         paths = Some (List.mapi (fun i _ -> [ i ]) o.Outcome.regions);
         metrics_json = Some "{\"version\":1}";
       })

let test_checkpoint_roundtrip () =
  let path = Filename.temp_file "xcv" ".checkpoint" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      Alcotest.(check int) "missing file reads empty" 0
        (List.length (Serialize.read_checkpoint path).Serialize.entries);
      let a = outcome "lyp" "ec1" and b = error_out "boom" in
      append_entry path a;
      append_entry path b;
      let ck = Serialize.read_checkpoint path in
      check_false "clean file has no torn tail" ck.Serialize.truncated;
      Alcotest.(check int) "incremental appends accumulate" 2
        (List.length ck.Serialize.entries);
      let second = List.nth ck.Serialize.entries 1 in
      Alcotest.(check string) "order preserved" "synthetic"
        second.Serialize.outcome.Outcome.dfa;
      check_true "paths survive"
        (second.Serialize.paths = Some [ [ 0 ]; [ 1 ] ]);
      check_true "metrics survive"
        (second.Serialize.metrics_json = Some "{\"version\":1}"))

let test_checkpoint_torn_tail () =
  (* a SIGKILL mid-write leaves a torn last line: the valid prefix must
     read back, [load] proper must still raise *)
  let path = Filename.temp_file "xcv" ".checkpoint" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      append_entry path (error_out "first");
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "(entry (outcome 3 (dfa trunc";
      close_out oc;
      let ck = Serialize.read_checkpoint path in
      check_true "torn tail detected" ck.Serialize.truncated;
      Alcotest.(check int) "valid prefix survives the torn tail" 1
        (List.length ck.Serialize.entries);
      check_true "prefix content intact"
        (Outcome.has_error (List.hd ck.Serialize.entries).Serialize.outcome);
      match Serialize.load path with
      | exception _ -> ()
      | _ -> Alcotest.fail "strict load should reject the torn tail")

let suite =
  [
    case "round-trip LYP EC1" test_roundtrip_lyp;
    case "round-trip VWN EC7" test_roundtrip_vwn;
    case "label escaping" test_label_escaping;
    case "file archive + table rebuild" test_file_archive;
    case "rejects malformed input" test_rejects_garbage;
    case "error status round-trip" test_error_status_roundtrip;
    case "reads v2 archives" test_reads_v2_archive;
    case "reads v1 traces" test_reads_v1_trace;
    case "retry event round-trip" test_retry_event_roundtrip;
    case "checkpoint append + load" test_checkpoint_roundtrip;
    case "checkpoint torn tail" test_checkpoint_torn_tail;
  ]
