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

(* A retry event prints its attempt, reason and fuel after the common
   fields; a negative step prints as such. *)
let test_retry_event_json () =
  let ev =
    {
      Trace.path = [ 1; 0 ];
      depth = 2;
      step = -999;
      box = box1;
      kind = Trace.Retry { attempt = 1; reason = "timeout"; fuel = 42 };
    }
  in
  Alcotest.(check string) "retry event JSON"
    "{\"version\":2,\"events\":[{\"path\":[1,0],\"depth\":2,\"step\":-999,\
     \"box\":{\"x\":[0,1]},\"kind\":\"retry\",\"attempt\":1,\
     \"reason\":\"timeout\",\"fuel\":42}]}"
    (Serialize.trace_to_string [ ev ])

(* Checkpoint entries as the campaign writes them: one line per pair,
   appended with a single write. *)
let append_entry path (o : Outcome.t) =
  Serialize.append_line path
    (Serialize.entry_to_string
       {
         Serialize.outcome = o;
         metrics_json = Some "{\"version\":1}";
       })

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

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

(* The lexer cannot carry an empty atom, so empty labels and an empty
   error message must still print as atoms that read back — and a
   checkpoint holding such an entry must not lose it, or anything after
   it, to the torn-tail repair. *)
let test_empty_strings_roundtrip () =
  let empty = { (error_out "") with Outcome.dfa = ""; condition = "" } in
  check_roundtrip empty;
  let path = Filename.temp_file "xcv" ".checkpoint" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      List.iter (append_entry path)
        [ error_out "first"; empty; error_out "last" ];
      let ck = Serialize.repair_checkpoint path in
      check_false "no torn tail" ck.Serialize.truncated;
      Alcotest.(check (list string)) "all three entries read back"
        [ "synthetic"; ""; "synthetic" ]
        (List.map
           (fun e -> e.Serialize.outcome.Outcome.dfa)
           ck.Serialize.entries);
      check_true "empty error message survives"
        (same_status (Outcome.Error "")
           (List.hd (List.nth ck.Serialize.entries 1).Serialize.outcome
              .Outcome.regions)
             .Outcome.status))

(* The bytes of an entry line are a persisted format: pin one, with an
   embedded metrics snapshot, character for character. *)
let test_entry_line_bytes () =
  let o = { (error_out "a b") with Outcome.dfa = "VWN RPA" } in
  Alcotest.(check string) "entry line"
    "(entry (outcome 3 (dfa VWN%20RPA) (condition ec1) (box (x 0x0p+0 \
     0x1p+0)) (stats 0 0 0 0 3 0x0p+0) (regions (region 0 (error a%20b) \
     (box (x 0x0p+0 0x1p+0))) (region 1 (verified) (box (x 0x0p+0 \
     0x1p+0))))) (metrics %7b%0a%7d))"
    (Serialize.entry_to_string
       {
         Serialize.outcome = o;
         metrics_json = Some "{\n}";
       });
  Alcotest.(check string) "bare entry line around printed bytes"
    ("(entry " ^ Serialize.to_string o ^ ")")
    (Serialize.entry_line (Serialize.to_string o))

(* The crash hooks tear a real entry line: a proper prefix of it, which
   the reader reports as a torn tail and the repair removes. *)
let test_torn_entry () =
  let path = Filename.temp_file "xcv" ".checkpoint" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let o = error_out "first" in
      Serialize.write_header path
        { Serialize.config_hash = "c"; formula_hash = "f" };
      append_entry path o;
      let clean = read_file path in
      Serialize.append_torn_entry path (Serialize.to_string o);
      let torn = read_file path in
      let tail =
        String.sub torn (String.length clean)
          (String.length torn - String.length clean)
      in
      let line = Serialize.entry_line (Serialize.to_string o) in
      check_true "tail is a proper prefix of the entry line"
        (String.length tail > 0
        && String.length tail < String.length line
        && String.equal tail (String.sub line 0 (String.length tail)));
      let ck = Serialize.repair_checkpoint path in
      check_true "torn tail detected" ck.Serialize.truncated;
      Alcotest.(check int) "entry before the tear survives" 1
        (List.length ck.Serialize.entries);
      Alcotest.(check string) "repair restores the clean bytes" clean
        (read_file path))

(* A failed atomic write — which now also writes checkpoint headers —
   leaves the destination byte-identical and no tmp file behind. *)
let test_atomic_write_faults () =
  let path = Filename.temp_file "xcv" ".checkpoint" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let header =
        { Serialize.config_hash = "c"; formula_hash = "f" }
      in
      Serialize.write_header path header;
      append_entry path (error_out "kept");
      let before = read_file path in
      List.iter
        (fun kind ->
          let io_faults = Fault.make_io ~kinds:[ kind ] ~seed:1 ~rate:1.0 () in
          (match
             Serialize.write_file_atomic ~io_faults path
               (Serialize.header_to_string header ^ "\n")
           with
          | () ->
              Alcotest.failf "expected injected %s" (Fault.io_kind_name kind)
          | exception Fault.Io_injected (k, _) when k = kind -> ());
          Alcotest.(check string)
            (Fault.io_kind_name kind ^ " leaves the file byte-identical")
            before (read_file path);
          check_false "no tmp file left behind"
            (Sys.file_exists
               (Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()))))
        [ Fault.Short_write; Fault.Enospc ];
      Serialize.write_header path header;
      let ck = Serialize.read_checkpoint path in
      check_true "a fresh header replaces the file"
        (ck.Serialize.cp_header = Some header && ck.Serialize.entries = []))

(* ------------------------------------------------------------------ *)
(* The s-expression reader every archive, checkpoint and frame uses    *)

let sexp_text s =
  let buf = Buffer.create 64 in
  Parser.Sexp.print buf (Parser.Sexp.parse s);
  Buffer.contents buf

let test_sexp_round_trip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (sexp_text s))
    [
      "a"; "()"; "(a)"; "(a b c)"; "((a) (b (c d)) ())";
      "(entry (outcome 3 (dfa PBE) (stats 0x1.8p+0 -1)))"; "(label \"q\")";
    ];
  check_true "nested structure"
    (Parser.Sexp.parse "(a (b) ())"
    = Parser.Sexp.(List [ Atom "a"; List [ Atom "b" ]; List [] ]))

let test_sexp_whitespace () =
  List.iter
    (fun (s, want) -> Alcotest.(check string) (String.escaped s) want (sexp_text s))
    [
      ("  (a\n\t b   (c) )\n", "(a b (c))");
      ("\n( ( x ) )", "((x))");
      ("\tatom\t", "atom");
    ]

let test_sexp_rejects_malformed () =
  List.iter
    (fun s ->
      match Parser.Sexp.parse s with
      | _ -> Alcotest.failf "%S parsed" s
      | exception Parser.Parse_error _ -> ())
    [ ""; "   "; "("; "(a"; "((a)"; ")"; "(a))"; "a b"; "(a) b" ]

let suite =
  [
    case "round-trip LYP EC1" test_roundtrip_lyp;
    case "round-trip VWN EC7" test_roundtrip_vwn;
    case "label escaping" test_label_escaping;
    case "file archive + table rebuild" test_file_archive;
    case "rejects malformed input" test_rejects_garbage;
    case "error status round-trip" test_error_status_roundtrip;
    case "reads v2 archives" test_reads_v2_archive;
    case "retry event JSON" test_retry_event_json;
    case "checkpoint append + load" test_checkpoint_roundtrip;
    case "checkpoint torn tail" test_checkpoint_torn_tail;
    case "empty labels and messages round-trip" test_empty_strings_roundtrip;
    case "entry line bytes" test_entry_line_bytes;
    case "torn entry hook" test_torn_entry;
    case "atomic write faults leave the file intact" test_atomic_write_faults;
    case "s-expression reader round-trips canonical text" test_sexp_round_trip;
    case "s-expression reader normalises whitespace" test_sexp_whitespace;
    case "s-expression reader rejects malformed text"
      test_sexp_rejects_malformed;
  ]
