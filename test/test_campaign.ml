open Testutil

(* Campaign checkpoint and resume. The contract under test is
   byte-identity: a campaign that is killed and resumed from its
   checkpoint — in process, or by SIGKILL at the CLI — reports the paint
   logs, Table I and deterministic metrics of an uninterrupted run, at any
   worker count; checkpoints that cannot belong to this run are refused by
   name. *)

(* These inherit the ambient fault plan of the @campaign gate: the
   killed, the resumed and the uninterrupted side all read the same
   XCV_FAULT_RATE, and fault decisions are box-keyed, so byte-identity
   must survive a 5% fault rate. *)
let campaign_cfg =
  {
    Verify.default_config with
    threshold = 0.7;
    solver =
      {
        Icp.default_config with
        fuel = 60;
        delta = 1e-3;
        contractor_rounds = 2;
        faults = Fault.of_env ();
      };
    workers = test_workers;
    use_taylor = false;
  }

let lyp = [ Registry.find "lyp" ]
let paint = Serialize.paint_to_string

let temp_dir () =
  let d = Filename.temp_file "xcvcampaign" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let uninterrupted = lazy (Verify.campaign ~config:campaign_cfg lyp)

let header_of cfg =
  {
    Serialize.config_hash = Verify.config_hash cfg;
    formula_hash = Verify.formula_hash (Encoder.encode_all lyp);
  }

(* ---- the resume config-hash guard (regression) ------------------------ *)

let test_config_hash_scope () =
  let cfg = campaign_cfg in
  check_true "fuel is verdict-relevant"
    (Verify.config_hash cfg
    <> Verify.config_hash
         { cfg with Verify.solver = { cfg.Verify.solver with Icp.fuel = 61 } });
  check_true "threshold is verdict-relevant"
    (Verify.config_hash cfg
    <> Verify.config_hash { cfg with Verify.threshold = 0.71 });
  (* scheduling knobs must NOT invalidate a checkpoint: a campaign taken
     at -j4 resumes at -j1 *)
  check_true "workers are excluded"
    (Verify.config_hash cfg = Verify.config_hash { cfg with Verify.workers = 9 });
  check_true "deadline is excluded"
    (Verify.config_hash cfg
    = Verify.config_hash { cfg with Verify.deadline_seconds = Some 1.0 })

(* A resume under a different fuel config must be rejected by the header
   guard before any solving happens. *)
let test_resume_rejects_config_change () =
  let cfg' =
    {
      campaign_cfg with
      Verify.solver = { campaign_cfg.Verify.solver with Icp.fuel = 61 };
    }
  in
  let path = Filename.temp_file "xcv" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.write_header path (header_of campaign_cfg);
      try
        ignore (Verify.campaign ~config:cfg' ~resume:path lyp);
        Alcotest.fail "resume under a different fuel config must be rejected"
      with Failure msg ->
        check_true "error names the configuration"
          (contains_sub msg "different configuration"))

(* ---- killed and resumed in process ------------------------------------ *)

(* A killed-and-resumed campaign reports what an uninterrupted one does:
   the checkpoint is cut back to its first pair's entry plus a torn tail,
   as a SIGKILL mid-append would leave it; the completed pair's metrics
   come back from its checkpoint entry, and the rest are re-solved. *)
let test_resume_keeps_metrics () =
  let ckpt = Filename.concat (temp_dir ()) "camp.ckpt" in
  ignore (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt lyp);
  (match (Serialize.read_checkpoint ckpt).Serialize.entries with
  | first :: _ :: _ ->
      let lines = String.split_on_char '\n' (read_file ckpt) in
      write_file ckpt (List.nth lines 0 ^ "\n" ^ List.nth lines 1 ^ "\n");
      Serialize.append_torn_entry ckpt
        (Serialize.to_string first.Serialize.outcome)
  | _ -> Alcotest.fail "the campaign should checkpoint several pairs");
  let resumed, snap =
    Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp
  in
  let clean, clean_snap = Lazy.force uninterrupted in
  List.iter2
    (fun a b -> Alcotest.(check string) "paint bytes" (paint a) (paint b))
    clean resumed;
  Alcotest.(check string) "Table I byte-identical after resume"
    (Report.table1 clean) (Report.table1 resumed);
  Alcotest.(check string) "deterministic metrics byte-identical after resume"
    (Serialize.deterministic_metrics_to_string clean_snap)
    (Serialize.deterministic_metrics_to_string snap);
  Alcotest.(check int) "every pair on disk" (List.length clean)
    (List.length (Serialize.read_checkpoint ckpt).Serialize.entries)

(* An older format — a header plus plain outcome lines — still resumes:
   those pairs come back verbatim (no metrics), new pairs are appended as
   entries, and the repaint is identical. *)
let test_plain_outcome_checkpoint_resumes () =
  let clean, _ = Lazy.force uninterrupted in
  let ckpt = Filename.concat (temp_dir ()) "camp.ckpt" in
  write_file ckpt
    (Serialize.header_to_string (header_of campaign_cfg)
    ^ "\n"
    ^ Serialize.to_string (List.hd clean)
    ^ "\n");
  let resumed, _ =
    Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "paint bytes" (paint a) (paint b))
    clean resumed;
  Alcotest.(check string) "Table I identical" (Report.table1 clean)
    (Report.table1 resumed);
  match (Serialize.read_checkpoint ckpt).Serialize.entries with
  | first :: rest ->
      check_true "plain line kept as is" (first.Serialize.metrics_json = None);
      Alcotest.(check int) "fresh pairs appended" (List.length clean - 1)
        (List.length rest);
      check_true "fresh pairs carry metrics"
        (List.for_all (fun e -> e.Serialize.metrics_json <> None) rest)
  | [] -> Alcotest.fail "checkpoint lost its entries"

let test_headerless_checkpoint_refused () =
  let clean, _ = Lazy.force uninterrupted in
  let ckpt = Filename.concat (temp_dir ()) "camp.ckpt" in
  let content = Serialize.to_string (List.hd clean) ^ "\n" in
  write_file ckpt content;
  (try
     ignore
       (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt
          lyp);
     Alcotest.fail "a headerless checkpoint must be refused"
   with Failure msg ->
     check_true "error names the path" (contains_sub msg ckpt);
     check_true "error says header" (contains_sub msg "header"));
  Alcotest.(check string) "refused file left untouched" content
    (read_file ckpt)

(* ---- checkpoints written before sharding was removed ------------------ *)

(* One LYP/EC1 entry line as the campaign used to write it: the outcome,
   the region paths the shard merge read, then the pair's metrics. *)
let old_outcome =
  "(outcome 3 (dfa LYP) (condition ec1) (box (rs 0x1p-2 0x1p+0) (s 0x0p+0 \
   0x1p+0)) (stats 1 2 3 4 0 0x0p+0) (regions (region 0 (verified) (box \
   (rs 0x1p-2 0x1p+0) (s 0x0p+0 0x1p+0)))))"

let old_metrics_json =
  "{\"version\": 1, \"deterministic\": {\"counters\": \
   {\"campaign.pairs\": 1}, \"histograms\": {}}, \"wall\": {\"counters\": \
   {}, \"gauges\": {}, \"timers_ns\": {}, \"elapsed_ns\": 0}}"

let old_entry_with ~paths =
  "(entry " ^ old_outcome ^ " (paths " ^ paths ^ ") (metrics "
  ^ Serialize.percent_encode old_metrics_json
  ^ "))"

let old_entry = old_entry_with ~paths:"()"

let old_header ?(shard = "") cfg =
  Printf.sprintf "(campaign-header 3 (config %s) (formula %s)%s)"
    (Verify.config_hash cfg)
    (Verify.formula_hash (Encoder.encode_all lyp))
    shard

(* An unsharded checkpoint of that format resumes — its pair reused with
   its metrics, the [paths] field skipped — gains entries without paths,
   and still loads as an archive for [replay]. *)
let test_old_unsharded_checkpoint_resumes () =
  let ckpt = Filename.concat (temp_dir ()) "old.ckpt" in
  let old = old_header campaign_cfg ^ "\n" ^ old_entry ^ "\n" in
  write_file ckpt old;
  let resumed, snap =
    Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp
  in
  let clean, _ = Lazy.force uninterrupted in
  Alcotest.(check int) "pair count" (List.length clean) (List.length resumed);
  Alcotest.(check string) "the old pair is reused verbatim" old_outcome
    (Serialize.to_string (List.hd resumed));
  Alcotest.(check int) "its metrics are folded in" (List.length clean)
    (List.assoc "campaign.pairs" snap.Obs.Metrics.counters);
  let content = read_file ckpt in
  check_true "the old lines are kept"
    (String.equal old (String.sub content 0 (String.length old)));
  check_false "new entries carry no paths"
    (contains_sub
       (String.sub content (String.length old)
          (String.length content - String.length old))
       "(paths");
  let replayed = Serialize.load ckpt in
  Alcotest.(check (list string)) "replay loads every pair"
    (List.map Serialize.to_string resumed)
    (List.map Serialize.to_string replayed)

(* A checkpoint of one process of a sharded campaign is refused by name,
   for resume and for replay, and left untouched. *)
let test_sharded_checkpoint_refused () =
  let ckpt = Filename.concat (temp_dir ()) "camp.shard1" in
  let content =
    old_header ~shard:" (shard 1 2)" campaign_cfg ^ "\n" ^ old_entry ^ "\n"
  in
  write_file ckpt content;
  let expect_refusal what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a sharded checkpoint" what
    | exception Failure msg ->
        check_true (what ^ ": error names the path") (contains_sub msg ckpt);
        check_true
          (what ^ ": error says sharded checkpoints cannot be resumed")
          (contains_sub msg "sharded checkpoints can no longer be resumed")
  in
  expect_refusal "resume" (fun () ->
      ignore
        (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt
           lyp));
  expect_refusal "replay" (fun () -> ignore (Serialize.load ckpt));
  Alcotest.(check string) "refused file left untouched" content
    (read_file ckpt)

(* The paths field is skipped whatever its shape: the region paths of a
   pair that split, nested lists and all, as the merge used to read them.
   The entry keeps its outcome and metrics, [load] reads it for [replay],
   and a torn tail after it is cut back to the parent-format bytes. *)
let test_region_paths_skipped () =
  let ckpt = Filename.concat (temp_dir ()) "old.ckpt" in
  let old =
    old_header campaign_cfg ^ "\n"
    ^ old_entry_with ~paths:"(0) (0 1) (1 0 1) (1 1 0 0)"
    ^ "\n"
  in
  write_file ckpt old;
  let ck = Serialize.read_checkpoint ckpt in
  (match ck.Serialize.cp_header with
  | Some h ->
      Alcotest.(check string) "config hash" (header_of campaign_cfg).config_hash
        h.Serialize.config_hash;
      Alcotest.(check string) "formula hash"
        (header_of campaign_cfg).formula_hash h.Serialize.formula_hash
  | None -> Alcotest.fail "the parent header was not read");
  check_false "not torn" ck.Serialize.truncated;
  (match ck.Serialize.entries with
  | [ e ] ->
      Alcotest.(check string) "outcome bytes" old_outcome
        (Serialize.to_string e.Serialize.outcome);
      Alcotest.(check (option string)) "metrics" (Some old_metrics_json)
        e.Serialize.metrics_json
  | es -> Alcotest.failf "expected one entry, read %d" (List.length es));
  Alcotest.(check (list string)) "load reads the pair" [ old_outcome ]
    (List.map Serialize.to_string (Serialize.load ckpt));
  Serialize.append_torn_entry ckpt old_outcome;
  check_true "tail is torn" (Serialize.read_checkpoint ckpt).Serialize.truncated;
  ignore (Serialize.repair_checkpoint ckpt);
  Alcotest.(check string) "repair cuts back to the parent-format lines" old
    (read_file ckpt)

(* A checkpoint of another formula set (here, another functional) is
   refused by the formula guard before any solving happens. *)
let pbe_header cfg =
  {
    (header_of cfg) with
    Serialize.formula_hash =
      Verify.formula_hash (Encoder.encode_all [ Registry.find "pbe" ]);
  }

let test_resume_rejects_formula_change () =
  let path = Filename.concat (temp_dir ()) "pbe.ckpt" in
  Serialize.write_header path (pbe_header campaign_cfg);
  match Verify.campaign ~config:campaign_cfg ~resume:path lyp with
  | _ -> Alcotest.fail "resume of another formula set must be rejected"
  | exception Failure msg ->
      check_true "error names the path" (contains_sub msg path);
      check_true "error says the campaign differs"
        (contains_sub msg "different campaign")

(* A refused resume writes nothing: the --checkpoint file of an earlier
   run survives a resume from the wrong file, whatever the refusal. *)
let test_refused_resume_keeps_checkpoint () =
  let dir = temp_dir () in
  let ckpt = Filename.concat dir "camp.ckpt" in
  let kept = old_header campaign_cfg ^ "\n" ^ old_entry ^ "\n" in
  write_file ckpt kept;
  List.iteri
    (fun i (what, content) ->
      let src = Filename.concat dir (Printf.sprintf "src%d.ckpt" i) in
      write_file src content;
      (match
         Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:src lyp
       with
      | _ -> Alcotest.failf "a resume from %s was accepted" what
      | exception Failure msg ->
          check_true (what ^ ": error names the resume file")
            (contains_sub msg src));
      Alcotest.(check string) (what ^ ": checkpoint left untouched") kept
        (read_file ckpt))
    [
      ( "another configuration",
        old_header { campaign_cfg with Verify.threshold = 0.71 } ^ "\n" );
      ( "another formula set",
        Serialize.header_to_string (pbe_header campaign_cfg) ^ "\n" );
      ( "a sharded campaign",
        old_header ~shard:" (shard 0 2)" campaign_cfg ^ "\n" ^ old_entry ^ "\n"
      );
      ("a headerless file", old_outcome ^ "\n");
    ]

(* ---- one parallel path: worker domains -------------------------------- *)

let circle_atom =
  Form.ge
    (Expr.sub
       (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
       (Expr.int 2))

let circle_domain =
  Box.make
    [ ("x", Interval.make (-2.0) 2.0); ("y", Interval.make (-2.0) 2.0) ]

(* One pair, the circle, at [workers] domains under a private metrics
   instance *)
let circle_run workers =
  let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Metrics.install prev))
    (fun () ->
      let o =
        Verify.run_custom
          ~config:{ campaign_cfg with Verify.threshold = 0.4; workers }
          ~dfa_label:"prop" ~condition_label:"circle" ~domain:circle_domain
          ~psi:circle_atom ()
      in
      (o, Obs.Metrics.snapshot ()))

(* Worker domains are the one way a pair runs in parallel: its paint
   bytes, Table I row and deterministic metrics are those of one worker at
   2 and 4, under the gate's ambient fault plan too. *)
let test_worker_count_independent () =
  let base, base_snap = circle_run 1 in
  check_true "the pair actually splits"
    (List.length base.Outcome.regions > 4);
  List.iter
    (fun workers ->
      let o, snap = circle_run workers in
      let tag what = Printf.sprintf "%s at %d workers" what workers in
      Alcotest.(check string) (tag "paint bytes") (paint base) (paint o);
      Alcotest.(check string) (tag "Table I")
        (Report.table1 [ base ])
        (Report.table1 [ o ]);
      Alcotest.(check string)
        (tag "deterministic metrics")
        (Serialize.deterministic_metrics_to_string base_snap)
        (Serialize.deterministic_metrics_to_string snap))
    [ 2; 4 ]

(* ---- resume, in process ----------------------------------------------- *)

(* The bytes of a finished checkpoint of the uninterrupted campaign *)
let checkpointed =
  lazy
    (let ckpt = Filename.concat (temp_dir ()) "full.ckpt" in
     ignore (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt lyp);
     read_file ckpt)

(* Keep a checkpoint's header and first entry, as a kill right after the
   first pair leaves it *)
let cut_after_first_entry ckpt =
  match String.split_on_char '\n' (read_file ckpt) with
  | header :: first :: _ :: _ -> write_file ckpt (header ^ "\n" ^ first ^ "\n")
  | _ -> Alcotest.fail "the campaign should checkpoint several pairs"

let check_uninterrupted (resumed, snap) =
  let clean, clean_snap = Lazy.force uninterrupted in
  Alcotest.(check int) "pair count" (List.length clean) (List.length resumed);
  List.iter2
    (fun a b -> Alcotest.(check string) "paint bytes" (paint a) (paint b))
    clean resumed;
  Alcotest.(check string) "Table I" (Report.table1 clean)
    (Report.table1 resumed);
  Alcotest.(check string) "deterministic metrics"
    (Serialize.deterministic_metrics_to_string clean_snap)
    (Serialize.deterministic_metrics_to_string snap)

(* The worker count is no part of the checkpoint: one written at the
   other scheduler setting resumes here to the uninterrupted run. *)
let test_resume_across_worker_counts () =
  let other = if test_workers = 1 then 2 else 1 in
  let ckpt = Filename.concat (temp_dir ()) "camp.ckpt" in
  ignore
    (Verify.campaign
       ~config:{ campaign_cfg with Verify.workers = other }
       ~checkpoint:ckpt lyp);
  cut_after_first_entry ckpt;
  check_uninterrupted
    (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp)

(* Resuming into another --checkpoint file leaves the source as it was and
   makes the new file self-contained: this run's header, the resumed entry
   as it was, then every fresh pair. *)
let test_resume_into_another_file () =
  let dir = temp_dir () in
  let src = Filename.concat dir "src.ckpt" in
  let dst = Filename.concat dir "dst.ckpt" in
  write_file src (Lazy.force checkpointed);
  cut_after_first_entry src;
  let cut = read_file src in
  check_uninterrupted
    (Verify.campaign ~config:campaign_cfg ~checkpoint:dst ~resume:src lyp);
  Alcotest.(check string) "resume source left untouched" cut (read_file src);
  let full = Serialize.read_checkpoint dst in
  check_false "not torn" full.Serialize.truncated;
  Alcotest.(check (option string)) "this run's header"
    (Some (Serialize.header_to_string (header_of campaign_cfg)))
    (Option.map Serialize.header_to_string full.Serialize.cp_header);
  Alcotest.(check string) "the resumed entry is copied as it was" cut
    (String.sub (read_file dst) 0 (String.length cut));
  let clean, _ = Lazy.force uninterrupted in
  Alcotest.(check (list string)) "every pair on disk"
    (List.map paint clean)
    (List.map (fun e -> paint e.Serialize.outcome) full.Serialize.entries)

(* A finished checkpoint resumes to the uninterrupted run without solving
   a pair: every solved pair would be appended, and the file is unchanged. *)
let test_completed_checkpoint_resumes () =
  let ckpt = Filename.concat (temp_dir ()) "done.ckpt" in
  let full = Lazy.force checkpointed in
  write_file ckpt full;
  check_uninterrupted
    (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp);
  Alcotest.(check string) "nothing appended" full (read_file ckpt)

(* The progress line keeps its own cumulative totals: the per-pair metrics
   instances must not reset it. *)
let test_progress_totals () =
  let log = Filename.temp_file "xcvprogress" ".log" in
  let oc = open_out log in
  Obs.Progress.enable ~interval_ns:1 ~out:oc
    ~total_pairs:(Conditions.count_pairs lyp) ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.disable ();
      close_out oc)
    (fun () -> ignore (Verify.campaign ~config:campaign_cfg lyp));
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file log))
  in
  Sys.remove log;
  let fields =
    List.map
      (fun l ->
        Scanf.sscanf l "[campaign] pairs %d/%d boxes %d" (fun p _ b -> (p, b)))
      lines
  in
  check_true "progress lines emitted" (List.length fields >= 2);
  check_true "pairs becomes nonzero" (List.exists (fun (p, _) -> p > 0) fields);
  ignore
    (List.fold_left
       (fun prev (_, b) ->
         if b < prev then Alcotest.failf "boxes fell from %d to %d" prev b;
         b)
       0 fields)

(* ---- the CLI end to end ----------------------------------------------- *)

let spawn_cli ~cli ~log args =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out out
  in
  Unix.close out;
  pid

let cli_status ~cli ~log args = snd (Unix.waitpid [] (spawn_cli ~cli ~log args))

(* Run the CLI to completion, appending its output to [log]; a non-zero
   exit fails the test. *)
let run_cli ~cli ~log args =
  match cli_status ~cli ~log args with
  | Unix.WEXITED 0 -> ()
  | st ->
      Alcotest.failf "CLI %s: %s" (String.concat " " args)
        (status_to_string st)

(* The outcome bytes of an archive, wall-clock elapsed zeroed *)
let archive_bytes path =
  List.map
    (fun o ->
      Serialize.to_string
        { o with Outcome.stats = { o.Outcome.stats with Outcome.elapsed = 0.0 } })
    (Serialize.load path)

(* A `campaign --checkpoint F -j 2` process is SIGKILLed from outside once
   F holds an entry, F's tail is torn as a kill mid-append would leave it,
   and `campaign --checkpoint F --resume F --save S` then saves the archive
   and deterministic metrics of an uninterrupted run. OCaml 5 forbids
   Unix.fork once domains exist, so the CLI is spawned with
   create_process; the gate (test/dune) supplies the binary via XCV_CLI,
   and only the workers=2 pass runs it — the CLI's -j is pinned to 2. *)
let test_sigkill_resume_cli () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some _ when test_workers <> 2 -> ()
  | Some cli ->
      let dir = temp_dir () in
      let path name = Filename.concat dir name in
      let log = path "cli.log" in
      let flags =
        [
          "campaign"; "--fuel"; "60"; "--threshold"; "0.7"; "--delta";
          "1e-3"; "-j"; "2";
        ]
      in
      run_cli ~cli ~log
        (flags @ [ "--save"; path "un.save"; "--metrics"; path "un.json" ]);
      let ckpt = path "camp.ckpt" in
      let pid = spawn_cli ~cli ~log (flags @ [ "--checkpoint"; ckpt ]) in
      let rec await_entry () =
        match (Serialize.read_checkpoint ckpt).Serialize.entries with
        | _ :: _ -> ()
        | [] -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
                Unix.sleepf 0.005;
                await_entry ()
            | _, st ->
                Alcotest.failf "campaign ended before its first entry: %s"
                  (status_to_string st))
      in
      await_entry ();
      Unix.kill pid Sys.sigkill;
      (match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
      | _, st ->
          Alcotest.failf "expected the campaign to die by SIGKILL, got %s"
            (status_to_string st));
      let ck = Serialize.read_checkpoint ckpt in
      let total = Conditions.count_pairs Registry.paper_five in
      check_true "killed mid-campaign"
        (List.length ck.Serialize.entries < total);
      let last = List.nth ck.Serialize.entries (List.length ck.Serialize.entries - 1) in
      Serialize.append_torn_entry ckpt
        (Serialize.to_string last.Serialize.outcome);
      check_true "tail is torn" (Serialize.read_checkpoint ckpt).Serialize.truncated;
      run_cli ~cli ~log
        (flags
        @ [ "--checkpoint"; ckpt; "--resume"; ckpt; "--save"; path "re.save";
            "--metrics"; path "re.json" ]);
      Alcotest.(check (list string)) "archive equals the uninterrupted run's"
        (archive_bytes (path "un.save"))
        (archive_bytes (path "re.save"));
      let det p =
        Serialize.deterministic_metrics_to_string
          (Serialize.metrics_of_string (read_file p))
      in
      Alcotest.(check string) "deterministic metrics byte-identical"
        (det (path "un.json"))
        (det (path "re.json"))

(* `campaign --quick` builds its config from the preset's budgets plus the
   fault and retry flags, so an injected fault rate paints error regions.
   The full 29-pair quick campaign runs once, in the workers=2 pass only;
   a 100% fault rate keeps it short, since faulted boxes are never
   solved. *)
let test_quick_honours_fault_flags () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some _ when test_workers <> 2 -> ()
  | Some cli ->
      let dir = temp_dir () in
      let save = Filename.concat dir "quick.save" in
      run_cli ~cli ~log:(Filename.concat dir "cli.log")
        [
          "campaign"; "--quick"; "--fault-rate"; "1"; "-j"; "2"; "--save";
          save;
        ];
      let outcomes = Serialize.load save in
      Alcotest.(check int) "every pair has an outcome"
        (Conditions.count_pairs Registry.paper_five)
        (List.length outcomes);
      check_true "--fault-rate paints error regions under --quick"
        (List.for_all Outcome.has_error outcomes)

(* Run the CLI and require exit [code] and output naming every [says] —
   an error message, never an uncaught exception. *)
let expect_cli_exit ~cli ~code ~says args =
  let log = Filename.concat (temp_dir ()) "cli.log" in
  let cmd = String.concat " " args in
  (match cli_status ~cli ~log args with
  | Unix.WEXITED c when c = code -> ()
  | st ->
      Alcotest.failf "CLI %s: expected exit %d, got %s" cmd code
        (status_to_string st));
  let out = read_file log in
  List.iter
    (fun s ->
      check_true (Printf.sprintf "%s: output says %S" cmd s)
        (contains_sub out s))
    says;
  check_false (cmd ^ ": no uncaught exception")
    (contains_sub out "uncaught exception")

(* `replay` of a sharded checkpoint prints the refusal, naming the file,
   and exits 2. *)
let test_replay_refuses_sharded_cli () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some cli ->
      let ckpt = Filename.concat (temp_dir ()) "camp.shard0" in
      write_file ckpt
        (old_header ~shard:" (shard 0 2)" campaign_cfg ^ "\n" ^ old_entry
       ^ "\n");
      expect_cli_exit ~cli ~code:2
        ~says:[ ckpt; "sharded checkpoints can no longer be resumed" ]
        [ "replay"; ckpt ]

(* `replay` of a malformed or a missing archive prints what is wrong with
   which file and exits 2. *)
let test_replay_reports_unreadable_cli () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some cli ->
      let dir = temp_dir () in
      let bad = Filename.concat dir "bad.sexp" in
      write_file bad "(outcome 3 (dfa LYP)\n";
      expect_cli_exit ~cli ~code:2 ~says:[ bad ] [ "replay"; bad ];
      let missing = Filename.concat dir "missing.sexp" in
      expect_cli_exit ~cli ~code:2 ~says:[ missing ] [ "replay"; missing ]

(* The process-sharding flags are gone: each is a usage error, and no
   campaign runs. *)
let test_shard_flags_refused_cli () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some cli ->
      let save = Filename.concat (temp_dir ()) "camp.save" in
      List.iter
        (fun (flag, value) ->
          expect_cli_exit ~cli ~code:124
            ~says:[ Printf.sprintf "unknown option '%s'" flag ]
            [ "campaign"; flag; value; "--save"; save ];
          check_false (flag ^ ": no archive saved") (Sys.file_exists save))
        [ ("--shard", "0/2"); ("--shards", "2"); ("--merge", save) ]

(* "-" names stdout only for the outputs that can be printed ([--metrics],
   [--trace]); the archive and the checkpoint are files, so "-" is a usage
   error for them, and no campaign runs and no file named "-" appears in
   the working directory the CLI inherits. *)
let test_stdout_refused_for_files_cli () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some cli ->
      check_false "no file named - before" (Sys.file_exists "-");
      List.iter
        (fun flag ->
          (* the message may wrap between any two words *)
          expect_cli_exit ~cli ~code:124 ~says:[ flag; "(stdout)" ]
            [ "campaign"; "--fuel"; "2"; "-t"; "0.9"; flag; "-" ];
          check_false (flag ^ ": no file named -") (Sys.file_exists "-"))
        [ "--save"; "--checkpoint" ]

let suite =
  [
    case "config hash scope" test_config_hash_scope;
    case "resume rejects a config change" test_resume_rejects_config_change;
    case "sharded checkpoint refused" test_sharded_checkpoint_refused;
    slow_case "resume keeps metrics" test_resume_keeps_metrics;
    slow_case "plain-outcome checkpoint resumes"
      test_plain_outcome_checkpoint_resumes;
    slow_case "headerless checkpoint refused"
      test_headerless_checkpoint_refused;
    slow_case "checkpoint with region paths resumes and replays"
      test_old_unsharded_checkpoint_resumes;
    slow_case "progress totals" test_progress_totals;
    slow_case "SIGKILLed campaign resumes identically (CLI)"
      test_sigkill_resume_cli;
    slow_case "--quick honours the fault flags (CLI)"
      test_quick_honours_fault_flags;
    case "region paths of any shape are skipped" test_region_paths_skipped;
    case "resume rejects another formula set"
      test_resume_rejects_formula_change;
    case "refused resume leaves the checkpoint untouched"
      test_refused_resume_keeps_checkpoint;
    case "worker count independence (pair level)"
      test_worker_count_independent;
    slow_case "resume across worker counts" test_resume_across_worker_counts;
    slow_case "resume into another checkpoint file"
      test_resume_into_another_file;
    slow_case "completed checkpoint resumes without solving"
      test_completed_checkpoint_resumes;
    slow_case "replay refuses a sharded checkpoint (CLI)"
      test_replay_refuses_sharded_cli;
    slow_case "replay reports an unreadable archive (CLI)"
      test_replay_reports_unreadable_cli;
    slow_case "removed shard flags are refused (CLI)"
      test_shard_flags_refused_cli;
    slow_case "--save - and --checkpoint - are refused (CLI)"
      test_stdout_refused_for_files_cli;
  ]
