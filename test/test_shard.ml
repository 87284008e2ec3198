open Testutil

(* Distributed campaigns: multi-process sharding with a deterministic,
   certified merge. The contract under test is byte-identity — a sharded
   run's merged paint log, Table I render and deterministic metrics
   section must equal the unsharded run's at any shard count and any
   per-shard worker count, including after a shard is SIGKILLed mid-run
   and restarted by the supervisor from its torn-tail checkpoint. *)

(* ---- the single-pair problem (the resilience suite's circle) --------- *)

let circle_atom =
  Form.ge
    (Expr.sub
       (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
       (Expr.int 2))

let domain =
  Box.make
    [ ("x", Interval.make (-2.0) 2.0); ("y", Interval.make (-2.0) 2.0) ]

(* faults pinned to None: the byte-compared runs must not pick up the
   ambient XCV_FAULT_RATE of the @shard/@faults gates (the campaign-level
   tests below DO inherit it, deliberately — fault decisions are box-keyed
   and therefore partition across shards like any other verdict). *)
let config ?(workers = 1) () =
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

let with_fresh_instance f =
  let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Metrics.install prev))
    f

let paint = Serialize.paint_to_string

(* One shard's slice of the circle pair, run under a private metrics
   instance — the in-memory analogue of one `campaign --shard i/N`. *)
let shard_slice ?config:(cfg = config ()) ~index ~count () =
  with_fresh_instance @@ fun () ->
  let o, paths =
    Verify.run_custom_sharded ~config:cfg
      ~shard:{ Verify.shard_index = index; shard_count = count }
      ~dfa_label:"prop" ~condition_label:"circle" ~domain ~psi:circle_atom ()
  in
  {
    Shard_merge.index;
    count;
    pairs = [ (o, paths) ];
    metrics = Obs.Metrics.snapshot ();
  }

let unsharded ?config:(cfg = config ()) () =
  with_fresh_instance @@ fun () ->
  let o, paths =
    Verify.run_custom_sharded ~config:cfg ~dfa_label:"prop"
      ~condition_label:"circle" ~domain ~psi:circle_atom ()
  in
  ((o, paths), Obs.Metrics.snapshot ())

(* ---- partition independence ------------------------------------------ *)

(* The tentpole contract at pair level: shards ∈ {1,2,4} × workers ∈ {1,4},
   merged paint bytes, Table I and deterministic metrics all equal the
   unsharded run's. *)
let test_partition_independent () =
  let (base_o, _), base_snap = unsharded () in
  let base_paint = paint base_o in
  let base_table = Report.table1 [ base_o ] in
  let base_det = Serialize.deterministic_metrics_to_string base_snap in
  check_true "the pair actually splits (so sharding is non-trivial)"
    (List.length base_o.Outcome.regions > 4);
  List.iter
    (fun count ->
      List.iter
        (fun workers ->
          let tag what =
            Printf.sprintf "%s at %d shards x %d workers" what count workers
          in
          let runs =
            List.init count (fun index ->
                shard_slice ~config:(config ~workers ()) ~index ~count ())
          in
          match Shard_merge.merge_runs runs with
          | Error m -> Alcotest.fail m
          | Ok m ->
              let mo = List.hd m.Shard_merge.outcomes in
              Alcotest.(check string) (tag "paint bytes") base_paint (paint mo);
              Alcotest.(check string) (tag "Table I") base_table
                (Report.table1 m.Shard_merge.outcomes);
              Alcotest.(check string)
                (tag "deterministic metrics")
                base_det
                (Serialize.deterministic_metrics_to_string
                   m.Shard_merge.metrics))
        [ 1; 4 ])
    [ 1; 2; 4 ]

(* ---- the merge algebra (QCheck) -------------------------------------- *)

let slices4 = lazy (List.init 4 (fun index -> shard_slice ~index ~count:4 ()))

let pair_fp ((o : Outcome.t), paths) =
  paint o ^ "#"
  ^ String.concat "|"
      (List.map
         (fun p -> String.concat "." (List.map string_of_int p))
         paths)

let merged_fp runs =
  match Shard_merge.merge_runs runs with
  | Ok m ->
      paint (List.hd m.Shard_merge.outcomes)
      ^ Serialize.deterministic_metrics_to_string m.Shard_merge.metrics
  | Error e -> "error: " ^ e

(* merge_runs is insensitive to the order its shard runs arrive in. *)
let prop_merge_commutative =
  qcheck ~count:50 "shard merge is permutation-invariant"
    (QCheck2.Gen.shuffle_l [ 0; 1; 2; 3 ])
    (fun order ->
      let slices = Lazy.force slices4 in
      let shuffled = List.map (fun i -> List.nth slices i) order in
      String.equal (merged_fp shuffled) (merged_fp slices))

(* merge_pair is associative and commutative: any fold order over the four
   disjoint slices of the pair rebuilds the same full paint log. *)
let prop_merge_pair_associative =
  qcheck ~count:50 "pairwise region merge is fold-order independent"
    (QCheck2.Gen.shuffle_l [ 0; 1; 2; 3 ])
    (fun order ->
      let slices =
        List.map
          (fun (r : Shard_merge.shard_run) -> List.hd r.Shard_merge.pairs)
          (Lazy.force slices4)
      in
      let pick i = List.nth slices i in
      let left =
        List.fold_left
          (fun acc i -> Shard_merge.merge_pair acc (pick i))
          (pick (List.hd order))
          (List.tl order)
      in
      let a, b, c, d = (pick 0, pick 1, pick 2, pick 3) in
      let balanced =
        Shard_merge.merge_pair
          (Shard_merge.merge_pair a b)
          (Shard_merge.merge_pair c d)
      in
      String.equal (pair_fp left) (pair_fp balanced))

(* ---- in-memory merge validation -------------------------------------- *)

let expect_error ~sub runs =
  match Shard_merge.merge_runs runs with
  | Ok _ -> Alcotest.failf "merge accepted invalid input (wanted %S)" sub
  | Error m ->
      check_true (Printf.sprintf "error %S mentions %S" m sub)
        (contains_sub m sub)

let test_merge_rejects_bad_partitions () =
  let s0 = shard_slice ~index:0 ~count:2 ()
  and s1 = shard_slice ~index:1 ~count:2 () in
  expect_error ~sub:"overlapping shard prefixes"
    [ s0; { s1 with Shard_merge.index = 0 } ];
  expect_error ~sub:"shard count mismatch"
    [ s0; { s1 with Shard_merge.count = 3 } ];
  expect_error ~sub:"expected 2 shards" [ s0 ];
  expect_error ~sub:"different pair set" [ s0; { s1 with Shard_merge.pairs = [] } ];
  expect_error ~sub:"overlapping shard regions"
    [ s0; { s1 with Shard_merge.pairs = s0.Shard_merge.pairs } ]

(* ---- campaign-level fixtures (lyp, 2 shards, on disk) ----------------- *)

(* These inherit the ambient fault plan of the @shard gate: both the
   sharded and the unsharded side read the same XCV_FAULT_RATE, and the
   box-keyed fault decisions partition across shards exactly like
   verdicts, so byte-identity must survive a 5% fault rate. *)
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

let temp_dir () =
  let d = Filename.temp_file "xcvshard" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

(* Two shard checkpoints of the lyp campaign, written once and copied into
   scratch directories by the validation cases that mutate them. *)
let shard_files =
  lazy
    (let base = Filename.concat (temp_dir ()) "camp" in
     for i = 0 to 1 do
       ignore
         (Verify.campaign ~config:campaign_cfg
            ~shard:{ Verify.shard_index = i; shard_count = 2 }
            ~checkpoint:(Shard_merge.shard_path base i)
            lyp)
     done;
     base)

let unsharded_campaign =
  lazy
    (let pairs, snap = Verify.campaign ~config:campaign_cfg lyp in
     (List.map fst pairs, snap))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Copy the fixture's shard files to a fresh base, optionally rewriting
   one of them, then return the new base for merge_files. *)
let scratch_base ?(mutate = fun _i s -> Some s) () =
  let base = Lazy.force shard_files in
  let dest = Filename.concat (temp_dir ()) "camp" in
  for i = 0 to 1 do
    match mutate i (read_file (Shard_merge.shard_path base i)) with
    | Some s -> write_file (Shard_merge.shard_path dest i) s
    | None -> ()
  done;
  dest

let test_merge_files_reproduces_unsharded () =
  let base = Lazy.force shard_files in
  match Shard_merge.merge_files ~base with
  | Error m -> Alcotest.fail m
  | Ok m ->
      let clean, clean_snap = Lazy.force unsharded_campaign in
      Alcotest.(check int) "pair count" (List.length clean)
        (List.length m.Shard_merge.outcomes);
      List.iter2
        (fun a b ->
          Alcotest.(check string)
            (Printf.sprintf "paint bytes of %s/%s" a.Outcome.dfa
               a.Outcome.condition)
            (paint a) (paint b))
        clean m.Shard_merge.outcomes;
      Alcotest.(check string) "Table I byte-identical" (Report.table1 clean)
        (Report.table1 m.Shard_merge.outcomes);
      Alcotest.(check string) "deterministic metrics byte-identical"
        (Serialize.deterministic_metrics_to_string clean_snap)
        (Serialize.deterministic_metrics_to_string m.Shard_merge.metrics)

let expect_files_error ~sub base =
  match Shard_merge.merge_files ~base with
  | Ok _ -> Alcotest.failf "merge_files accepted bad input (wanted %S)" sub
  | Error m ->
      check_true (Printf.sprintf "error %S mentions %S" m sub)
        (contains_sub m sub)

let rewrite_header f content =
  match String.index_opt content '\n' with
  | None -> Alcotest.fail "shard checkpoint has no header line"
  | Some nl ->
      let header = Serialize.header_of_string (String.sub content 0 nl) in
      Serialize.header_to_string (f header)
      ^ String.sub content nl (String.length content - nl)

let test_merge_files_negatives () =
  (* a missing shard file is named *)
  expect_files_error ~sub:"missing shard file"
    (scratch_base ~mutate:(fun i s -> if i = 1 then None else Some s) ());
  (* the torn-tail loader reports WHICH shard is truncated *)
  let torn =
    scratch_base
      ~mutate:(fun i s ->
        if i = 1 then Some (String.sub s 0 (String.length s - 40)) else Some s)
      ()
  in
  (match Shard_merge.merge_files ~base:torn with
  | Ok _ -> Alcotest.fail "merge accepted a truncated shard"
  | Error m ->
      check_true "truncation names shard 1" (contains_sub m "shard 1");
      check_true "truncation says torn tail" (contains_sub m "torn tail"));
  (* a checkpoint from a different campaign (formula hash) *)
  expect_files_error ~sub:"different campaign"
    (scratch_base
       ~mutate:(fun i s ->
         if i = 1 then
           Some
             (rewrite_header
                (fun h ->
                  { h with Serialize.formula_hash = Serialize.digest "other" })
                s)
         else Some s)
       ());
  (* a checkpoint from a different configuration *)
  expect_files_error ~sub:"different configuration"
    (scratch_base
       ~mutate:(fun i s ->
         if i = 1 then
           Some
             (rewrite_header
                (fun h ->
                  { h with Serialize.config_hash = Serialize.digest "other" })
                s)
         else Some s)
       ());
  (* overlapping prefixes: shard 0's file masquerading as shard 1 *)
  let base = Lazy.force shard_files in
  expect_files_error ~sub:"overlapping shard prefixes"
    (scratch_base
       ~mutate:(fun i _ ->
         Some (read_file (Shard_merge.shard_path base (if i = 1 then 0 else i))))
       ())

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
  let header =
    {
      Serialize.config_hash = Verify.config_hash campaign_cfg;
      formula_hash = Verify.formula_hash (Encoder.encode_all lyp);
      shard = None;
    }
  in
  let path = Filename.temp_file "xcv" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.write_header path header;
      try
        ignore (Verify.campaign ~config:cfg' ~resume:path lyp);
        Alcotest.fail "resume under a different fuel config must be rejected"
      with Failure msg ->
        check_true "error names the configuration"
          (contains_sub msg "different configuration"))

let test_shard_resume_rejects_wrong_coords () =
  let base = Lazy.force shard_files in
  let dest = Filename.concat (temp_dir ()) "camp" in
  let ckpt = Shard_merge.shard_path dest 0 in
  try
    ignore
      (Verify.campaign ~config:campaign_cfg
         ~shard:{ Verify.shard_index = 0; shard_count = 2 }
         ~checkpoint:ckpt
         ~resume:(Shard_merge.shard_path base 1)
         lyp);
    Alcotest.fail "resuming shard 0 from shard 1's checkpoint must fail"
  with Failure msg ->
    check_true "error names the shard coordinates"
      (contains_sub msg "shard")

(* ---- golden fixture --------------------------------------------------- *)

let golden_path = "fixtures/shard_merge_golden.json"

(* A frozen-clock 2-shard merge of a fixed pair (the obs suite's unit
   circle at a coarse threshold), pinning the merged paint log and the
   merged deterministic metrics section byte for byte. *)
let golden_json () =
  let psi =
    Form.ge
      (Expr.sub
         (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
         (Expr.int 1))
  in
  let cfg =
    {
      (config ()) with
      Verify.threshold = 1.0;
      solver = { (config ()).Verify.solver with Icp.fuel = 40 };
    }
  in
  Obs.Clock.with_frozen 0 @@ fun () ->
  let slice index =
    with_fresh_instance @@ fun () ->
    let o, paths =
      Verify.run_custom_sharded ~config:cfg
        ~shard:{ Verify.shard_index = index; shard_count = 2 }
        ~dfa_label:"shard-golden" ~condition_label:"circle" ~domain ~psi ()
    in
    {
      Shard_merge.index;
      count = 2;
      pairs = [ (o, paths) ];
      metrics = Obs.Metrics.snapshot ();
    }
  in
  match Shard_merge.merge_runs [ slice 0; slice 1 ] with
  | Error m -> Alcotest.fail m
  | Ok m ->
      let paint_lines =
        String.split_on_char '\n'
          (String.trim (paint (List.hd m.Shard_merge.outcomes)))
      in
      Serialize.Json.to_string
        (Serialize.Json.Obj
           [
             ("version", Serialize.Json.Num 1.0);
             ("shards", Serialize.Json.Num 2.0);
             ( "paint",
               Serialize.Json.Arr
                 (List.map (fun l -> Serialize.Json.Str l) paint_lines) );
             ( "deterministic",
               Serialize.Json.of_string
                 (Serialize.deterministic_metrics_to_string
                    m.Shard_merge.metrics) );
           ])

let test_shard_merge_golden () =
  let json = golden_json () in
  (* Regenerate with:
     XCV_WRITE_SHARD_GOLDEN=test/fixtures/shard_merge_golden.json \
       dune exec test/main.exe -- test shard *)
  match Sys.getenv_opt "XCV_WRITE_SHARD_GOLDEN" with
  | Some path ->
      write_file path (json ^ "\n");
      Printf.printf "golden shard merge rewritten: %s\n" path
  | None ->
      let golden = String.trim (read_file golden_path) in
      Alcotest.(check string) "shard merge matches golden file" golden
        (String.trim json)

(* ---- kill a shard mid-run --------------------------------------------- *)

exception Killed

(* The in-process half of the acceptance scenario, at every scheduler
   setting: shard 0's first attempt dies right after its first pair's
   checkpoint entry is flushed (torn tail and all, exactly as a SIGKILL
   mid-append would leave it), the restart resumes from that checkpoint —
   reusing the completed pair's outcome AND its metrics snapshot — and
   the merge is still byte-identical to the unsharded campaign. *)
let test_torn_resume_merges_identically () =
  let base = Lazy.force shard_files in
  let dest = Filename.concat (temp_dir ()) "camp" in
  let ckpt0 = Shard_merge.shard_path dest 0 in
  (try
     ignore
       (Verify.campaign ~config:campaign_cfg
          ~shard:{ Verify.shard_index = 0; shard_count = 2 }
          ~checkpoint:ckpt0
          ~on_pair:(fun _ ->
            let oc = open_out_gen [ Open_append; Open_binary ] 0o644 ckpt0 in
            output_string oc "(entry (outcome 3 (dfa to";
            close_out oc;
            raise Killed)
          lyp);
     Alcotest.fail "the first attempt should have died after one pair"
   with Killed -> ());
  ignore
    (Verify.campaign ~config:campaign_cfg
       ~shard:{ Verify.shard_index = 0; shard_count = 2 }
       ~checkpoint:ckpt0 ~resume:ckpt0 lyp);
  write_file
    (Shard_merge.shard_path dest 1)
    (read_file (Shard_merge.shard_path base 1));
  match Shard_merge.merge_files ~base:dest with
  | Error m -> Alcotest.fail m
  | Ok m ->
      let clean, clean_snap = Lazy.force unsharded_campaign in
      Alcotest.(check string) "Table I byte-identical after torn resume"
        (Report.table1 clean)
        (Report.table1 m.Shard_merge.outcomes);
      List.iter2
        (fun a b -> Alcotest.(check string) "paint bytes" (paint a) (paint b))
        clean m.Shard_merge.outcomes;
      Alcotest.(check string)
        "deterministic metrics byte-identical after torn resume"
        (Serialize.deterministic_metrics_to_string clean_snap)
        (Serialize.deterministic_metrics_to_string m.Shard_merge.metrics)

(* ---- one driver, one checkpoint format (unsharded) -------------------- *)

(* A killed-and-resumed unsharded campaign reports what an uninterrupted
   one does: the completed pair's metrics come back from its checkpoint
   entry, the rest are re-solved. *)
let test_unsharded_resume_keeps_metrics () =
  let ckpt = Filename.concat (temp_dir ()) "camp.ckpt" in
  (try
     ignore
       (Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt
          ~on_pair:(fun _ ->
            let oc = open_out_gen [ Open_append; Open_binary ] 0o644 ckpt in
            output_string oc "(entry (outcome 3 (dfa to";
            close_out oc;
            raise Killed)
          lyp);
     Alcotest.fail "the first attempt should have died after one pair"
   with Killed -> ());
  let pairs, snap =
    Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp
  in
  let clean, clean_snap = Lazy.force unsharded_campaign in
  List.iter2
    (fun a (b, _) -> Alcotest.(check string) "paint bytes" (paint a) (paint b))
    clean pairs;
  Alcotest.(check string) "deterministic metrics byte-identical after resume"
    (Serialize.deterministic_metrics_to_string clean_snap)
    (Serialize.deterministic_metrics_to_string snap);
  Alcotest.(check int) "every pair on disk" (List.length clean)
    (List.length (Serialize.read_checkpoint ckpt).Serialize.entries)

(* The previous unsharded format — a header plus plain outcome lines —
   still resumes: those pairs come back verbatim (no paths, no metrics),
   new pairs are appended as entries, and the repaint is identical. *)
let test_plain_outcome_checkpoint_resumes () =
  let clean, _ = Lazy.force unsharded_campaign in
  let header =
    {
      Serialize.config_hash = Verify.config_hash campaign_cfg;
      formula_hash = Verify.formula_hash (Encoder.encode_all lyp);
      shard = None;
    }
  in
  let ckpt = Filename.concat (temp_dir ()) "camp.ckpt" in
  write_file ckpt
    (Serialize.header_to_string header
    ^ "\n"
    ^ Serialize.to_string (List.hd clean)
    ^ "\n");
  let pairs, _ =
    Verify.campaign ~config:campaign_cfg ~checkpoint:ckpt ~resume:ckpt lyp
  in
  let resumed = List.map fst pairs in
  List.iter2
    (fun a b -> Alcotest.(check string) "paint bytes" (paint a) (paint b))
    clean resumed;
  Alcotest.(check string) "Table I identical" (Report.table1 clean)
    (Report.table1 resumed);
  check_true "the plain line resumes without paths"
    (snd (List.hd pairs) = []);
  match (Serialize.read_checkpoint ckpt).Serialize.entries with
  | first :: rest ->
      check_true "plain line kept as is" (first.Serialize.metrics_json = None);
      Alcotest.(check int) "fresh pairs appended" (List.length clean - 1)
        (List.length rest);
      check_true "fresh pairs carry metrics"
        (List.for_all (fun e -> e.Serialize.metrics_json <> None) rest)
  | [] -> Alcotest.fail "checkpoint lost its entries"

let test_headerless_checkpoint_refused () =
  let clean, _ = Lazy.force unsharded_campaign in
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

(* The progress line keeps its own cumulative totals: the per-pair metrics
   instances must not reset it. Each shard runs under its own line, as a
   shard process would. *)
let test_progress_totals_per_shard () =
  for index = 0 to 1 do
    let log = Filename.temp_file "xcvprogress" ".log" in
    let oc = open_out log in
    Obs.Progress.enable ~interval_ns:1 ~out:oc
      ~total_pairs:(Conditions.count_pairs lyp) ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Progress.disable ();
        close_out oc)
      (fun () ->
        ignore
          (Verify.campaign ~config:campaign_cfg
             ~shard:{ Verify.shard_index = index; shard_count = 2 }
             lyp));
    let lines =
      List.filter
        (fun l -> l <> "")
        (String.split_on_char '\n' (read_file log))
    in
    Sys.remove log;
    let fields =
      List.map
        (fun l ->
          Scanf.sscanf l "[campaign] pairs %d/%d boxes %d" (fun p _ b ->
              (p, b)))
        lines
    in
    let tag what = Printf.sprintf "shard %d/2: %s" index what in
    check_true (tag "progress lines emitted") (List.length fields >= 2);
    check_true (tag "pairs becomes nonzero")
      (List.exists (fun (p, _) -> p > 0) fields);
    ignore
      (List.fold_left
         (fun prev (_, b) ->
           if b < prev then
             Alcotest.failf "%s"
               (tag (Printf.sprintf "boxes fell from %d to %d" prev b));
           b)
         0 fields)
  done

(* ---- SIGKILL under the real supervisor (CLI end to end) --------------- *)

(* Run the CLI to completion, appending its output to [log]; a non-zero
   exit fails the test. *)
let run_cli ~cli ~log ?(env = [||]) args =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      (Array.append (Unix.environment ()) env)
      Unix.stdin out out
  in
  Unix.close out;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
      Alcotest.failf "CLI %s: %s" (String.concat " " args)
        (Shard_supervisor.status_to_string st)

(* The process-level half, driving the installed binary: every shard of a
   `campaign --shards 2` run SIGKILLs itself after its first checkpointed
   pair (XCV_SHARD_KILL_AFTER, fresh attempts only), the CLI supervisor
   restarts both from their torn-tail checkpoints, and the merged --save
   archive and --metrics snapshot are byte-identical (paint log, Table I,
   deterministic section) to an unsharded CLI run with the same flags.
   OCaml 5 forbids Unix.fork once domains exist, so shards are spawned
   with create_process; the gate (test/dune) supplies the binary via
   XCV_CLI, and only the workers=2 pass runs it — the scenario is
   worker-count independent and the per-shard -j is pinned to 2. *)
let test_sigkill_under_supervisor () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some _ when test_workers <> 2 -> ()
  | Some cli ->
      let dir = temp_dir () in
      let path name = Filename.concat dir name in
      let flags =
        [
          "campaign"; "--fuel"; "60"; "--threshold"; "0.7"; "--delta";
          "1e-3"; "-j"; "2";
        ]
      in
      let run_cli = run_cli ~cli ~log:(path "cli.log") in
      run_cli
        (flags
        @ [ "--checkpoint"; path "un.ckpt"; "--save"; path "un.save";
            "--metrics"; path "un.json" ]);
      run_cli
        ~env:[| "XCV_SHARD_KILL_AFTER=1" |]
        (flags
        @ [ "--shards"; "2"; "--checkpoint"; path "camp"; "--save";
            path "m.save"; "--metrics"; path "m.json" ]);
      check_true "the supervisor restarted killed shards"
        (contains_sub (read_file (path "cli.log")) "restarting shard");
      let clean = Serialize.load (path "un.save")
      and merged = Serialize.load (path "m.save") in
      Alcotest.(check int) "pair count" (List.length clean)
        (List.length merged);
      List.iter2
        (fun a b ->
          Alcotest.(check string)
            (Printf.sprintf "paint bytes of %s/%s" a.Outcome.dfa
               a.Outcome.condition)
            (paint a) (paint b))
        clean merged;
      Alcotest.(check string) "Table I byte-identical" (Report.table1 clean)
        (Report.table1 merged);
      let det p =
        Serialize.deterministic_metrics_to_string
          (Serialize.metrics_of_string (read_file p))
      in
      Alcotest.(check string) "deterministic metrics byte-identical"
        (det (path "un.json"))
        (det (path "m.json"))

(* `campaign --quick` builds its config from the preset's budgets plus the
   fault and retry flags, so an injected fault rate paints error regions
   (the supervisor forwards these flags to quick shards as well). The full
   29-pair quick campaign runs once, in the workers=2 pass only; a 100%
   fault rate keeps it short, since faulted boxes are never solved. *)
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

let suite =
  [
    case "partition independence (pair level)" test_partition_independent;
    prop_merge_commutative;
    prop_merge_pair_associative;
    case "merge rejects bad partitions" test_merge_rejects_bad_partitions;
    slow_case "merged files reproduce the unsharded campaign"
      test_merge_files_reproduces_unsharded;
    slow_case "merge validation negatives" test_merge_files_negatives;
    case "config hash scope" test_config_hash_scope;
    case "resume rejects a config change" test_resume_rejects_config_change;
    slow_case "shard resume rejects wrong coordinates"
      test_shard_resume_rejects_wrong_coords;
    case "shard merge golden file" test_shard_merge_golden;
    slow_case "torn-tail resume merges identically"
      test_torn_resume_merges_identically;
    slow_case "unsharded resume keeps metrics"
      test_unsharded_resume_keeps_metrics;
    slow_case "plain-outcome checkpoint resumes"
      test_plain_outcome_checkpoint_resumes;
    slow_case "headerless checkpoint refused"
      test_headerless_checkpoint_refused;
    slow_case "progress totals per shard" test_progress_totals_per_shard;
    slow_case "SIGKILLed shards restart and merge identically (CLI)"
      test_sigkill_under_supervisor;
    slow_case "--quick honours the fault flags (CLI)"
      test_quick_honours_fault_flags;
  ]
