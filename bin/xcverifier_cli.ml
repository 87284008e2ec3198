(* Command-line interface to the XCVerifier pipeline.

   Subcommands:
     list      - functionals and conditions
     encode    - print the encoded local condition for a (DFA, condition)
     verify    - run Algorithm 1 on one pair, print summary and region map
     campaign  - run all applicable pairs, print Table I
     baseline  - run the Pederson-Burke grid check on one pair
     compare   - verify + baseline + consistency, with figure-style maps *)

open Cmdliner

(* ---- validated converters ------------------------------------------ *)
(* Out-of-range numerics (zero fuel, negative thresholds, one-point grids)
   would send the solver or the baseline into nonsense loops; reject them
   at the argument parser with a proper Cmdliner error instead. *)

let bounded_int ~what ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "%s must be >= %d, got %d" what min n))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_float ~what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0.0 && Float.is_finite f -> Ok f
    | Some f -> Error (`Msg (Printf.sprintf "%s must be > 0, got %g" what f))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv ~docv:"X" (parse, Format.pp_print_float)

let probability ~what =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 && f <= 1.0 -> Ok f
    | Some f ->
        Error (`Msg (Printf.sprintf "%s must be in [0, 1], got %g" what f))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv ~docv:"P" (parse, Format.pp_print_float)

(* Output paths ([--metrics], [--checkpoint], ...) are validated when the
   arguments are parsed: an unwritable directory fails with a Cmdliner
   error up front instead of an exception mid-campaign (or, for the
   checkpoint, after the first completed pair). "-" means stdout for the
   outputs that can be printed ([stdout]); the others are files only. *)
let writable_path ~stdout ~what =
  let parse s =
    if String.equal s "-" && not stdout then
      Error (`Msg (Printf.sprintf "%s: - (stdout) is not accepted, name a file" what))
    else
      match Obs.validate_output_path s with
      | Ok () -> Ok s
      | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" what msg))
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

(* ---- shared arguments ---------------------------------------------- *)

let dfa_arg =
  let doc =
    "Functional name: pbe, scan, lyp, am05, vwn_rpa (paper five) or pw92, \
     pz81, vwn5, am05x, b88, blyp, rscan."
  in
  Arg.(required & opt (some string) None & info [ "d"; "dfa" ] ~doc ~docv:"DFA")

let condition_arg =
  let doc = "Exact condition: ec1 .. ec7." in
  Arg.(
    required
    & opt (some string) None
    & info [ "c"; "condition" ] ~doc ~docv:"COND")

let fuel_arg =
  let doc = "Solver fuel (box expansions) per dReal-style call." in
  Arg.(value & opt (bounded_int ~what:"fuel" ~min:1) 600 & info [ "fuel" ] ~doc)

let threshold_arg =
  let doc = "Domain-splitting threshold t of Algorithm 1." in
  Arg.(
    value
    & opt (positive_float ~what:"threshold") 0.05
    & info [ "t"; "threshold" ] ~doc)

let delta_arg =
  let doc = "Delta of the delta-sat decision." in
  Arg.(value & opt (positive_float ~what:"delta") 1e-4 & info [ "delta" ] ~doc)

let deadline_arg =
  let doc = "Wall-clock budget in seconds per (DFA, condition) pair." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc)

let map_arg =
  let doc = "Print the ASCII region map." in
  Arg.(value & flag & info [ "map" ] ~doc)

let grid_arg =
  let doc = "Grid points per axis for the PB baseline (at least 2)." in
  Arg.(value & opt (bounded_int ~what:"grid" ~min:2) 100 & info [ "n"; "grid" ] ~doc)

let taylor_arg =
  let doc =
    "Enable the mean-value-form (Taylor) contractor (tape-native adjoint \
     sweep; on by default, --taylor=false disables)."
  in
  Arg.(value & opt bool true & info [ "taylor" ] ~doc ~docv:"BOOL")

let split_arg =
  let doc =
    "Split heuristic: $(b,widest) bisects the widest dimension, $(b,smear) \
     the dimension of maximal smear |df/dx| * width (adjoint-tape guided)."
  in
  Arg.(
    value
    & opt (enum [ ("widest", `Widest); ("smear", `Smear) ]) `Widest
    & info [ "split" ] ~doc ~docv:"HEURISTIC")

let jit_arg =
  let doc =
    "JIT-compile each pair's interval tape into a native C kernel and \
     contract and test each expanded box through it, one box per call. \
     Paint and Table I are bit-identical to the interpreted run at any \
     worker count; only the speed changes. \
     Needs a C compiler ($(b,XCV_CC), $(b,cc) or $(b,gcc)); without one \
     the run silently stays on the interpreted tape (the $(b,jit.fallbacks) \
     metric counts it)."
  in
  Arg.(value & flag & info [ "jit" ] ~doc)

(* The JIT cache is a directory (unlike the file outputs above): accept an
   existing writable directory, or a path whose parent is writable so the
   planner can create it. *)
let jit_cache_arg =
  let parse s =
    if s = "" then Error (`Msg "jit cache path is empty")
    else if Sys.file_exists s then
      if not (Sys.is_directory s) then
        Error (`Msg (Printf.sprintf "jit cache %s is not a directory" s))
      else
        match Unix.access s [ Unix.W_OK ] with
        | () -> Ok s
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (`Msg
                 (Printf.sprintf "jit cache %s is not writable (%s)" s
                    (Unix.error_message e)))
    else
      let dir = Filename.dirname s in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        Error
          (`Msg (Printf.sprintf "jit cache parent %s does not exist" dir))
      else
        match Unix.access dir [ Unix.W_OK ] with
        | () -> Ok s
        | exception Unix.Unix_error (e, _, _) ->
            Error
              (`Msg
                 (Printf.sprintf "jit cache parent %s is not writable (%s)"
                    dir (Unix.error_message e)))
  in
  let doc =
    "Cache compiled JIT kernels in $(docv) (created if absent), \
     content-addressed by generated source: later campaigns over the same \
     formulas and configuration skip the C compiler entirely."
  in
  Arg.(
    value
    & opt (some (Arg.conv ~docv:"DIR" (parse, Format.pp_print_string))) None
    & info [ "jit-cache" ] ~doc ~docv:"DIR")

let certify_arg =
  let doc = "Print an interval-certified counterexample certificate." in
  Arg.(value & flag & info [ "certify" ] ~doc)

let workers_arg =
  let doc =
    "Worker domains for the sub-box scheduler (0 = one per available core)."
  in
  Arg.(
    value
    & opt (bounded_int ~what:"workers" ~min:0) 1
    & info [ "j"; "workers" ] ~doc ~docv:"N")

let retries_arg =
  let doc =
    "Retry errored or timed-out solver calls up to $(docv) times, escalating \
     the fuel budget each attempt."
  in
  Arg.(
    value
    & opt (bounded_int ~what:"retries" ~min:0) 0
    & info [ "retries" ] ~doc ~docv:"N")

let fuel_growth_arg =
  let doc = "Fuel multiplier per retry escalation step." in
  Arg.(
    value
    & opt (bounded_int ~what:"fuel growth" ~min:1) 2
    & info [ "fuel-growth" ] ~doc ~docv:"K")

let fault_rate_arg =
  let doc =
    "Inject deterministic faults into this fraction of solver calls \
     (testing the resilience machinery; see also XCV_FAULT_RATE)."
  in
  Arg.(
    value
    & opt (some (probability ~what:"fault rate")) None
    & info [ "fault-rate" ] ~doc ~docv:"P")

let fault_seed_arg =
  let doc = "Seed of the fault-injection hash." in
  Arg.(value & opt int Fault.default_seed & info [ "fault-seed" ] ~doc ~docv:"S")

let trace_arg =
  let doc =
    "Write the per-box trace (split/contract/solve/verdict events with \
     solver counters) as JSON to $(docv); use - for stdout."
  in
  Arg.(
    value
    & opt (some (writable_path ~stdout:true ~what:"trace file")) None
    & info [ "trace" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc =
    "Write the metrics snapshot as JSON to $(docv) (use - for stdout): \
     deterministic counters and log2-bucket histograms in one section — \
     byte-identical at any worker count for deadline-free runs — and \
     wall-clock phase timers, gauges and rates in another."
  in
  Arg.(
    value
    & opt (some (writable_path ~stdout:true ~what:"metrics file")) None
    & info [ "metrics" ] ~doc ~docv:"FILE")

(* Every output file (--save, --metrics, --trace) is replaced atomically,
   so a killed run leaves the old file or the whole new one; a failed
   write is reported and exits 2. *)
let write_or_exit ~what path write =
  try write ()
  with Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot write %s: %s: %s\n" what path (Unix.error_message e);
    exit 2

(* The --metrics and --trace files: - prints to stdout. *)
let write_output ~what path bytes =
  if path = "-" then print_string bytes
  else (
    write_or_exit ~what path (fun () -> Serialize.write_file_atomic path bytes);
    Printf.printf "%s written to %s\n" what path)

let write_metrics path =
  write_output ~what:"metrics" path
    (Serialize.metrics_to_string (Obs.Metrics.snapshot ()))

(* --jit asked for speed; if the toolchain can't deliver it the run still
   completes (interpreted tape), so warn once instead of failing. *)
let warn_if_jit_unavailable jit =
  if jit && not (Jit.available ()) then
    prerr_endline
      "warning: --jit requested but no C compiler found (XCV_CC, cc, gcc); \
       continuing on the interpreted tape"

let config_of ?(use_taylor = true) ?(split = `Widest) ?(workers = 1)
    ?(retries = 0) ?(fuel_growth = 2) ?fault_rate
    ?(fault_seed = Fault.default_seed) ?(jit = false) ?jit_cache fuel
    threshold delta deadline =
  let faults =
    match fault_rate with
    | Some rate -> Some (Fault.make ~seed:fault_seed ~rate ())
    | None -> Fault.of_env ()
  in
  warn_if_jit_unavailable jit;
  {
    Verify.threshold;
    solver =
      { Icp.default_config with fuel; delta; contractor_rounds = 3; faults };
    deadline_seconds = deadline;
    workers = (if workers <= 0 then Worklist.default_workers () else workers);
    use_taylor;
    use_tape = true;
    split_heuristic = split;
    retry = { Verify.max_retries = retries; fuel_growth };
    jit;
    jit_cache;
  }

let lookup_pair dfa cond =
  match Registry.find_opt dfa with
  | None -> Error (Printf.sprintf "unknown functional %S (try: list)" dfa)
  | Some f -> (
      match Conditions.of_name cond with
      | c -> Ok (f, c)
      | exception Not_found ->
          Error (Printf.sprintf "unknown condition %S (try: list)" cond))

(* ---- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "Functionals:";
    List.iter
      (fun f -> Format.printf "  %-8s %a@." f.Registry.name Registry.pp f)
      Registry.all;
    print_endline "\nConditions:";
    List.iter
      (fun c ->
        Format.printf "  %-4s %s (local condition, Eq. %d)@."
          (Conditions.name c) (Conditions.label c) (Conditions.equation c))
      Conditions.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available functionals and exact conditions")
    Term.(const run $ const ())

(* ---- encode ---------------------------------------------------------- *)

let encode_cmd =
  let format_arg =
    let doc = "Output format: infix, sexp, python or c." in
    Arg.(value & opt string "infix" & info [ "f"; "format" ] ~doc)
  in
  let run dfa cond format =
    match lookup_pair dfa cond with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (f, c) -> (
        match Encoder.encode f c with
        | None ->
            Printf.printf "%s does not apply to %s\n" cond dfa;
            exit 1
        | Some p ->
            let e = p.Encoder.psi.Form.expr in
            (match format with
            | "c" ->
                let name =
                  Printf.sprintf "%s_%s_psi" f.Registry.name
                    (Conditions.name c)
                in
                print_string
                  (Printer.c_to_string ~name
                     ~vars:(Registry.variables f) e)
            | _ ->
                let body =
                  match format with
                  | "sexp" -> Printer.sexp_to_string e
                  | "python" -> Printer.python_to_string e
                  | _ -> Printer.to_string e
                in
                Printf.printf "psi: %s >= 0\n" body);
            Printf.printf "operations: %d (dag nodes: %d)\n"
              (Encoder.operation_count p) (Expr.size e))
  in
  Cmd.v
    (Cmd.info "encode"
       ~doc:"Print the encoded local condition for a (DFA, condition) pair")
    Term.(const run $ dfa_arg $ condition_arg $ format_arg)

(* ---- verify ---------------------------------------------------------- *)

let verify_cmd =
  let run dfa cond fuel threshold delta deadline map use_taylor split certify
      workers trace metrics retries fuel_growth fault_rate fault_seed jit
      jit_cache =
    match lookup_pair dfa cond with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (f, c) -> (
        let config =
          config_of ~use_taylor ~split ~workers ~retries ~fuel_growth
            ?fault_rate ~fault_seed ~jit ?jit_cache fuel threshold delta
            deadline
        in
        match Encoder.encode f c with
        | None ->
            Printf.printf "%s does not apply to %s\n" cond dfa;
            exit 1
        | Some problem ->
            let recorder = Option.map (fun _ -> Trace.create ()) trace in
            let o = Verify.run ~config ?recorder problem in
            Format.printf "%a@." Outcome.pp_summary o;
            (match Outcome.first_counterexample o with
            | Some m ->
                Format.printf "counterexample:";
                List.iter (fun (v, x) -> Format.printf " %s=%.6g" v x) m;
                Format.printf "@."
            | None -> ());
            (match trace, recorder with
            | Some path, Some r ->
                write_output ~what:"trace" path
                  (Serialize.trace_report o (Trace.events r) ^ "\n")
            | _ -> ());
            if certify then begin
              let cert, dropped = Witness.extract problem o in
              Format.printf "%a" Witness.pp cert;
              if dropped > 0 then
                Format.printf "(%d unreproducible models dropped)@." dropped
            end;
            if map then print_string (Render.outcome_map o);
            Option.iter write_metrics metrics)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run Algorithm 1 on one (DFA, condition) pair")
    Term.(
      const run $ dfa_arg $ condition_arg $ fuel_arg $ threshold_arg
      $ delta_arg $ deadline_arg $ map_arg $ taylor_arg $ split_arg
      $ certify_arg $ workers_arg $ trace_arg $ metrics_arg $ retries_arg
      $ fuel_growth_arg $ fault_rate_arg $ fault_seed_arg $ jit_arg
      $ jit_cache_arg)

(* ---- extra (extension conditions) ------------------------------------ *)

let extra_cmd =
  let run fuel threshold delta deadline =
    let config = config_of fuel threshold delta deadline in
    List.iter
      (fun (f : Registry.t) ->
        List.iter
          (fun cond ->
            match Extra_conditions.local_condition cond f with
            | None -> ()
            | Some psi ->
                let o =
                  Verify.run_custom ~config ~dfa_label:f.Registry.label
                    ~condition_label:(Extra_conditions.name cond)
                    ~domain:(Domain_spec.box_for f) ~psi ()
                in
                Format.printf "%a@." Outcome.pp_summary o)
          Extra_conditions.all)
      (Extra_conditions.exchange_functionals ())
  in
  Cmd.v
    (Cmd.info "extra"
       ~doc:
         "Verify the extension conditions (exchange non-positivity and the \
          exchange Lieb-Oxford bound) for every exchange functional")
    Term.(const run $ fuel_arg $ threshold_arg $ delta_arg $ deadline_arg)

(* ---- campaign -------------------------------------------------------- *)

let campaign_cmd =
  let quick_arg =
    let doc = "Use the quick preset (coarser threshold, small fuel)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let save_arg =
    let doc = "Archive the outcomes (one s-expression per line)." in
    Arg.(
      value
      & opt (some (writable_path ~stdout:false ~what:"save file")) None
      & info [ "save" ] ~doc ~docv:"FILE")
  in
  let checkpoint_arg =
    let doc =
      "Record each completed pair (outcome and metrics) in \
       $(docv) as the campaign proceeds; a killed run loses at most the pair \
       in flight. A run without --resume truncates $(docv) first."
    in
    Arg.(
      value
      & opt (some (writable_path ~stdout:false ~what:"checkpoint file")) None
      & info [ "checkpoint" ] ~doc ~docv:"FILE")
  in
  let progress_arg =
    let doc =
      "Print a progress line to stderr about once per second: completed \
       pairs, boxes/s, frontier size and an ETA lower bound."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let resume_arg =
    let doc =
      "Reuse outcomes and metrics from a previous checkpoint $(docv), which \
       must have been written with the same flags; already-completed (DFA, \
       condition) pairs are not re-run."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~doc ~docv:"FILE")
  in
  let total_pairs = Conditions.count_pairs Registry.paper_five in
  let run quick fuel threshold delta deadline split workers save checkpoint
      resume metrics progress retries fuel_growth fault_rate fault_seed jit
      jit_cache =
    let config =
      let q = Verify.quick_config in
      let fuel, threshold, delta, deadline =
        if quick then
          ( q.Verify.solver.Icp.fuel,
            q.Verify.threshold,
            q.Verify.solver.Icp.delta,
            q.Verify.deadline_seconds )
        else (fuel, threshold, delta, deadline)
      in
      let c =
        config_of ~split ~workers ~retries ~fuel_growth ?fault_rate
          ~fault_seed ~jit ?jit_cache fuel threshold delta deadline
      in
      if quick then
        {
          c with
          Verify.solver =
            {
              c.Verify.solver with
              Icp.contractor_rounds = q.Verify.solver.Icp.contractor_rounds;
            };
        }
      else c
    in
    try
      if progress then Obs.Progress.enable ~total_pairs ();
      let outcomes, snap =
        Verify.campaign ~config ?checkpoint ?resume Registry.paper_five
      in
      Obs.Progress.disable ();
      (* the pairs' folded metrics plus this process's own accounting
         (encode phase, checkpoint writes) *)
      let json =
        Serialize.metrics_to_string
          (Obs.Metrics.merge snap (Obs.Metrics.snapshot ()))
      in
      List.iter (fun o -> Format.printf "%a@." Outcome.pp_summary o) outcomes;
      print_newline ();
      print_string (Report.table1 outcomes);
      Option.iter
        (fun path ->
          write_or_exit ~what:"archive" path (fun () ->
              Serialize.save path outcomes);
          Printf.printf "\nsaved %d outcomes to %s\n" (List.length outcomes)
            path)
        save;
      Option.iter (fun path -> write_output ~what:"metrics" path json) metrics
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Verify every applicable condition for the paper's five DFAs")
    Term.(
      const run $ quick_arg $ fuel_arg $ threshold_arg $ delta_arg
      $ deadline_arg $ split_arg $ workers_arg $ save_arg $ checkpoint_arg
      $ resume_arg $ metrics_arg $ progress_arg $ retries_arg
      $ fuel_growth_arg $ fault_rate_arg $ fault_seed_arg $ jit_arg
      $ jit_cache_arg)

(* ---- replay ----------------------------------------------------------- *)

let replay_cmd =
  let file_arg =
    let doc = "Archive produced by campaign --save." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"FILE")
  in
  let run file map =
    let outcomes =
      try Serialize.load file with
      | Failure msg | Sys_error msg ->
          prerr_endline msg;
          exit 2
      | Parser.Parse_error msg ->
          Printf.eprintf "%s: %s\n" file msg;
          exit 2
    in
    List.iter (fun o -> Format.printf "%a@." Outcome.pp_summary o) outcomes;
    print_newline ();
    print_string (Report.table1 outcomes);
    if map then
      List.iter
        (fun o ->
          Printf.printf "\n%s / %s\n" o.Outcome.dfa o.Outcome.condition;
          print_string (Render.outcome_map o))
        outcomes
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-render tables and maps from an archived campaign without \
          re-solving")
    Term.(const run $ file_arg $ map_arg)

(* ---- baseline -------------------------------------------------------- *)

let baseline_cmd =
  let run dfa cond n map =
    match lookup_pair dfa cond with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (f, c) -> (
        match Pbcheck.check ~n f c with
        | None ->
            Printf.printf "%s does not apply to %s\n" cond dfa;
            exit 1
        | Some r ->
            Format.printf "%a@." Pbcheck.pp_summary r;
            (match Pbcheck.violation_boundary_s r with
            | Some s -> Format.printf "violations at s >= %.4f@." s
            | None -> ());
            if map then print_string (Render.pb_map r))
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Run the Pederson-Burke grid-search baseline on one pair")
    Term.(const run $ dfa_arg $ condition_arg $ grid_arg $ map_arg)

(* ---- compare --------------------------------------------------------- *)

let compare_cmd =
  let run dfa cond fuel threshold delta deadline n =
    match lookup_pair dfa cond with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (f, c) -> (
        let config = config_of fuel threshold delta deadline in
        match Verify.run_pair ~config f c, Pbcheck.check ~n f c with
        | Some o, Some pb ->
            print_string (Xcverifier.figure o (Some pb));
            let cons, overlap = Report.consistency_of o pb in
            Format.printf
              "consistency: %s (%.0f%% of PB violations inside unverified \
               regions)@."
              (Report.consistency_symbol cons)
              (100.0 *. overlap)
        | _ ->
            Printf.printf "%s does not apply to %s\n" cond dfa;
            exit 1)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Verify and grid-check one pair; print both maps and consistency")
    Term.(
      const run $ dfa_arg $ condition_arg $ fuel_arg $ threshold_arg
      $ delta_arg $ deadline_arg $ grid_arg)

(* ---- serve / query --------------------------------------------------- *)

let socket_arg =
  let doc = "Unix-domain socket path of the verification service." in
  Arg.(value & opt string "xcv.sock" & info [ "socket" ] ~doc ~docv:"PATH")

let deadline_ms_arg =
  let doc =
    "Default per-query wall budget in milliseconds; an expired deadline \
     returns the partial verdict map painted so far."
  in
  Arg.(
    value
    & opt (some (bounded_int ~what:"deadline-ms" ~min:1)) None
    & info [ "deadline-ms" ] ~doc)

let serve_cmd =
  let cache_dir_arg =
    let doc = "Directory of the persistent verdict cache (created if absent)." in
    Arg.(value & opt string "xcv-cache" & info [ "cache-dir" ] ~doc ~docv:"DIR")
  in
  let max_inflight_arg =
    let doc =
      "Admission bound: queued + running queries beyond this are rejected \
       with an overloaded response instead of buffered."
    in
    Arg.(
      value
      & opt (bounded_int ~what:"max-inflight" ~min:1) 4
      & info [ "max-inflight" ] ~doc)
  in
  let fuel_quota_arg =
    let doc =
      "Per-client solver-fuel quota; queries degrade to coarser grids as \
       the quota runs down and are refused only when even the coarsest \
       rung is unaffordable."
    in
    Arg.(
      value
      & opt (some (bounded_int ~what:"fuel-quota" ~min:1)) None
      & info [ "fuel-quota" ] ~doc)
  in
  let progress_arg =
    let doc = "Emit the stderr progress line, retagged per query id." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let run socket cache_dir max_inflight deadline_ms fuel_quota fuel threshold
      delta workers progress jit jit_cache =
    let verify =
      config_of ~workers ~jit ?jit_cache fuel threshold delta None
    in
    (* same ambient-hook idiom as XCV_FAULT_RATE: tear the cache group
       file after the Nth commit and die by SIGKILL, so the restart test
       can check repair + byte-identical replay *)
    let kill_after =
      match Sys.getenv_opt "XCV_SERVE_KILL_AFTER" with
      | Some s -> int_of_string_opt s
      | None -> None
    in
    let engine =
      {
        Engine.cache_dir;
        max_inflight;
        default_deadline_ms = deadline_ms;
        fuel_quota;
        verify;
        io_faults = Fault.io_of_env ();
        kill_after;
      }
    in
    if progress then Obs.Progress.enable ~label:"service" ~total_pairs:0 ();
    Printf.printf "serving on %s (cache %s, max-inflight %d)\n%!" socket
      cache_dir max_inflight;
    match
      Daemon.run
        { Daemon.engine; socket_path = socket; progress_interval_ms = 500 }
    with
    | () -> ()
    | exception Failure msg ->
        prerr_endline msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: crash-safe verdict cache, bounded \
          admission, per-client quotas with graceful degradation")
    Term.(
      const run $ socket_arg $ cache_dir_arg $ max_inflight_arg
      $ deadline_ms_arg $ fuel_quota_arg $ fuel_arg $ threshold_arg
      $ delta_arg $ workers_arg $ progress_arg $ jit_arg $ jit_cache_arg)

let query_cmd =
  let condition_opt_arg =
    let doc =
      "Exact condition (ec1 .. ec7); omit to run every applicable \
       condition for the functional (a campaign query)."
    in
    Arg.(
      value & opt (some string) None
      & info [ "c"; "condition" ] ~doc ~docv:"COND")
  in
  let id_arg =
    let doc = "Client-chosen query id echoed in every response." in
    Arg.(value & opt int 1 & info [ "id" ] ~doc)
  in
  let fuel_opt_arg =
    let doc = "Solver fuel override for this query." in
    Arg.(
      value
      & opt (some (bounded_int ~what:"fuel" ~min:1)) None
      & info [ "fuel" ] ~doc)
  in
  let threshold_opt_arg =
    let doc = "Splitting-threshold override for this query." in
    Arg.(
      value
      & opt (some (positive_float ~what:"threshold")) None
      & info [ "t"; "threshold" ] ~doc)
  in
  let stats_arg =
    let doc = "Ask for service statistics instead of a verification." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let print_result = function
    | Protocol.Result { cached; degraded; partial; outcome; _ } ->
        Format.printf "%a@." Outcome.pp_summary outcome;
        let tags =
          List.concat
            [
              (if cached then [ "cached" ] else []);
              (if degraded > 0 then
                 [ Printf.sprintf "degraded(rung %d)" degraded ]
               else []);
              (if partial then [ "partial" ] else []);
            ]
        in
        if tags <> [] then Printf.printf "  [%s]\n" (String.concat ", " tags)
    | Protocol.Done { count; _ } -> Printf.printf "%d pair(s) verified\n" count
    | Protocol.Overloaded { inflight; max_inflight; _ } ->
        Printf.printf "overloaded: %d/%d queries in flight — retry later\n"
          inflight max_inflight;
        exit 3
    | Protocol.Refused { reason; _ } ->
        Printf.printf "refused: %s\n" reason;
        exit 3
    | Protocol.Failed { message; _ } ->
        prerr_endline message;
        exit 2
    | Protocol.Stats_reply { stats; _ } ->
        Printf.printf
          "cache hits %d  misses %d  solver calls %d  pending %d  quota %s\n"
          stats.Protocol.cache_hits stats.Protocol.cache_misses
          stats.Protocol.solver_calls stats.Protocol.pending
          (match stats.Protocol.quota_remaining with
          | Some q -> string_of_int q
          | None -> "unlimited")
    | Protocol.Pong -> print_endline "pong"
    | Protocol.Progress _ -> ()
  in
  let run socket dfa cond id deadline_ms fuel threshold stats =
    match
      let fd = Protocol.connect socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let req =
            if stats then Protocol.Stats id
            else
              let opts = Protocol.{ deadline_ms; fuel; threshold } in
              match cond with
              | Some condition -> Protocol.Verify { id; dfa; condition; opts }
              | None -> Protocol.Campaign { id; dfa; opts }
          in
          Protocol.call fd req
            ~on_progress:(function
              | Protocol.Progress { label; boxes; solver_calls; _ } ->
                  Printf.eprintf "[%s] boxes %d solver calls %d\n%!" label
                    boxes solver_calls
              | _ -> ()))
    with
    | responses -> List.iter print_result responses
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "query: cannot reach %s: %s\n" socket
          (Unix.error_message e);
        exit 2
    | exception Failure msg ->
        prerr_endline msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one verification query to a running daemon")
    Term.(
      const run $ socket_arg $ dfa_arg $ condition_opt_arg $ id_arg
      $ deadline_ms_arg $ fuel_opt_arg $ threshold_opt_arg $ stats_arg)

let () =
  let info =
    Cmd.info "xcverifier" ~version:Xcverifier.version
      ~doc:
        "Formal verification of DFT exact conditions for density functional \
         approximations"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; encode_cmd; verify_cmd; campaign_cmd; baseline_cmd;
            compare_cmd; extra_cmd; replay_cmd; serve_cmd; query_cmd;
          ]))
