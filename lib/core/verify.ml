(* Telemetry: box verdict counts and retries are deterministic (they
   depend only on the work, identical at every worker count for
   deadline-free campaigns); drained-box counts exist only under a
   deadline, and checkpoint writes only when checkpointing (a resumed run
   writes fewer) — both wall-class. *)
let m_boxes = Obs.Metrics.counter "verify.boxes"
let m_verified = Obs.Metrics.counter "verify.boxes.verified"
let m_counterexample = Obs.Metrics.counter "verify.boxes.counterexample"
let m_inconclusive = Obs.Metrics.counter "verify.boxes.inconclusive"
let m_timeout = Obs.Metrics.counter "verify.boxes.timeout"
let m_error = Obs.Metrics.counter "verify.boxes.error"
let m_subthreshold = Obs.Metrics.counter "verify.subthreshold"
let m_solver_calls = Obs.Metrics.counter "verify.solver_calls"
let m_retries = Obs.Metrics.counter "verify.retry_attempts"
let m_drained = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "verify.drained"
let m_pairs = Obs.Metrics.counter "campaign.pairs"
let m_ckpt = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "campaign.checkpoint_writes"
let h_depth = Obs.Metrics.histogram "verify.box_depth"

type retry_policy = { max_retries : int; fuel_growth : int }

let no_retry = { max_retries = 0; fuel_growth = 2 }

type config = {
  threshold : float;
  solver : Icp.config;
  deadline_seconds : float option;
  workers : int;
  use_taylor : bool;
  use_tape : bool;
  split_heuristic : [ `Widest | `Smear ];
  retry : retry_policy;
  jit : bool;
  jit_cache : string option;
}

let default_config =
  {
    threshold = 0.05;
    solver =
      { Icp.default_config with fuel = 600; delta = 1e-4; contractor_rounds = 3 };
    deadline_seconds = None;
    workers = 1;
    use_taylor = true;
    use_tape = true;
    split_heuristic = `Widest;
    retry = no_retry;
    jit = false;
    jit_cache = None;
  }

let quick_config =
  {
    threshold = 0.15625;
    solver =
      { Icp.default_config with fuel = 250; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 30.0;
    workers = 1;
    use_taylor = true;
    use_tape = true;
    split_heuristic = `Widest;
    retry = no_retry;
    jit = false;
    jit_cache = None;
  }

(* Fuel for retry attempt [k]: the base budget escalated by the policy's
   growth factor, saturating well below overflow. *)
let escalated_fuel base growth k =
  let growth = Stdlib.max 1 growth in
  let cap = 1_000_000_000 in
  let rec go fuel k =
    if k <= 0 then fuel
    else if fuel >= cap / growth then cap
    else go (fuel * growth) (k - 1)
  in
  go base (Stdlib.max 0 k)

(* The paper's valid(x): plug the model back into the *negated* condition in
   float arithmetic; a true counterexample violates psi, i.e. satisfies
   not psi. *)
let valid_model negated model = Form.all_hold_at model negated

(* A scheduler task: one box of the splitting tree. [path] is the sequence
   of child indices from the root; it makes the paint log's pre-order
   reconstructible after out-of-order parallel execution. [width] and
   [margin] are cached at task creation so the heap comparator never
   touches the box or the expression. *)
type task = {
  box : Box.t;
  depth : int;
  path : int list;
  width : float;
  margin : float;
  smear : float;  (* max per-dimension smear score; 0.0 under `Widest *)
}

(* Widest-box-first; among boxes of equal width (siblings of one splitting
   generation), most-violating-first — the worklist generalization of the
   old recursion's violation-first child ordering, and what still reaches
   small counterexample pockets (e.g. the LYP T_c-bound corner at rs > 4.8,
   s > 2.4) long before the deadline. *)
let schedule_order a b =
  match Float.compare b.width a.width with
  | 0 -> Float.compare a.margin b.margin
  | c -> c

(* Gradient-magnitude priority for the `Smear heuristic: workers drain the
   boxes where the formula is steepest — the ones most likely to resolve
   into a prune or a counterexample — first; {!schedule_order} breaks ties
   so the order stays total and deterministic. *)
let schedule_order_smear a b =
  match Float.compare b.smear a.smear with
  | 0 -> schedule_order a b
  | c -> c

(* Siblings below the threshold are neither solved nor painted, so when
   the whole set is, its margins would only order no-op tasks: it keeps
   split order with margin 0 and no margin is evaluated. *)
let order_children ~threshold ~margin boxes =
  if List.for_all (fun b -> Box.max_width b < threshold) boxes then
    List.map (fun b -> (b, 0.0)) boxes
  else
    List.stable_sort
      (fun (_, m1) (_, m2) -> Float.compare m1 m2)
      (List.map (fun b -> (b, margin b)) boxes)

(* The interval tape is the only interpreted engine; [use_tape] survives
   as a config field (and in [config_hash]) but cannot be turned off. *)
let check_config config =
  if not config.use_tape then
    invalid_arg
      "Verify: use_tape = false is not supported (the tape is the engine)"

let run_custom ?(config = default_config) ?recorder ?stop ~dfa_label
    ~condition_label ~domain ~(psi : Form.atom) () =
  check_config config;
  let negated = [ Form.negate_atom psi ] in
  (* Compile the negated formula once per (DFA, condition) pair — not per
     box — and hand the tape to every solver call through its config. The
     compiled form is immutable and shared by all worker domains. *)
  let compiled =
    Obs.Metrics.time_phase Obs.Metrics.Encode (fun () ->
        Hc4.compile ~vars:(Box.vars domain) negated)
  in
  (* the mean-value contractor: one adjoint sweep per atom *)
  let contractors =
    if config.use_taylor then [ Hc4.mean_value_tape compiled ] else []
  in
  (* JIT: compile the same tape into a native kernel, once per pair. The
     solver calls it on one box per expansion; it replays the whole
     contraction pipeline (HC4 agenda, the mean-value stage when
     [use_taylor], the statuses) bit-identically, so engaging it never
     changes paint. Any failure — no C compiler, a failing compile, a bad
     dlopen — leaves [native = None] and the run continues on the
     interpreted tape ([jit.fallbacks] counts it). *)
  let native =
    if not config.jit then None
    else
      match
        Jit.plan ?cache_dir:config.jit_cache ~mvf:config.use_taylor
          ~rounds:config.solver.Icp.contractor_rounds compiled
      with
      | Ok plan -> Some (Jit.native_batch plan)
      | Error _ -> None
  in
  let solver_config =
    {
      config.solver with
      Icp.tape = Some compiled;
      split_heuristic = config.split_heuristic;
      native;
    }
  in
  (* Campaign-level smear priority: the task's key is its maximum
     per-dimension smear score, from the same compiled tape the solver
     replays. 0.0 (priority off) under `Widest. *)
  let smear_of box =
    match config.split_heuristic with
    | `Smear -> Array.fold_left Float.max 0.0 (Hc4.smear_scores compiled box)
    | `Widest -> 0.0
  in
  let started = Unix.gettimeofday () in
  let deadline =
    Option.map (fun s -> started +. s) config.deadline_seconds
  in
  (* Cooperative cancellation: the worklist polls this before popping each
     task, so a fired deadline — or an external stop hook (the service
     daemon's per-query cancel flag) — drains the frontier gracefully into
     a partial verdict map instead of aborting. *)
  let past_deadline () =
    (match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false)
    || match stop with Some f -> f () | None -> false
  in
  (* per-run solver statistics, aggregated across worker domains *)
  let calls = Atomic.make 0
  and expansions = Atomic.make 0
  and prunes = Atomic.make 0
  and revises = Atomic.make 0
  and retries = Atomic.make 0 in
  let record path depth box step kind =
    match recorder with
    | Some r -> Trace.record r { Trace.path; depth; step; box; kind }
    | None -> ()
  in
  (* Midpoint margin towards satisfying (not psi): smaller = more violating.
     Pure search heuristic — evaluation only, no expression construction,
     so it is safe on worker domains. *)
  let margin box =
    match negated with
    | [ a ] ->
        let v = Hc4.eval_midpoint compiled 0 box in
        if Float.is_nan v then Float.infinity
        else (
          match a.Form.rel with
          | Form.Ge0 | Form.Gt0 -> -.v
          | Form.Le0 | Form.Lt0 | Form.Eq0 -> v)
    | _ -> 0.0
  in
  let children t =
    Obs.Metrics.time_phase Obs.Metrics.Split @@ fun () ->
    let boxes =
      match config.split_heuristic with
      | `Smear ->
          (* bisect only the dimension of maximal smear: two children that
             cut across the formula's steepest direction, instead of the
             2^k blind split of every dimension *)
          let b1, b2 =
            Box.split_smear t.box ~scores:(Hc4.smear_scores compiled t.box)
          in
          [ b1; b2 ]
      | `Widest -> Box.split_all t.box
    in
    let boxes = order_children ~threshold:config.threshold ~margin boxes in
    record t.path t.depth t.box 3 (Trace.Split (List.length boxes));
    List.mapi
      (fun i (b, m) ->
        {
          box = b;
          depth = t.depth + 1;
          path = t.path @ [ i ];
          width = Box.max_width b;
          margin = m;
          smear = smear_of b;
        })
      boxes
  in
  (* Handle one box: solve (with the bounded retry policy), paint, and
     split when unresolved. Runs on worker domains; everything here is
     construction-free (the formula and contractors were built above, on
     the calling domain). A solver call that raises is isolated to this
     box: retried with escalated fuel while attempts remain, then painted
     as an [Error] region; timed-out calls are retried the same way.
     Fault decisions and fuel schedules depend only on the box and the
     attempt ordinal, never on scheduling, so the paint log stays
     identical at every worker count. *)
  let handle t =
    if t.width < config.threshold then begin
      Obs.Metrics.incr m_subthreshold 1;
      (None, [])
    end
    else begin
      let add_stats (stats : Icp.stats) =
        ignore (Atomic.fetch_and_add expansions stats.Icp.expansions);
        ignore (Atomic.fetch_and_add prunes stats.Icp.prunes);
        ignore (Atomic.fetch_and_add revises stats.Icp.revise_calls)
      in
      let region status subtasks =
        record t.path t.depth t.box 2 (Trace.Verdict (Outcome.status_name status));
        Obs.Metrics.incr m_boxes 1;
        Obs.Metrics.observe h_depth t.depth;
        Obs.Metrics.incr
          (match status with
          | Outcome.Verified -> m_verified
          | Outcome.Counterexample _ -> m_counterexample
          | Outcome.Inconclusive _ -> m_inconclusive
          | Outcome.Timeout -> m_timeout
          | Outcome.Error _ -> m_error)
          1;
        ( Some (t.path, { Outcome.box = t.box; status; depth = t.depth }),
          subtasks )
      in
      (* Retry events get negative steps so a box's failed attempts sort
         before its final contract/solve burst in the path-ordered log. *)
      let record_retry k reason fuel =
        Atomic.incr retries;
        Obs.Metrics.incr m_retries 1;
        record t.path t.depth t.box (k + 1 - 1000)
          (Trace.Retry { attempt = k + 1; reason; fuel })
      in
      let rec attempt_solve k =
        Atomic.incr calls;
        Obs.Metrics.incr m_solver_calls 1;
        let scfg =
          {
            solver_config with
            Icp.fuel =
              escalated_fuel solver_config.Icp.fuel config.retry.fuel_growth k;
          }
        in
        let solve () = Icp.solve ~contractors ~attempt:k scfg t.box negated in
        (* re-attempts are additionally attributed to the retry phase (they
           also count towards contract/solve inside the solver) *)
        let solve =
          if k = 0 then solve
          else fun () -> Obs.Metrics.time_phase Obs.Metrics.Retry solve
        in
        match solve () with
        | exception e ->
            if k < config.retry.max_retries then begin
              (* the aborted attempt's counters are lost with the
                 exception; its retry event carries zero fuel *)
              record_retry k "error" 0;
              attempt_solve (k + 1)
            end
            else `Failed (Printexc.to_string e)
        | Icp.Timeout, stats when k < config.retry.max_retries ->
            add_stats stats;
            record_retry k "timeout" stats.Icp.expansions;
            attempt_solve (k + 1)
        | verdict, stats ->
            add_stats stats;
            record t.path t.depth t.box 0
              (Trace.Contract
                 {
                   revise_calls = stats.Icp.revise_calls;
                   sweeps = stats.Icp.sweeps;
                 });
            record t.path t.depth t.box 1
              (Trace.Solve
                 { fuel = stats.Icp.expansions; prunes = stats.Icp.prunes });
            `Solved verdict
      in
      match attempt_solve 0 with
      | `Failed msg ->
          (* error isolation: this box is painted errored and split — its
             children re-roll the dice — while the campaign continues *)
          region (Outcome.Error msg) (children t)
      | `Solved Icp.Unsat -> region Outcome.Verified []
      | `Solved (Icp.Sat { model; _ }) ->
          let status =
            if valid_model negated model then Outcome.Counterexample model
            else Outcome.Inconclusive model
          in
          region status (children t)
      | `Solved Icp.Timeout -> region Outcome.Timeout (children t)
    end
  in
  (* Supervision backstop: a failure outside the retried solver call (e.g.
     in the split heuristic) still only costs its own box. *)
  let recover t e =
    let status = Outcome.Error (Printexc.to_string e) in
    record t.path t.depth t.box 2 (Trace.Verdict (Outcome.status_name status));
    Obs.Metrics.incr m_boxes 1;
    Obs.Metrics.incr m_error 1;
    Obs.Metrics.observe h_depth t.depth;
    (Some (t.path, { Outcome.box = t.box; status; depth = t.depth }), [])
  in
  let root =
    {
      box = domain;
      depth = 0;
      path = [];
      width = Box.max_width domain;
      margin = 0.0;
      smear = smear_of domain;
    }
  in
  let compare =
    match config.split_heuristic with
    | `Widest -> schedule_order
    | `Smear -> schedule_order_smear
  in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:(Stdlib.max 1 config.workers)
      ~compare ~stop:past_deadline ~recover ~handle [ root ]
  in
  (* Graceful drain: boxes still pending at the deadline are painted as
     timeouts (the old recursion's behaviour for boxes it reached after the
     deadline), except sub-threshold boxes, which would not have been
     solved anyway. *)
  let drained =
    List.filter_map
      (fun t ->
        if t.width < config.threshold then None
        else
          Some (t.path, { Outcome.box = t.box; status = Outcome.Timeout;
                          depth = t.depth }))
      dropped
  in
  Obs.Metrics.incr m_drained (List.length drained);
  (* Restore the pre-order paint log: parents (shorter paths) before
     children, siblings in violation-first order — identical to the old
     depth-first recursion's log, and identical at every worker count. *)
  let painted =
    Obs.Metrics.time_phase Obs.Metrics.Paint (fun () ->
        List.filter_map Fun.id results @ drained
        |> List.sort (fun (p1, _) (p2, _) -> Trace.compare_path p1 p2))
  in
  {
    Outcome.dfa = dfa_label;
    condition = condition_label;
    domain;
    regions = List.map snd painted;
    stats =
      {
        Outcome.solver_calls = Atomic.get calls;
        total_expansions = Atomic.get expansions;
        total_prunes = Atomic.get prunes;
        total_revise_calls = Atomic.get revises;
        retries = Atomic.get retries;
        elapsed = Unix.gettimeofday () -. started;
      };
  }

let run ?config ?recorder ?stop (p : Encoder.problem) =
  run_custom ?config ?recorder ?stop ~dfa_label:p.Encoder.dfa.Registry.label
    ~condition_label:(Conditions.name p.Encoder.condition)
    ~domain:p.Encoder.domain ~psi:p.Encoder.psi ()

let run_pair ?config ?recorder dfa cond =
  Option.map (run ?config ?recorder) (Encoder.encode dfa cond)

(* ------------------------------------------------------------------ *)
(* Campaign identity hashes (checkpoint headers).

   [config_hash] covers exactly the verdict-relevant knobs: threshold,
   solver fuel/delta/rounds, the fault plan, the contractor choice, split
   heuristic and retry policy. [use_tape] and the retired midpoint
   sample-check switch are still folded in (both can only be true now) so
   the hash, and the checkpoint headers that carry it, match those of
   older runs. [workers] and [deadline_seconds] are deliberately
   excluded — they change scheduling, never verdicts (for deadline-free
   runs), and a checkpoint taken at -j4 must be resumable at -j1. [jit]
   and [jit_cache] are excluded for the same reason: the native kernel is
   bit-identical to the interpreted tape, so a checkpoint taken with
   --jit must be resumable without it. *)

let config_hash (c : config) =
  let b = Buffer.create 128 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '|')
      fmt
  in
  add "%h" c.threshold;
  add "%d" c.solver.Icp.fuel;
  add "%h" c.solver.Icp.delta;
  add "%d" c.solver.Icp.contractor_rounds;
  add "%b" true (* the retired sample-check switch *);
  (match c.solver.Icp.faults with
  | None -> add "faults:none"
  | Some p ->
      add "faults:%Lx:%h:%s" p.Fault.seed p.Fault.rate
        (String.concat ","
           (List.map
              (function
                | Fault.Raise -> "raise"
                | Fault.Nan -> "nan"
                | Fault.Timeout -> "timeout")
              p.Fault.kinds)));
  add "%b" c.use_taylor;
  add "%b" c.use_tape;
  add "%s" (match c.split_heuristic with `Widest -> "widest" | `Smear -> "smear");
  add "%d" c.retry.max_retries;
  add "%d" c.retry.fuel_growth;
  Serialize.digest (Buffer.contents b)

let problem_fingerprint (p : Encoder.problem) =
  let box =
    String.concat ";"
      (List.map
         (fun v ->
           let iv = Box.get p.Encoder.domain v in
           Printf.sprintf "%s=%h..%h" v (Interval.inf iv) (Interval.sup iv))
         (Box.vars p.Encoder.domain))
  in
  let rel =
    match p.Encoder.psi.Form.rel with
    | Form.Ge0 -> ">=0"
    | Form.Gt0 -> ">0"
    | Form.Le0 -> "<=0"
    | Form.Lt0 -> "<0"
    | Form.Eq0 -> "=0"
  in
  Printf.sprintf "%s|%s|%s|%s %s" p.Encoder.dfa.Registry.label
    (Conditions.name p.Encoder.condition)
    box
    (Printer.sexp_to_string p.Encoder.psi.Form.expr)
    rel

let formula_hash problems =
  Serialize.digest (String.concat "\n" (List.map problem_fingerprint problems))

(* ------------------------------------------------------------------ *)
(* The campaign driver. One process runs every applicable pair,
   sequentially per pair, and appends each completed pair to the
   checkpoint as one entry line carrying the outcome and the pair's
   metrics snapshot. Each pair runs under a fresh metrics instance so its
   snapshot is self-contained: the campaign's metrics are the fold of its
   per-pair snapshots, which makes metrics resumable — a killed and
   restarted run recovers the metrics of its completed pairs from the
   checkpoint, and its deterministic section equals the uninterrupted
   run's byte for byte. *)

(* Pair-level supervision: a pair whose run raised outside the box-level
   isolation (which already absorbs and retries every solver failure) is
   painted as a single whole-domain error region, so the campaign table
   still has a cell for it. What can raise there (the config check, the
   tape compile) is deterministic, so the pair is not re-run. *)
let supervise_pair ~config (p : Encoder.problem) =
  match run ~config p with
  | o -> o
  | exception e ->
      let domain = p.Encoder.domain in
      let status = Outcome.Error (Printexc.to_string e) in
      {
        Outcome.dfa = p.Encoder.dfa.Registry.label;
        condition = Conditions.name p.Encoder.condition;
        domain;
        regions = [ { Outcome.box = domain; status; depth = 0 } ];
        stats = Outcome.zero_stats;
      }

let append_entry path e =
  Serialize.append_line path (Serialize.entry_to_string e)

(* The resume source must carry this run's header: same configuration,
   same formula set. A headerless file is refused rather than trusted. *)
let load_resume ~expect path =
  let ck = Serialize.read_checkpoint path in
  (match ck.Serialize.cp_header with
  | None ->
      failwith (Printf.sprintf "%s: checkpoint has no campaign header" path)
  | Some h -> Serialize.check_header ~path ~expect h);
  ck

let campaign ?(config = default_config) ?checkpoint ?resume dfas =
  check_config config;
  let problems =
    Obs.Metrics.time_phase Obs.Metrics.Encode (fun () ->
        Encoder.encode_all dfas)
  in
  let header =
    {
      Serialize.config_hash = config_hash config;
      formula_hash = formula_hash problems;
    }
  in
  let resumed =
    match resume with
    (* an empty file is what a kill before the header write leaves *)
    | Some path when Sys.file_exists path && (Unix.stat path).Unix.st_size > 0
      ->
        let ck = load_resume ~expect:header path in
        (match checkpoint with
        | Some c when c = path ->
            (* a torn tail from the kill must go before new entries are
               appended, or every reader would stop short of them *)
            ignore (Serialize.repair_checkpoint c)
        | Some c ->
            (* resuming into a different file: make it self-contained *)
            Serialize.write_header c header;
            List.iter (append_entry c) ck.Serialize.entries
        | None -> ());
        ck.Serialize.entries
    | _ ->
        (* a fresh run: a stale checkpoint from an earlier attempt must not
           survive underneath the new one *)
        Option.iter (fun c -> Serialize.write_header c header) checkpoint;
        []
  in
  let find_entry (p : Encoder.problem) =
    List.find_opt
      (fun (e : Serialize.entry) ->
        String.equal e.Serialize.outcome.Outcome.dfa
          p.Encoder.dfa.Registry.label
        && String.equal e.Serialize.outcome.Outcome.condition
             (Conditions.name p.Encoder.condition))
      resumed
  in
  let pairs =
    List.map
      (fun (p : Encoder.problem) ->
        match find_entry p with
        | Some e ->
            Obs.Progress.pair_done ~boxes:0;
            let snap =
              match e.Serialize.metrics_json with
              | Some j -> Serialize.metrics_of_string j
              | None -> Obs.Metrics.empty_snapshot
            in
            (e.Serialize.outcome, snap)
        | None ->
            let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
            let o, snap =
              Fun.protect
                ~finally:(fun () -> ignore (Obs.Metrics.install prev))
                (fun () ->
                  let o = supervise_pair ~config p in
                  Obs.Metrics.incr m_pairs 1;
                  (o, Obs.Metrics.snapshot ()))
            in
            Option.iter
              (fun c ->
                append_entry c
                  {
                    Serialize.outcome = o;
                    metrics_json = Some (Serialize.metrics_to_string snap);
                  };
                Obs.Metrics.incr m_ckpt 1)
              checkpoint;
            Obs.Progress.pair_done
              ~boxes:
                (Option.value ~default:0
                   (List.assoc_opt "verify.boxes" snap.Obs.Metrics.counters));
            (o, snap))
      problems
  in
  ( List.map fst pairs,
    List.fold_left Obs.Metrics.merge Obs.Metrics.empty_snapshot
      (List.map snd pairs) )
