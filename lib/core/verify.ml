(* Telemetry: box verdict counts and retries are deterministic (they
   depend only on the work, identical at every worker count for
   deadline-free campaigns); drained-box counts exist only under a
   deadline, and checkpoint writes depend on how the run is deployed
   (sharded campaigns write one file per shard) — both wall-class. *)
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

(* Multi-process sharding: a campaign pair's box tree is partitioned by
   box-path prefix. Every shard deterministically replays the {e trunk} —
   the nodes shallower than [trunk_depth] — because the frontier below a
   node depends on solve results (verified trunk boxes have no children);
   only shard 0 paints and counts the trunk, the others replay it silently
   against scratch stats/metrics. Frontier nodes (depth = [trunk_depth])
   are assigned round-robin in deterministic walk order, so the shards
   partition the frontier exactly and the union of the per-shard paint
   logs is the unsharded log, at any shard count. *)
type shard_spec = { shard_index : int; shard_count : int }

(* Smallest depth whose full frontier has at least two nodes per shard
   (fan-out permitting); 0 for a single shard, which makes 1-sharding
   exactly the unsharded run. *)
let shard_trunk_depth ~fanout ~count =
  if count <= 1 then 0
  else
    let fanout = Stdlib.max 2 fanout in
    let rec go d cells =
      if cells >= 2 * count then d else go (d + 1) (cells * fanout)
    in
    go 0 1

(* Per-run solver statistics, aggregated across worker domains. The silent
   trunk replay of non-owner shards writes to a scratch sink, so each node's
   stats — like its metrics — are counted exactly once across the fleet. *)
type stat_sink = {
  sk_calls : int Atomic.t;
  sk_expansions : int Atomic.t;
  sk_prunes : int Atomic.t;
  sk_revises : int Atomic.t;
  sk_retries : int Atomic.t;
}

let fresh_sink () =
  {
    sk_calls = Atomic.make 0;
    sk_expansions = Atomic.make 0;
    sk_prunes = Atomic.make 0;
    sk_revises = Atomic.make 0;
    sk_retries = Atomic.make 0;
  }

(* The interval tape is the only interpreted engine; [use_tape] survives
   as a config field (and in [config_hash]) but cannot be turned off. *)
let check_config config =
  if not config.use_tape then
    invalid_arg
      "Verify: use_tape = false is not supported (the tape is the engine)"

let run_custom_sharded ?(config = default_config) ?recorder ?shard ?stop
    ~dfa_label ~condition_label ~domain ~(psi : Form.atom) () =
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
  let sink = fresh_sink () in
  let record path depth box step kind =
    match recorder with
    | Some r -> Trace.record r { Trace.path; depth; step; box; kind }
    | None -> ()
  in
  let no_record _ _ _ _ _ = () in
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
  let children ~record t =
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
     identical at every worker count — and at every shard count. *)
  let handle_with ~sink ~record t =
    if t.width < config.threshold then begin
      Obs.Metrics.incr m_subthreshold 1;
      (None, [])
    end
    else begin
      let add_stats (stats : Icp.stats) =
        ignore (Atomic.fetch_and_add sink.sk_expansions stats.Icp.expansions);
        ignore (Atomic.fetch_and_add sink.sk_prunes stats.Icp.prunes);
        ignore (Atomic.fetch_and_add sink.sk_revises stats.Icp.revise_calls)
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
        Atomic.incr sink.sk_retries;
        Obs.Metrics.incr m_retries 1;
        record t.path t.depth t.box (k + 1 - 1000)
          (Trace.Retry { attempt = k + 1; reason; fuel })
      in
      let rec attempt_solve k =
        Atomic.incr sink.sk_calls;
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
          region (Outcome.Error msg) (children ~record t)
      | `Solved Icp.Unsat -> region Outcome.Verified []
      | `Solved (Icp.Sat { model; _ }) ->
          let status =
            if valid_model negated model then Outcome.Counterexample model
            else Outcome.Inconclusive model
          in
          region status (children ~record t)
      | `Solved Icp.Timeout -> region Outcome.Timeout (children ~record t)
    end
  in
  (* Supervision backstop: a failure outside the retried solver call (e.g.
     in the split heuristic) still only costs its own box. *)
  let recover_with ~record t e =
    let status = Outcome.Error (Printexc.to_string e) in
    record t.path t.depth t.box 2 (Trace.Verdict (Outcome.status_name status));
    Obs.Metrics.incr m_boxes 1;
    Obs.Metrics.incr m_error 1;
    Obs.Metrics.observe h_depth t.depth;
    (Some (t.path, { Outcome.box = t.box; status; depth = t.depth }), [])
  in
  let handle = handle_with ~sink ~record in
  let recover = recover_with ~record in
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
  (* Prefix restriction: replay the trunk, keep the owned frontier slice.
     With no shard spec (or a single shard) the worklist is seeded with the
     root and nothing changes. *)
  let shard =
    match shard with Some s when s.shard_count > 1 -> Some s | _ -> None
  in
  let trunk_painted, init =
    match shard with
    | None -> ([], [ root ])
    | Some { shard_index; shard_count } ->
        let fanout =
          match config.split_heuristic with
          | `Smear -> 2
          | `Widest -> List.length (Box.split_all domain)
        in
        let trunk_depth = shard_trunk_depth ~fanout ~count:shard_count in
        let owns_trunk = shard_index = 0 in
        let scratch_sink = fresh_sink () in
        let scratch_metrics = Obs.Metrics.fresh () in
        let silently f =
          let prev = Obs.Metrics.install scratch_metrics in
          Fun.protect
            ~finally:(fun () -> ignore (Obs.Metrics.install prev))
            f
        in
        let painted = ref [] and frontier = ref [] in
        let rec walk t =
          if t.depth >= trunk_depth then frontier := t :: !frontier
          else if owns_trunk then begin
            (* the trunk runs outside the worklist; account for it so the
               merged deterministic task count equals the unsharded run *)
            Worklist.external_task ();
            let r, subs =
              match handle t with res -> res | exception e -> recover t e
            in
            Option.iter (fun r -> painted := r :: !painted) r;
            List.iter walk subs
          end
          else begin
            let subs =
              silently (fun () ->
                  match handle_with ~sink:scratch_sink ~record:no_record t with
                  | _, subs -> subs
                  | exception e ->
                      snd (recover_with ~record:no_record t e))
            in
            List.iter walk subs
          end
        in
        walk root;
        let mine =
          List.filteri
            (fun pos _ -> pos mod shard_count = shard_index)
            (List.rev !frontier)
        in
        (List.rev !painted, mine)
  in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:(Stdlib.max 1 config.workers)
      ~compare ~stop:past_deadline ~recover ~handle init
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
     depth-first recursion's log, identical at every worker count, and
     (unioned across shards) at every shard count. *)
  let painted =
    Obs.Metrics.time_phase Obs.Metrics.Paint (fun () ->
        trunk_painted @ List.filter_map Fun.id results @ drained
        |> List.sort (fun (p1, _) (p2, _) -> Trace.compare_path p1 p2))
  in
  ( {
      Outcome.dfa = dfa_label;
      condition = condition_label;
      domain;
      regions = List.map snd painted;
      stats =
        {
          Outcome.solver_calls = Atomic.get sink.sk_calls;
          total_expansions = Atomic.get sink.sk_expansions;
          total_prunes = Atomic.get sink.sk_prunes;
          total_revise_calls = Atomic.get sink.sk_revises;
          retries = Atomic.get sink.sk_retries;
          elapsed = Unix.gettimeofday () -. started;
        };
    },
    List.map fst painted )

let run_custom ?config ?recorder ?stop ~dfa_label ~condition_label ~domain
    ~psi () =
  fst
    (run_custom_sharded ?config ?recorder ?stop ~dfa_label ~condition_label
       ~domain ~psi ())

let run ?config ?recorder ?stop (p : Encoder.problem) =
  run_custom ?config ?recorder ?stop ~dfa_label:p.Encoder.dfa.Registry.label
    ~condition_label:(Conditions.name p.Encoder.condition)
    ~domain:p.Encoder.domain ~psi:p.Encoder.psi ()

let run_pair ?config ?recorder dfa cond =
  Option.map (run ?config ?recorder) (Encoder.encode dfa cond)

let run_sharded ?config ?shard (p : Encoder.problem) =
  run_custom_sharded ?config ?shard ~dfa_label:p.Encoder.dfa.Registry.label
    ~condition_label:(Conditions.name p.Encoder.condition)
    ~domain:p.Encoder.domain ~psi:p.Encoder.psi ()

(* ------------------------------------------------------------------ *)
(* Campaign identity hashes (checkpoint headers).

   [config_hash] covers exactly the verdict-relevant knobs: threshold,
   solver fuel/delta/rounds/sample-check, the fault plan, the contractor
   choice, split heuristic and retry policy. [use_tape] is still folded in
   (it can only be true now) so the hash, and the checkpoint headers that
   carry it, match those of older runs. [workers] and
   [deadline_seconds] are deliberately excluded — they change scheduling,
   never verdicts (for deadline-free runs), and a checkpoint taken at -j4
   must be resumable at -j1. [jit] and [jit_cache] are excluded for the
   same reason: the native kernel is bit-identical to the interpreted
   tape, so a checkpoint taken with --jit must be resumable without it. *)

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
  add "%b" c.solver.Icp.sample_check;
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
(* The campaign driver. One process runs every applicable pair — or, with
   [shard], its slice [i/N] of every pair's box tree — sequentially per
   pair, and appends each completed pair to the checkpoint as one entry
   line carrying the outcome, its paint paths and the pair's metrics
   snapshot. Each pair runs under a fresh metrics instance so its snapshot
   is self-contained: the campaign's metrics are the fold of its per-pair
   snapshots, which makes metrics resumable — a killed and restarted run
   recovers the metrics of its completed pairs from the checkpoint, and
   its deterministic section equals the uninterrupted run's byte for
   byte (merged across shards, the unsharded run's). *)

(* A pair whose run failed outright (exception outside the box-level
   isolation, retries exhausted): the whole domain is painted as a single
   error region so the campaign table still has a cell for it. *)
let error_outcome ~dfa ~condition ~domain ~retries msg =
  {
    Outcome.dfa;
    condition;
    domain;
    regions = [ { Outcome.box = domain; status = Outcome.Error msg; depth = 0 } ];
    stats = { Outcome.zero_stats with Outcome.retries };
  }

(* Pair-level supervision: retry a pair whose run raised with escalated
   fuel, then give up with an [error_outcome]. Box-level isolation inside
   the run already absorbs solver failures, so this is the outer belt. *)
let supervise_pair ~config ?shard (p : Encoder.problem) =
  let rec go k =
    let cfg =
      {
        config with
        solver =
          {
            config.solver with
            Icp.fuel =
              escalated_fuel config.solver.Icp.fuel config.retry.fuel_growth k;
          };
      }
    in
    match run_sharded ~config:cfg ?shard p with
    | o, paths when k = 0 -> (o, paths)
    | o, paths ->
        (* surface the pair-level attempts alongside the box-level ones *)
        ( {
            o with
            Outcome.stats =
              {
                o.Outcome.stats with
                Outcome.retries = o.Outcome.stats.Outcome.retries + k;
              };
          },
          paths )
    | exception e ->
        if k < config.retry.max_retries then go (k + 1)
        else
          ( error_outcome ~dfa:p.Encoder.dfa.Registry.label
              ~condition:(Conditions.name p.Encoder.condition)
              ~domain:p.Encoder.domain ~retries:k (Printexc.to_string e),
            [ [] ] )
  in
  go 0

let append_entry path e =
  Serialize.append_line path (Serialize.entry_to_string e)

(* The resume source must carry this run's header: same configuration,
   same formula set, same shard coordinates. A headerless file is refused
   rather than trusted. *)
let load_resume ~expect path =
  let ck = Serialize.read_checkpoint path in
  (match ck.Serialize.cp_header with
  | None ->
      failwith (Printf.sprintf "%s: checkpoint has no campaign header" path)
  | Some h ->
      Serialize.check_header ~path ~expect h;
      if h.Serialize.shard <> expect.Serialize.shard then
        failwith
          (Printf.sprintf
             "%s: checkpoint belongs to a different shard (expected %s)" path
             (match expect.Serialize.shard with
             | Some (i, n) -> Printf.sprintf "shard %d/%d" i n
             | None -> "an unsharded run")));
  ck

let campaign ?(config = default_config) ?shard ?checkpoint ?resume
    ?(on_pair = fun (_ : Outcome.t) -> ()) dfas =
  check_config config;
  Option.iter
    (fun s ->
      if
        s.shard_count < 1 || s.shard_index < 0
        || s.shard_index >= s.shard_count
      then
        invalid_arg
          (Printf.sprintf "Verify.campaign: bad shard %d/%d" s.shard_index
             s.shard_count))
    shard;
  let problems =
    Obs.Metrics.time_phase Obs.Metrics.Encode (fun () ->
        Encoder.encode_all dfas)
  in
  let header =
    {
      Serialize.config_hash = config_hash config;
      formula_hash = formula_hash problems;
      shard = Option.map (fun s -> (s.shard_index, s.shard_count)) shard;
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
  (* the trunk owner also owns campaign-level accounting: merged pair
     counts must equal the unsharded run's *)
  let owns_trunk =
    match shard with None -> true | Some s -> s.shard_index = 0
  in
  let pairs =
    List.map
      (fun (p : Encoder.problem) ->
        match find_entry p with
        | Some e ->
            Obs.Progress.pair_done ~boxes:0;
            let paths = Option.value e.Serialize.paths ~default:[] in
            let snap =
              match e.Serialize.metrics_json with
              | Some j -> Serialize.metrics_of_json_string j
              | None -> Obs.Metrics.empty_snapshot
            in
            ((e.Serialize.outcome, paths), snap)
        | None ->
            let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
            let o, paths, snap =
              Fun.protect
                ~finally:(fun () -> ignore (Obs.Metrics.install prev))
                (fun () ->
                  let o, paths = supervise_pair ~config ?shard p in
                  if owns_trunk then Obs.Metrics.incr m_pairs 1;
                  (o, paths, Obs.Metrics.snapshot ()))
            in
            Option.iter
              (fun c ->
                append_entry c
                  {
                    Serialize.outcome = o;
                    paths = Some paths;
                    metrics_json = Some (Obs.Metrics.to_json snap);
                  };
                Obs.Metrics.incr m_ckpt 1)
              checkpoint;
            Obs.Progress.pair_done
              ~boxes:
                (Option.value ~default:0
                   (List.assoc_opt "verify.boxes" snap.Obs.Metrics.counters));
            on_pair o;
            ((o, paths), snap))
      problems
  in
  ( List.map fst pairs,
    List.fold_left Obs.Metrics.merge Obs.Metrics.empty_snapshot
      (List.map snd pairs) )
