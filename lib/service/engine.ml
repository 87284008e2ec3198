module S = Parser.Sexp

let m_queries = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.queries"
let m_results = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.results"

let m_overloaded =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.overloaded"

let m_refused = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.refused"

let m_cancelled =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.cancelled"

let m_degraded = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.degraded"

let m_replays =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.journal_replays"

let m_journal_faults =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.journal_faults"

let m_cache_faults =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.cache_faults"

let m_pairs_encoded =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.pairs_encoded"

let m_query_boxes = Obs.Metrics.histogram "service.query.boxes"

(* aliases of counters registered by the verifier (registration is
   idempotent by name) — the engine reads deltas around each run *)
let m_hits = Obs.Metrics.counter "service.cache.hits"
let m_misses = Obs.Metrics.counter "service.cache.misses"
let m_solver_calls = Obs.Metrics.counter "verify.solver_calls"
let m_drained = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "verify.drained"

type config = {
  cache_dir : string;
  max_inflight : int;
  default_deadline_ms : int option;
  fuel_quota : int option;
  verify : Verify.config;
  io_faults : Fault.io_plan option;
  kill_after : int option;
}

let default_config =
  {
    cache_dir = "xcv-cache";
    max_inflight = 4;
    default_deadline_ms = None;
    fuel_quota = None;
    verify = Verify.default_config;
    io_faults = None;
    kill_after = None;
  }

(* [c_quota] and [c_queued] are read and written under the engine mutex:
   the runner charges the quota while the socket thread reads it for
   admission and stats. *)
type client = {
  c_id : int;
  mutable c_quota : int option;
  mutable c_queued : int;  (** this client's queries queued or running *)
}

type job = {
  j_seq : int;  (** journal key, unique within one daemon lifetime *)
  j_id : int;  (** protocol id, client-chosen *)
  j_client : client;
  j_req : Protocol.request;
  j_cancel : bool Atomic.t;
}

type t = {
  config : config;
  cache : Verdict_cache.t;
  journal : string;
  mutex : Mutex.t;
      (** guards the queue, the memo [pairs], the cache and client quotas *)
  cond : Condition.t;
  queue : job Queue.t;
  mutable current : job option;
  mutable closing : bool;
  mutable next_seq : int;
  mutable next_client : int;
  pairs : (string * string, (Encoder.problem * string) option) Hashtbl.t;
      (** the memo of [encoded]: (dfa name, condition name) -> problem
          and formula hash, [None] where the condition does not apply.
          Only the thread that executes queries adds to it. *)
}

let locked t f = Mutex.protect t.mutex f

(* ---- journal --------------------------------------------------------- *)

let journal_append t ~fsync line =
  try Serialize.append_line ?io_faults:t.config.io_faults ~fsync t.journal line
  with Fault.Io_injected _ ->
    (* durability of the journal is best-effort: a lost entry only means a
       lost replay after a crash, never a lost or wrong verdict *)
    Obs.Metrics.incr m_journal_faults 1

let journal_inflight t ~seq req =
  journal_append t ~fsync:true
    (Printf.sprintf "(inflight (seq %d) %s)" seq
       (Protocol.request_to_string req))

(* The done line is not fsynced: one fsync per query, not two. Losing it
   only makes the next daemon replay a query that had finished, and a
   replay answers nobody. It is a cache hit when the verdict was committed
   (the commit is fsynced before this line); otherwise it re-solves the
   query, as the replay of an unfinished one would. A SIGKILL loses no
   page-cache write, so only a machine crash can drop the line, and the
   next query's fsynced inflight line flushes it in passing. *)
let journal_done t ~seq =
  journal_append t ~fsync:false (Printf.sprintf "(done (seq %d))" seq)

(* the requests of inflight lines without a done line, each at its first
   occurrence; a torn tail and any other malformed line are skipped *)
let journal_pending path =
  if not (Sys.file_exists path) then []
  else begin
    let inflight = Hashtbl.create 16 in
    let order, _ =
      Serialize.fold_lines path
        (fun order line ->
          match S.parse line with
          | S.List [ S.Atom "inflight"; S.List [ S.Atom "seq"; S.Atom n ]; req ]
            -> (
              match (int_of_string_opt n, Protocol.request_of_sexp req) with
              | Some seq, r ->
                  Hashtbl.replace inflight seq r;
                  `Next (seq :: order)
              | None, _ | (exception Parser.Parse_error _) -> `Next order)
          | S.List [ S.Atom "done"; S.List [ S.Atom "seq"; S.Atom n ] ] ->
              Option.iter (Hashtbl.remove inflight) (int_of_string_opt n);
              `Next order
          | _ | (exception Parser.Parse_error _) -> `Next order)
        []
    in
    List.rev order
    |> List.filter_map (fun seq ->
           let req = Hashtbl.find_opt inflight seq in
           Hashtbl.remove inflight seq;
           req)
  end

(* ---- configuration shaping ------------------------------------------ *)

let effective_config t (opts : Protocol.query_opts) =
  let base = t.config.verify in
  let base =
    match opts.Protocol.threshold with
    | Some th -> { base with Verify.threshold = th }
    | None -> base
  in
  let base =
    match opts.Protocol.fuel with
    | Some f -> { base with Verify.solver = { base.Verify.solver with Icp.fuel = f } }
    | None -> base
  in
  let deadline_ms =
    match opts.Protocol.deadline_ms with
    | Some d -> Some d
    | None -> t.config.default_deadline_ms
  in
  {
    base with
    Verify.deadline_seconds =
      Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms;
  }

(* Degradation ladder: rung r halves fuel and doubles the splitting
   threshold r times. Full fidelity while the quota covers the configured
   fuel; refuse only below a quarter of it. *)
let rung_for t client ~fuel =
  match (t.config.fuel_quota, client.c_quota) with
  | None, _ | _, None -> Some 0
  | Some _, Some q ->
      if q >= fuel then Some 0
      else if 2 * q >= fuel then Some 1
      else if 4 * q >= fuel then Some 2
      else None

let apply_rung cfg rung =
  if rung = 0 then cfg
  else
    let k = 1 lsl rung in
    {
      cfg with
      Verify.threshold = cfg.Verify.threshold *. float_of_int k;
      Verify.solver =
        { cfg.Verify.solver with Icp.fuel = max 1 (cfg.Verify.solver.Icp.fuel / k) };
    }

(* caller holds the engine mutex *)
let charge client spent =
  match client.c_quota with
  | None -> ()
  | Some q -> client.c_quota <- Some (max 0 (q - spent))

(* ---- the kill-after test hook --------------------------------------- *)

(* After the Nth successful commit: tear a copy of the committed entry
   line onto the group file's tail exactly as a kill mid-write would, then
   SIGKILL ourselves. The restarted daemon must repair the tear and still
   serve every committed verdict. *)
let maybe_kill t ~group_file bytes =
  match t.config.kill_after with
  | Some n when Verdict_cache.commits t.cache >= n ->
      Serialize.append_torn_entry group_file bytes;
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

(* ---- query execution ------------------------------------------------- *)

(* The encoded problem of (dfa, condition) and its formula hash, computed
   once per engine: neither depends on the query, and together they cost
   about a millisecond (PBE/ec3's fingerprint prints a 71 KB tree), some
   thousand times a cache lookup. *)
let encoded t (f : Registry.t) c =
  let key = (f.Registry.name, Conditions.name c) in
  match locked t (fun () -> Hashtbl.find_opt t.pairs key) with
  | Some e -> e
  | None ->
      (* encoded outside the lock: admission never waits for it *)
      Obs.Metrics.incr m_pairs_encoded 1;
      let e =
        Option.map
          (fun p -> (p, Verify.formula_hash [ p ]))
          (Encoder.encode f c)
      in
      locked t (fun () -> Hashtbl.replace t.pairs key e);
      e

(* What the cache says to a verify of an encoded pair for [client]: the
   quota ladder refuses it, or gives a rung at which the cache answers it
   or misses. The one lookup of both the admission check and the runner.
   Caller holds the engine mutex. *)
let lookup t client ~id ~opts ~count_miss (problem, formula_hash) =
  let base = effective_config t opts in
  match rung_for t client ~fuel:base.Verify.solver.Icp.fuel with
  | None -> `Refused
  | Some rung -> (
      let cfg = apply_rung base rung in
      let config_hash = Verify.config_hash cfg in
      match
        Verdict_cache.find_printed ~count_miss t.cache ~config_hash
          ~formula_hash ~box:problem.Encoder.domain
      with
      | Some (o, bytes) ->
          `Hit
            (rung, Protocol.result ~id ~cached:true ~degraded:rung
                     ~partial:false o bytes)
      | None -> `Miss (rung, cfg, config_hash))

(* the reply of a hit, counted as a result *)
let hit_reply (rung, reply) =
  if rung > 0 then Obs.Metrics.incr m_degraded 1;
  Obs.Metrics.incr m_results 1;
  reply

(* Solve one encoded problem for [client], consulting the verdict cache
   first. Returns [`Refused] when the quota ladder bottomed out. *)
let solve_problem t client ~id ~cancel ~opts ~emit ((problem, formula_hash) as pair) =
  match locked t (fun () -> lookup t client ~id ~opts ~count_miss:true pair) with
  | `Refused ->
      Obs.Metrics.incr m_refused 1;
      emit (Protocol.reply (Protocol.Refused { id; reason = "fuel quota exhausted" }));
      `Refused
  | `Hit hit ->
      emit (hit_reply hit);
      `Ok
  | `Miss (rung, cfg, config_hash) ->
      if rung > 0 then Obs.Metrics.incr m_degraded 1;
      Obs.Progress.relabel (Printf.sprintf "query %d" id);
      let drained0 = Obs.Metrics.read m_drained in
      let stop () = Atomic.get cancel in
      let outcome = Verify.run ~config:cfg ~stop problem in
      let drained = Obs.Metrics.read m_drained - drained0 in
      let cancelled = Atomic.get cancel in
      let partial = drained > 0 || cancelled in
      if cancelled then Obs.Metrics.incr m_cancelled 1;
      Obs.Metrics.observe m_query_boxes (List.length outcome.Outcome.regions);
      (* printed once: the cache entry and the reply share the bytes *)
      let bytes = Serialize.to_string outcome in
      locked t (fun () ->
          charge client outcome.Outcome.stats.Outcome.total_expansions;
          (* a partial map is deadline-shaped, and the cache key excludes
             the deadline — caching it would poison full-budget queries *)
          if not partial then
            try
              Verdict_cache.put_printed t.cache ~config_hash ~formula_hash
                outcome bytes;
              maybe_kill t
                ~group_file:
                  (Verdict_cache.group_file t.cache ~config_hash ~formula_hash)
                bytes
            with Fault.Io_injected _ -> Obs.Metrics.incr m_cache_faults 1);
      emit
        (Protocol.result ~id ~cached:false ~degraded:rung ~partial outcome bytes);
      Obs.Metrics.incr m_results 1;
      `Ok

let exec_request t client ~cancel ~emit req =
  match req with
  | Protocol.Ping | Protocol.Stats _ | Protocol.Cancel _ ->
      () (* answered at submission; never queued *)
  | Protocol.Verify { id; dfa; condition; opts } -> (
      match Registry.find_opt dfa with
      | None ->
          emit
            (Protocol.reply
               (Protocol.Failed
                  { id; message = Printf.sprintf "unknown functional %S" dfa }))
      | Some f -> (
          match Conditions.of_name condition with
          | exception Not_found ->
              emit
                (Protocol.reply
                   (Protocol.Failed
                      {
                        id;
                        message = Printf.sprintf "unknown condition %S" condition;
                      }))
          | c -> (
              match encoded t f c with
              | None ->
                  emit
                    (Protocol.reply
                       (Protocol.Failed
                          {
                            id;
                            message =
                              Printf.sprintf "condition %s does not apply to %s"
                                condition dfa;
                          }))
              | Some pair ->
                  ignore (solve_problem t client ~id ~cancel ~opts ~emit pair)
              )))
  | Protocol.Campaign { id; dfa; opts } -> (
      match Registry.find_opt dfa with
      | None ->
          emit
            (Protocol.reply
               (Protocol.Failed
                  { id; message = Printf.sprintf "unknown functional %S" dfa }))
      | Some f ->
          (* the pairs of [Encoder.encode_all [ f ]], in its order *)
          let pairs = List.filter_map (encoded t f) Conditions.all in
          let count = ref 0 in
          let refused = ref false in
          List.iter
            (fun pair ->
              if not !refused then
                match solve_problem t client ~id ~cancel ~opts ~emit pair with
                | `Ok -> incr count
                | `Refused -> refused := true)
            pairs;
          (* a refusal is already the stream's terminal response *)
          if not !refused then
            emit (Protocol.reply (Protocol.Done { id; count = !count })))

let exec t job ~emit =
  (try exec_request t job.j_client ~cancel:job.j_cancel ~emit job.j_req
   with e ->
     let id = Option.value ~default:0 (Protocol.request_id job.j_req) in
     emit (Protocol.reply (Protocol.Failed { id; message = Printexc.to_string e })));
  journal_done t ~seq:job.j_seq

(* ---- lifecycle ------------------------------------------------------- *)

let create config =
  if config.max_inflight < 1 then
    invalid_arg "Engine.create: max_inflight must be >= 1";
  let cache = Verdict_cache.open_dir ?io_faults:config.io_faults config.cache_dir in
  let t =
    {
      config;
      cache;
      journal = Filename.concat config.cache_dir "journal";
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      current = None;
      closing = false;
      next_seq = 0;
      next_client = 0;
      pairs = Hashtbl.create 32;
    }
  in
  (* replay queries that were admitted but not finished when the previous
     daemon died; their verdicts land in the cache, then the journal resets *)
  let pending = journal_pending t.journal in
  if pending <> [] then begin
    let replay_client =
      { c_id = -1; c_quota = None; c_queued = 0 }
    in
    List.iter
      (fun req ->
        Obs.Metrics.incr m_replays 1;
        try
          exec_request t replay_client ~cancel:(Atomic.make false)
            ~emit:(fun _ -> ())
            req
        with _ -> ())
      pending
  end;
  if Sys.file_exists t.journal then begin
    try Serialize.write_file_atomic ?io_faults:config.io_faults t.journal ""
    with Fault.Io_injected _ -> Obs.Metrics.incr m_journal_faults 1
  end;
  t

let new_client t =
  Mutex.lock t.mutex;
  let c =
    { c_id = t.next_client; c_quota = t.config.fuel_quota; c_queued = 0 }
  in
  t.next_client <- t.next_client + 1;
  Mutex.unlock t.mutex;
  c

let client_id client = client.c_id
let quota_remaining t client = locked t (fun () -> client.c_quota)

(* caller holds the engine mutex *)
let inflight t = Queue.length t.queue + match t.current with Some _ -> 1 | None -> 0

let pending t = locked t (fun () -> inflight t)

let running t =
  Mutex.lock t.mutex;
  let r =
    match t.current with
    | Some j -> Option.map (fun id -> (id, j.j_client)) (Protocol.request_id j.j_req)
    | None -> None
  in
  Mutex.unlock t.mutex;
  r

let stats t client =
  locked t (fun () ->
      Protocol.
        {
          cache_hits = Obs.Metrics.read m_hits;
          cache_misses = Obs.Metrics.read m_misses;
          solver_calls = Obs.Metrics.read m_solver_calls;
          pending = inflight t;
          quota_remaining = client.c_quota;
        })

let cancel_matching t pred =
  Mutex.lock t.mutex;
  Queue.iter (fun j -> if pred j then Atomic.set j.j_cancel true) t.queue;
  (match t.current with
  | Some j when pred j -> Atomic.set j.j_cancel true
  | _ -> ());
  Mutex.unlock t.mutex

let cancel t client ~id =
  cancel_matching t (fun j ->
      j.j_client == client && Protocol.request_id j.j_req = Some id)

let cancel_client t client = cancel_matching t (fun j -> j.j_client == client)

(* The cached reply to a verify, answered at admission exactly when the
   runner would answer it from the cache without solving: the pair is
   encoded already, the rung cannot change before the runner would reach
   the query (no quota, or none of this client's queries ahead of it that
   could charge one), and the cache hits. Otherwise [None], and the query
   is queued; so is one whose lookup raises (an unreadable group file),
   for the runner to answer [Failed] as it always has. Caller holds the
   engine mutex. *)
let admission_hit t client ~id ~dfa ~condition ~opts =
  if client.c_queued > 0 && client.c_quota <> None then None
  else
    (* [Registry.find_opt] and [Conditions.of_name] match lowercased names,
       so for a known pair this is the key [encoded] memoizes under *)
    let key = (String.lowercase_ascii dfa, String.lowercase_ascii condition) in
    match Hashtbl.find_opt t.pairs key with
    | Some (Some pair) -> (
        match lookup t client ~id ~opts ~count_miss:false pair with
        | `Hit hit -> Some hit
        | `Refused | `Miss _ -> None
        | exception _ -> None)
    | Some None | None -> None

(* Admission of a verify or campaign query: answered now if it is a hit,
   refused if the service is closing or the queue is full, else journaled
   and queued. Caller holds the engine mutex. *)
let admit t client ~id req =
  let hit =
    match req with
    | Protocol.Verify { dfa; condition; opts; _ } when not t.closing ->
        admission_hit t client ~id ~dfa ~condition ~opts
    | _ -> None
  in
  match hit with
  | Some hit ->
      (* no journal line: a replayed hit would answer nobody *)
      Some (hit_reply hit)
  | None when t.closing ->
      Some
        (Protocol.reply
           (Protocol.Failed { id; message = "service shutting down" }))
  | None ->
      let inflight = inflight t in
      if inflight >= t.config.max_inflight then begin
        Obs.Metrics.incr m_overloaded 1;
        Some
          (Protocol.reply
             (Protocol.Overloaded
                { id; inflight; max_inflight = t.config.max_inflight }))
      end
      else begin
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        let job =
          { j_seq = seq; j_id = id; j_client = client; j_req = req;
            j_cancel = Atomic.make false }
        in
        (* journaled before it can run: a crash between here and the
           matching done line makes the query replayable *)
        journal_inflight t ~seq req;
        Queue.add job t.queue;
        client.c_queued <- client.c_queued + 1;
        Condition.signal t.cond;
        None
      end

let submit t client req =
  match req with
  | Protocol.Ping -> Some (Protocol.reply Protocol.Pong)
  | Protocol.Stats id ->
      Some (Protocol.reply (Protocol.Stats_reply { id; stats = stats t client }))
  | Protocol.Cancel id ->
      cancel t client ~id;
      None
  | Protocol.Verify { id; _ } | Protocol.Campaign { id; _ } ->
      Obs.Metrics.incr m_queries 1;
      locked t (fun () -> admit t client ~id req)

let step ?(block = false) t ~on_response () =
  Mutex.lock t.mutex;
  let rec take () =
    if t.closing then None
    else if Queue.is_empty t.queue then
      if block then begin
        Condition.wait t.cond t.mutex;
        take ()
      end
      else None
    else Some (Queue.pop t.queue)
  in
  match take () with
  | None ->
      Mutex.unlock t.mutex;
      false
  | Some job ->
      t.current <- Some job;
      Mutex.unlock t.mutex;
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              t.current <- None;
              job.j_client.c_queued <- job.j_client.c_queued - 1))
        (fun () -> exec t job ~emit:(fun r -> on_response job.j_client r));
      true

let drain t ~on_response () =
  while step t ~on_response () do
    ()
  done

let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex
