(** Query execution engine of the verification service.

    The daemon is split in two: a socket front-end ({!Daemon}) and this
    engine, which owns the bounded admission queue, the per-client fuel
    quotas, the verdict cache and the crash-recovery journal. The engine is
    transport-agnostic — tests drive it directly, in process.

    {b Threading.} [submit] / [cancel] / [stats] are called from the
    daemon's socket thread; [step] runs on a single runner thread (solver
    fan-out happens {e inside} a query via [config.verify.workers] domains
    — expression encoding is not thread-safe, so queries never encode
    concurrently). One mutex guards the queue, the memo of encoded pairs,
    the verdict cache's [find]/[put] and every client's quota; the runner
    holds it only around those, never while encoding or solving.
    [step ~block:true] sleeps on a condition variable until work arrives
    or {!shutdown}.

    {b Encoded pairs.} Each (dfa, condition) pair is encoded and its
    formula hash computed once per engine, on first use (by a query or by
    the journal replay in {!create}), and kept for the engine's lifetime;
    the wall counter [service.pairs_encoded] counts these encodings. Only
    the runner thread encodes.

    {b Hits at admission.} [submit] answers a [verify] query on the spot —
    no journal line, no queueing, never [Overloaded] — exactly when the
    runner would answer it from the cache without solving: the pair is in
    the memo already, the quota ladder gives the rung the runner would
    give (the client has no quota, or no query of its own queued or
    running), and {!Verdict_cache.find_printed} hits. The hit then costs
    the configuration hash, one lookup and a reply spliced from the
    cache entry's stored bytes ({!Protocol.result}). Every other query is
    queued, and the runner looks again with the same function, since a
    queued miss may have become a hit by the time it runs. Replies of
    both paths carry their frame payload ({!Protocol.reply}).

    {b Admission control.} At most [max_inflight] queries may be queued or
    running; a submit beyond that is rejected immediately with
    [Overloaded] — callers retry, the daemon never buffers unboundedly.

    {b Degradation ladder.} When a client's fuel quota no longer covers a
    full-fidelity solve, the engine degrades before refusing: rung [r]
    multiplies the splitting threshold by [2^r] and divides solver fuel by
    [2^r] (rungs 1 and 2), so the client still gets a sound — coarser —
    verdict map. Only below a quarter of the configured fuel is the query
    [Refused]. Degraded configurations hash differently, so cached coarse
    verdicts never shadow full-fidelity ones.

    {b Journal.} Queued queries are appended to [cache_dir/journal]
    (fsynced) before execution and marked done (not fsynced) after;
    {!create} replays unfinished queries from the journal (warming the
    verdict cache) and truncates it. A daemon SIGKILLed mid-solve thus
    re-solves exactly the queries whose results were lost. Hits answered
    at admission write no line: their replay would answer nobody and warm
    nothing. *)

type config = {
  cache_dir : string;
  max_inflight : int;  (** queued + running bound; >= 1 *)
  default_deadline_ms : int option;  (** per-query wall budget *)
  fuel_quota : int option;  (** per-client solver-fuel allowance *)
  verify : Verify.config;  (** base verification configuration *)
  io_faults : Fault.io_plan option;  (** injected into cache + journal *)
  kill_after : int option;
      (** test hook ([XCV_SERVE_KILL_AFTER]): after the Nth cache commit,
          append a torn line to the group file and SIGKILL the process *)
}

(** [cache_dir "xcv-cache"], [max_inflight 4], no deadline, no quota,
    {!Verify.default_config}, no faults. *)
val default_config : config

type t
type client

(** [create config] opens the verdict cache (repairing torn tails),
    replays any unfinished journal entries, then truncates the journal. *)
val create : config -> t

val new_client : t -> client

(** Stable identity of a client within one engine (the daemon keys its
    connection table on it). *)
val client_id : client -> int

(** This client's remaining fuel quota ([None] = unlimited). *)
val quota_remaining : t -> client -> int option

(** [submit t client req] — admission. Returns an immediate reply
    ([Pong], [Stats_reply], a cache hit's [Result], [Overloaded]...) or
    [None] when the query was enqueued (its replies arrive via {!step}'s
    callback). [Cancel] returns [None] after flagging the target query. *)
val submit : t -> client -> Protocol.request -> Protocol.reply option

(** [step t ~on_response ()] executes the next queued query, emitting its
    responses (including the terminal one) to [on_response]. Returns
    [false] when the queue was empty (after blocking, if [block], until
    work arrived or {!shutdown} was called). Never raises on query
    failure — errors become [Failed] responses. *)
val step :
  ?block:bool -> t -> on_response:(client -> Protocol.reply -> unit) ->
  unit -> bool

(** [drain t ~on_response ()] steps until the queue is empty — the
    in-process test loop. *)
val drain :
  t -> on_response:(client -> Protocol.reply -> unit) -> unit -> unit

(** Queued + running query count. *)
val pending : t -> int

(** The query currently being solved, if any: [(protocol id, client)]. *)
val running : t -> (int * client) option

(** [cancel t client ~id] flags the queued-or-running query with protocol
    id [id] submitted by [client]; its run drains cooperatively into a
    partial verdict map. *)
val cancel : t -> client -> id:int -> unit

(** [cancel_client t client] cancels everything [client] submitted — the
    daemon calls this when a connection drops. *)
val cancel_client : t -> client -> unit

(** Wake a blocked {!step} and make all future steps return [false]. *)
val shutdown : t -> unit
