(** Observability substrate: metrics registry, monotonic clock, progress.

    Three pieces: an injectable monotonic clock ({!Clock}), a lock-free
    per-domain-sharded metrics registry with a snapshot/merge algebra
    ({!Metrics}), and a throttled campaign progress line ({!Progress}).

    {b Determinism contract.} Metrics declared [Deterministic] must depend
    only on the work performed — boxes handled, contractions applied, fuel
    burned — never on scheduling, wall time or worker count. For a
    deterministic campaign (no deadline) the deterministic section of a
    snapshot is byte-identical at every worker count; the test harness
    locks this in. Anything clock- or scheduling-dependent (timers, gauges,
    steals, queue depths) must be classified [Wall]. *)

module Clock : sig
  (** [now_ns ()] is the current monotonic time in integer nanoseconds
      (CLOCK_MONOTONIC via a C stub), unless an override is installed. *)
  val now_ns : unit -> int

  (** [set f] replaces the clock process-wide (test hook: golden files are
      produced under a clock frozen at 0 so they carry no timings). *)
  val set : (unit -> int) -> unit

  val reset : unit -> unit

  (** [with_frozen ns f] runs [f] under a clock stuck at [ns], restoring
      the previous clock afterwards (also on exceptions). *)
  val with_frozen : int -> (unit -> 'a) -> 'a
end

module Metrics : sig
  type clas = Deterministic | Wall

  type counter
  type histogram
  type gauge

  (** Campaign phases, each backed by a pre-registered [Wall] timer
      ("phase.encode", ...). encode / contract / solve / split / paint are
      disjoint; retry is an attribution view (the wall time of re-attempted
      solver calls, which also count towards contract/solve). *)
  type phase = Encode | Contract | Solve | Split | Paint | Retry

  (** Registration is idempotent by name and normally happens in top-level
      bindings of the instrumented modules, i.e. before any worker domain
      exists. Counters default to [Deterministic]; histograms are always
      deterministic; gauges are always [Wall]. *)

  val counter : ?clas:clas -> string -> counter

  val histogram : string -> histogram
  val gauge : string -> gauge

  (** {2 Hot-path operations}

      Each writing domain owns a private shard of the current registry
      instance: plain stores, no locks or atomics (except the gauge's live
      cell). *)

  val incr : counter -> int -> unit

  (** [observe h v] adds [v] to its log2 bucket: bucket 0 holds [v <= 0],
      bucket [b >= 1] holds [2^(b-1) .. 2^b - 1], saturating at bucket 63. *)
  val observe : histogram -> int -> unit

  (** [gauge_set g v] publishes the live value (read by the progress line)
      and tracks the per-shard high watermark. *)
  val gauge_set : gauge -> int -> unit

  val add_phase : phase -> int -> unit

  (** [time_phase p f] runs [f], charging its wall time to phase [p] (also
      on exceptions). *)
  val time_phase : phase -> (unit -> 'a) -> 'a

  (** [read c] sums [c] over all shards of the current instance. Reads
      concurrent with writers may be slightly stale; after the writing
      domains are joined the value is exact. *)
  val read : counter -> int

  (** {2 Instances}

      An instance is one registry's worth of cells. The process starts with
      a default instance; tests and the bench harness install a fresh one
      to measure in isolation and restore the previous one afterwards. *)

  type t

  val fresh : unit -> t

  (** [install t] makes [t] the current instance and returns the previous
      one. *)
  val install : t -> t

  (** {2 Snapshots}

      Plain sorted data. [merge] is the shard-combining algebra — counters,
      histogram buckets and timers add; gauge watermarks and elapsed take
      the max. All fields are integers (timers in nanoseconds), so [merge]
      is exactly associative and commutative, which the QCheck suite
      verifies. *)

  type snapshot = {
    counters : (string * int) list;  (** deterministic counters, sorted *)
    histograms : (string * (int * int) list) list;
        (** sparse (bucket, count) lists, both levels sorted *)
    wall_counters : (string * int) list;
    gauges : (string * int) list;  (** high watermarks *)
    timers : (string * int) list;  (** nanoseconds *)
    elapsed_ns : int;
  }

  val empty_snapshot : snapshot

  (** [snapshot ()] reads the current (or given) instance: the merge of all
      its shards over a zero baseline that lists every registered metric,
      so equal workloads yield equal key sets. *)
  val snapshot : ?registry:t -> unit -> snapshot

  (** One snapshot per domain-shard; folding {!merge} over them (plus the
      zero baseline) is exactly [snapshot ()]. *)
  val shard_snapshots : ?registry:t -> unit -> snapshot list

  val merge : snapshot -> snapshot -> snapshot
end

module Progress : sig
  (** Throttled campaign status line (completed pairs, boxes/s, frontier
      size, ETA lower bound), emitted to [out] at most once per
      [interval_ns]. [tick] is called by the worklist once per task and is
      a single atomic load when disabled (the default). *)

  (** [label], when given, tags the line (e.g. ["service"] renders as
      ["[campaign service] ..."]) so stderr shared with other output stays
      attributable. *)
  val enable :
    ?interval_ns:int -> ?out:out_channel -> ?label:string ->
    total_pairs:int -> unit -> unit

  val disable : unit -> unit

  (** [relabel l] swaps the label of the active line without resetting the
      rate/ETA baseline — the service daemon retags the line with the query
      id it is currently solving ("query 17"), so a multiplexed stderr
      stream stays attributable per client query. No-op when disabled. *)
  val relabel : string -> unit

  (** [pair_done ~boxes] folds a completed campaign pair into the line's
      cumulative totals: one more pair, and [boxes] more boxes (the pair's
      final [verify.boxes]). The campaign runs each pair under its own
      metrics instance, so the line adds these totals to the live box count
      of the current instance. [enable] resets them. *)
  val pair_done : boxes:int -> unit

  val tick : unit -> unit
end

(** [validate_output_path p] checks up front that [p] could be created or
    replaced: the parent directory exists and is writable, and [p], if it
    exists, is a writable regular file and not a symbolic link (output
    files are replaced by a rename, which must not land on a directory or
    a device, and would replace a link rather than write through it). ["-"]
    (stdout) is always accepted. Returns a human-readable reason on
    [Error]. *)
val validate_output_path : string -> (unit, string) result
