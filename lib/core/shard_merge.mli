(** Merging per-shard campaign checkpoints back into one run.

    A sharded campaign ({!Verify.campaign} with [shard]) leaves one checkpoint per
    shard ([base.shard0] .. [base.shardN-1]). This module joins them into a
    single run whose paint log, Table I render and deterministic metrics
    section are byte-identical to the unsharded campaign — the certified
    contract of the [@shard] test gate.

    Why it works: each shard's per-pair paint log is a pre-order-sorted
    slice of the unsharded log with pairwise-disjoint box paths, so a keyed
    merge of sorted sequences is associative, commutative and
    partition-independent. Merge never re-solves anything; it only
    interleaves and sums. All validation is strict — a missing shard,
    overlapping slices, a torn tail, or checkpoints from different
    configurations or campaigns fail with an operator-facing error instead
    of silently producing a partial table. *)

(** One shard's contribution, in memory. *)
type shard_run = {
  index : int;
  count : int;
  pairs : (Outcome.t * int list list) list;
      (** per pair: the shard's outcome slice and the box path of each of
          its regions (same order) — the interleaving key *)
  metrics : Obs.Metrics.snapshot;  (** the shard's folded metrics *)
}

type merged = {
  outcomes : Outcome.t list;  (** canonical pair order, full paint logs *)
  metrics : Obs.Metrics.snapshot;
      (** deterministic section equals the unsharded run's byte-for-byte *)
}

(** [shard_path base i] — the per-shard checkpoint filename convention,
    [base.shard<i>]. *)
val shard_path : string -> int -> string

(** [merge_pair a b] interleaves two disjoint slices of the same pair by
    box-path order and sums their stats counters (wall clock takes the
    max). Associative and commutative; raises [Failure]-free — errors
    surface through {!merge_runs}. Exposed for the QCheck algebra tests.
    @raise Merge_error on overlapping paths or mismatched pairs. *)
val merge_pair :
  Outcome.t * int list list ->
  Outcome.t * int list list ->
  Outcome.t * int list list

exception Merge_error of string

(** [merge_runs runs] validates (exactly shards [0..count-1], no duplicate
    or out-of-range indices, agreeing shard counts and pair sets) and
    merges. The result is independent of the order of [runs]. *)
val merge_runs : shard_run list -> (merged, string) result

(** [merge_files ~base] loads [base.shard0 .. base.shard<N-1>] where [N]
    comes from shard 0's header, then {!merge_runs}. Errors (as
    [Error msg]) name the failing shard: missing file, absent or unsharded
    header, filename/header shard index disagreement (overlap), torn tail
    (with the byte offset and the [--resume] remedy), config-hash or
    formula-hash mismatch against shard 0, and entries missing paths or
    metrics. *)
val merge_files : base:string -> (merged, string) result
