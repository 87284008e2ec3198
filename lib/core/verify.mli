(** Algorithm 1 of the paper on a deadline-aware priority worklist.

    For a box [D] and encoded condition [psi]:

    + if [max_width D < t] — below the splitting threshold — the box is
      discarded;
    + otherwise the δ-complete solver runs on [D /\ not psi];
    + UNSAT: [D] is painted {e verified} and closed;
    + SAT with model [x]: re-check [x] in float arithmetic ([valid(x)]);
      paint a {e counterexample} (valid) or {e inconclusive} (spurious
      δ-sat model), then split;
    + timeout: paint a {e timeout}, then split;
    + splitting halves every dimension of [D]; the children are re-queued
      rather than recursed into.

    The queue is a priority worklist ({!Worklist}): widest box first, and
    among equal widths most-violating first (midpoint margin), so the search
    sharpens the region map breadth-first and reaches violation pockets
    early. Sub-box tasks are executed by [config.workers] OCaml domains;
    all formulas and contractors are built on the calling domain before the
    fan-out (expression hash-consing is not thread-safe), workers only
    evaluate. The painted log is re-sorted by box path afterwards, so
    outcomes are {e identical at every worker count}, including the
    pre-order parent-before-children property rasterization relies on.

    Differences from the paper's setup, by necessity of substrate: the
    per-call two-hour dReal limit becomes a deterministic fuel budget
    ([solver.fuel] box expansions per call), and the optional global
    wall-clock deadline drains the worklist gracefully — boxes still
    pending (at or above the threshold) are painted as timeouts rather
    than dropped silently. *)

(** Bounded, deterministic retry of failed solver calls. An errored or
    timed-out call on a box is re-run up to [max_retries] times with the
    fuel budget multiplied by [fuel_growth] per attempt (saturating);
    attempts are keyed by their ordinal so fault-injection decisions
    ({!Fault.decide}) re-roll deterministically. Exhausted retries paint
    the box {!Outcome.Error} (errors) or {!Outcome.Timeout}. *)
type retry_policy = {
  max_retries : int;  (** additional attempts after the first; 0 = off *)
  fuel_growth : int;  (** fuel multiplier per escalation step; >= 1 *)
}

(** The default: no retries ([max_retries = 0]) — failures surface on the
    first attempt, exactly the pre-retry behaviour. *)
val no_retry : retry_policy

type config = {
  threshold : float;  (** the paper's [t]; default 0.05 *)
  solver : Icp.config;
  deadline_seconds : float option;
      (** global wall budget for one (DFA, condition) pair *)
  workers : int;  (** OCaml domains executing sub-box solver calls *)
  use_taylor : bool;
      (** add the mean-value-form contractor ({!Hc4.mean_value_tape}, one
          adjoint sweep per atom) to the solver's contraction pipeline. On
          by default. *)
  use_tape : bool;
      (** must be [true]: the negated condition is always compiled once per
          pair into an interval tape ({!Hc4.compile}) that every solver
          call replays. The field remains so existing config records build
          and {!config_hash} is unchanged; the run entry points and
          {!campaign} raise [Invalid_argument] when it is [false]. *)
  split_heuristic : [ `Widest | `Smear ];
      (** how boxes split, at both levels of the search. [`Widest] (default):
          the paper's blind split — campaign tasks split every dimension
          ({!Box.split_all}), solver boxes bisect the widest dimension.
          [`Smear]: Kearfott's maximal-smear rule — both levels bisect the
          dimension maximizing [|∂f/∂x_i| * width(x_i)] (adjoint-tape
          scores, {!Hc4.smear_scores}), and the worklist drains
          steepest-boxes-first. Sound either way: the heuristic changes
          exploration order, never verdict soundness. *)
  retry : retry_policy;
  jit : bool;
      (** compile the pair's tape into a native C kernel ({!Jit}) and
          contract and test each expanded box through it, one box per
          call. Bit-identical paint at any worker count — the kernel
          replays the interpreted pipeline operation for operation — so
          only the speed differs. When no C compiler is available or
          compilation fails the run silently stays on the interpreted
          tape ([jit.fallbacks] in the metrics counts it). Off by
          default. *)
  jit_cache : string option;
      (** directory for compiled kernels, content-addressed by source
          digest: campaigns over the same formulas reuse the [.so] instead
          of invoking the compiler again. [None] (default): a private temp
          workspace, removed at exit. *)
}

val default_config : config

(** A quick preset for demos and benches: coarser threshold, smaller fuel. *)
val quick_config : config

(** [run ~config problem] executes Algorithm 1 and returns the full outcome
    (paint log + aggregated {!Outcome.stats}). [recorder], when given,
    collects the per-box {!Trace} events of the run. [stop], when given, is
    polled alongside the deadline by every worker before popping a task —
    cooperative cancellation: once it returns true the frontier drains
    gracefully into timeout paint, yielding a {e partial} verdict map
    instead of an error (the service daemon's cancel/deadline hook). It is
    called from worker domains and must be thread-safe (e.g. an
    [Atomic.t] read). *)
val run :
  ?config:config -> ?recorder:Trace.t -> ?stop:(unit -> bool) ->
  Encoder.problem -> Outcome.t

(** [run_custom ~dfa_label ~condition_label ~domain ~psi ()] runs
    Algorithm 1 on an arbitrary local condition [psi] (an [expr >= 0]-style
    atom) over an arbitrary box — the entry point for conditions outside the
    registry pipeline, e.g. spin-resolved slices or user-supplied
    inequalities from the CLI. Labels are only used in the outcome record.
    [stop] as in {!run}.

    All run entry points raise [Invalid_argument] when
    [config.use_tape = false]. *)
val run_custom :
  ?config:config -> ?recorder:Trace.t -> ?stop:(unit -> bool) ->
  dfa_label:string -> condition_label:string -> domain:Box.t ->
  psi:Form.atom -> unit -> Outcome.t

(** [run_pair ~config dfa cond] encodes and runs; [None] if the condition
    does not apply. *)
val run_pair :
  ?config:config -> ?recorder:Trace.t -> Registry.t -> Conditions.id ->
  Outcome.t option

(** {1 Multi-process sharding}

    A campaign pair's box tree is partitioned by box-path prefix across
    [shard_count] cooperating processes. Every shard deterministically
    replays the {e trunk} — the nodes shallower than the shard frontier
    depth — because which frontier nodes exist depends on solve results;
    only shard 0 paints and counts trunk nodes (the others replay them
    silently against scratch stats and a scratch metrics instance), and
    frontier nodes are assigned round-robin in deterministic walk order.
    Consequences, certified by the [@shard] test gate: the per-shard paint
    logs partition the unsharded log exactly; deterministic metrics and
    stats merge (by summation) to the unsharded values; and all of this
    holds at any shard count x any per-shard worker count, for
    deadline-free runs. *)

type shard_spec = {
  shard_index : int;  (** 0-based; shard 0 owns the trunk *)
  shard_count : int;  (** [1] behaves exactly like an unsharded run *)
}

(** [run_custom_sharded ~shard ...] is {!run_custom} restricted to the
    shard's slice, additionally returning the box path of every region of
    the paint log (in the same order as [regions]) — the sort key a merge
    needs to interleave shard logs back into pre-order. *)
val run_custom_sharded :
  ?config:config -> ?recorder:Trace.t -> ?shard:shard_spec ->
  ?stop:(unit -> bool) -> dfa_label:string -> condition_label:string ->
  domain:Box.t -> psi:Form.atom -> unit -> Outcome.t * int list list

(** [order_children ~threshold ~margin boxes] is the order in which a
    split's children become tasks, child [i] taking box path
    [parent @ [i]], each with the margin its task is scheduled by: sorted
    by [margin] (most violating first, stably), unless every child's
    {!Box.max_width} is below [threshold]. Such children are neither
    solved nor painted, so they keep split order with margin 0 and
    [margin] is not called. *)
val order_children :
  threshold:float -> margin:(Box.t -> float) -> Box.t list ->
  (Box.t * float) list

(** [config_hash config] — {!Serialize.digest} of the verdict-relevant
    configuration: threshold, solver fuel/delta/rounds/sample-check, fault
    plan, contractor choice, [use_tape] (always true, kept so hashes stay
    stable), split heuristic, retry policy.
    [workers] and [deadline_seconds] are excluded: they change scheduling,
    never verdicts (for deadline-free runs), so a checkpoint taken at -j4
    resumes at -j1. *)
val config_hash : config -> string

(** [formula_hash problems] — {!Serialize.digest} over the encoded problem
    set (labels, domains, condition expressions); two campaigns share it
    iff they verify the same formulas over the same boxes. *)
val formula_hash : Encoder.problem list -> string

(** [campaign ~config dfas] runs every applicable pair (Table I's rows x
    columns) in canonical pair order, sequentially per pair (each pair
    still uses [config.workers] domains internally). With [shard] it runs
    only slice [shard.shard_index] of [shard.shard_count] of every pair's
    box tree; [None] (the default) is the whole campaign.

    Supervision: a pair whose run raises (outside the box-level isolation)
    is retried per [config.retry] with escalated fuel and finally recorded
    as a single whole-domain {!Outcome.Error} region — the campaign never
    aborts on one pair.

    Metrics: every freshly run pair runs under a private metrics instance.
    The returned snapshot is the fold of the per-pair snapshots, resumed
    pairs included, so a killed-and-resumed campaign reports the same
    deterministic metrics as an uninterrupted one. Each pair, once done or
    reused, is folded into the progress line with {!Obs.Progress.pair_done}
    (a reused pair with zero boxes).

    [checkpoint], when given, starts with a {!Serialize.header} (config
    hash, formula hash, shard coordinates), followed by one
    {!Serialize.entry} line per completed pair — outcome, region paths and
    the pair's metrics snapshot JSON — appended with a single write as the
    pair completes, so a kill loses at most the pair in flight. Without
    [resume] (or when the [resume] file is absent or empty) the run is
    fresh and [checkpoint] is truncated to its header.

    [resume], when given and present, must carry a matching header
    ([Failure] naming the path otherwise, headerless files included); its
    completed pairs are reused, including their metrics snapshots. Entries
    written as plain outcome lines (older unsharded checkpoints) resume
    with no paths and no metrics. When [resume] is [checkpoint] itself, a
    torn tail from the kill is truncated before new entries are appended;
    when it is another file, its header and entries are copied into
    [checkpoint] first.

    [on_pair] fires after each fresh (non-resumed) pair is checkpointed —
    the supervisor tests use it to kill a shard at a deterministic point.

    Returns the per-pair [(outcome, paths)] list in canonical pair order
    and the folded metrics snapshot; callers that want only the outcomes
    project with [List.map fst]. *)
val campaign :
  ?config:config -> ?shard:shard_spec -> ?checkpoint:string ->
  ?resume:string -> ?on_pair:(Outcome.t -> unit) -> Registry.t list ->
  (Outcome.t * int list list) list * Obs.Metrics.snapshot
