(** JIT compilation of the interval tape to native C kernels.

    [plan] renders a compiled formula ({!Hc4.compiled}) as a self-contained
    C99 translation unit — the generic engine of {!Jit_runtime} plus
    per-formula static instruction tables — compiles it once into a shared
    object, and [dlopen]s it. The kernel then replays the whole per-box
    contraction pipeline (HC4 dirty-agenda sweeps, the mean-value-form
    stage when [mvf] is set, and the per-atom statuses) natively,
    bit-identically to the interpreted tape: same operation order, same
    software outward rounding, same libm. The solver calls it through
    {!native_batch}, one box per call; {!contract_batch} maps it over an
    array of boxes for benchmarks and tests.

    Everything here degrades gracefully: no C compiler, a failing compile,
    or a bad [dlopen] yield [Error _] (counted in [jit.fallbacks]) and the
    caller continues on the interpreted tape. Compilation is
    content-addressed — the cache key digests the generated source and the
    kernel ABI version — so a second campaign
    over the same formula and config reuses the [.so] without invoking the
    compiler ([jit.cache_hits] vs [jit.compiles]). *)

type t

(** [available ()] is [true] when a C compiler is reachable: [$XCV_CC] if
    set, else [cc], else [gcc] on [$PATH]. *)
val available : unit -> bool

(** The C source [plan] would compile — the embedded runtime specialised
    with the formula's instruction tables, rounds and mean-value switch.
    Exposed for tests and for content-addressing. *)
val render_source : mvf:bool -> rounds:int -> Hc4.compiled -> string

(** Content-address of a rendered source: hex digest of source + kernel ABI
    version. The compile cache stores [<key>.so]. *)
val cache_key : string -> string

(** [plan ?cache_dir ~mvf ~rounds compiled] compiles and loads the
    kernel. [rounds] is the HC4 sweep budget ([Icp.config.contractor_rounds]);
    [mvf] bakes in the mean-value stage ([Verify.config.use_taylor]). With
    [cache_dir] the shared object persists there under its content key and
    stale sibling workspaces of dead processes are swept; without it the
    object lives in a private temp workspace removed at exit. *)
val plan :
  ?cache_dir:string ->
  mvf:bool ->
  rounds:int ->
  Hc4.compiled ->
  (t, string) result

(** Contract each box through the native pipeline: {!native_batch} on
    every box, one native call (one [jit.batches] count) per box. Outcomes
    are in input order. *)
val contract_batch : t -> Box.t array -> Icp.native_outcome array

(** The {!Icp.config.native} hook for this plan: one native call on the one
    box the solver expands, so a solve makes one call per expansion. The
    box must have the dimension the plan was compiled for. The outcome is
    bit-identical to {!Hc4.contract_tape} (+ {!Hc4.mean_value_tape} when
    [mvf]) followed by {!Hc4.statuses_on}. The runtime lock is released for
    the kernel call only, so domains sharing a plan contract in
    parallel. *)
val native_batch : t -> Icp.native

(** Remove workspaces left under [dir] (or the system temp dir) by
    crashed/killed processes — directories named [xcvjit-<pid>-*] whose
    [pid] is no longer alive. Run on startup by [plan]; exposed for tests
    and for the daemon's boot path. *)
val sweep_stale_workspaces : ?dir:string -> unit -> unit
