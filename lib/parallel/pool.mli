(** Minimal multicore work distribution over OCaml 5 domains.

    The verification campaign is embarrassingly parallel across
    (DFA, condition) pairs and across subdomains, so a shared-counter
    work-pulling map is all the structure needed. With [workers = 1] (the
    default on single-core hosts) everything degrades to plain sequential
    evaluation with no domains spawned — important because spawning domains
    has a fixed cost and the solver itself is allocation-heavy.

    Note: expression hash-consing ({!Expr}) uses an unsynchronized global
    table, so tasks executed on secondary domains must not {e build} new
    expressions; the verifier respects this by encoding all formulas on the
    main domain before fanning out solver calls, which only read them. *)

(** Recommended worker count: [Domain.recommended_domain_count ()], at
    least 1. *)
val default_workers : unit -> int

(** [map ~workers f xs] applies [f] to every element, distributing items to
    [workers] domains through a shared atomic cursor. Results preserve input
    order. Fail-fast: the first exception raised by any task is re-raised
    after all domains are joined, and a worker that observes the failure
    stops claiming new items immediately (in-flight items on other workers
    still finish). *)
val map : workers:int -> ('a -> 'b) -> 'a list -> 'b list

(** [iter ~workers f xs] — as {!map}, discarding results. *)
val iter : workers:int -> ('a -> unit) -> 'a list -> unit
