(** Deadline-aware priority worklist over OCaml 5 domains.

    This module schedules a {e growing} frontier: handling one task may
    spawn subtasks (Algorithm 1's box splitting), and the scheduler always
    runs the highest-priority pending task next, across all workers. The
    verifier uses it at sub-box granularity with widest-box-first ordering,
    so large unresolved subdomains are attacked before small ones and the
    frontier shrinks roughly breadth-first.

    Expression hash-consing ({!Expr}) uses an unsynchronized global table,
    so [handle] runs on secondary domains and must not {e build} new
    expressions — callers encode formulas up front (on the main domain)
    and pass construction-free closures.

    The work-deque is bounded ([capacity]): tasks beyond the bound are not
    lost but processed immediately by the worker that produced them (LIFO,
    outside the priority order), which bounds memory without sacrificing
    completeness. *)

(** Recommended worker count: [Domain.recommended_domain_count ()], at
    least 1. *)
val default_workers : unit -> int

type ('task, 'result) outcome = {
  results : 'result list;
      (** one result per handled task, in unspecified order — callers that
          need a deterministic order should tag tasks and sort *)
  dropped : 'task list;
      (** tasks still pending when [stop] fired — the graceful drain:
          nothing is lost mid-recursion, the caller records these (e.g. as
          timeout regions) *)
}

(** [process ~workers ~compare ~stop ~handle init] runs [handle] over the
    task frontier seeded with [init] until it is exhausted or [stop ()]
    turns true.

    - [compare]: scheduling priority; the pending task that compares
      {e smallest} runs first (pass "wider box ⇒ smaller" for
      widest-box-first).
    - [stop]: polled by every worker before popping the next task (e.g. a
      wall-clock deadline probe). Once true, in-flight tasks finish, every
      pending task is returned in [dropped], and no further tasks start.
    - [handle t] returns [(result, subtasks)]; subtasks are pushed back
      into the shared deque.
    - [recover t exn], when given, supervises failures: a raising [handle]
      is converted into [(result, subtasks)] (e.g. an error-painted region)
      and the run continues — no other task is affected. Without [recover]
      (or if [recover] itself raises), the first failure aborts the run and
      is re-raised on the caller after all domains are joined.
    - [workers = 1] runs everything on the calling domain (no domains are
      spawned); with [n > 1] workers, [n - 1] domains are spawned and the
      caller participates. *)
val process :
  workers:int ->
  compare:('task -> 'task -> int) ->
  ?stop:(unit -> bool) ->
  ?capacity:int ->
  ?recover:('task -> exn -> 'result * 'task list) ->
  handle:('task -> 'result * 'task list) ->
  'task list ->
  ('task, 'result) outcome
