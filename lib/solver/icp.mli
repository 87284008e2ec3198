(** Branch-and-prune δ-complete decision procedure — the drop-in replacement
    for the dReal solver used by XCVerifier.

    [solve cfg box formula] decides the satisfiability of the conjunction
    over the box:

    - {!Unsat}: proved — no point of the box satisfies the formula. Because
      interval evaluation over-approximates, this verdict is sound.
    - {!Sat}: a model is returned. When [certified] is true, an entire
      sub-box was shown to satisfy every atom, so the model is a true
      solution. When false, the model is the midpoint of a box smaller than
      [delta] on which the atoms could not be decided — the δ-SAT case; the
      caller must run the paper's [valid(x)] check and may find the model
      spurious (Algorithm 1's {e inconclusive} outcome).
    - {!Timeout}: the fuel budget (number of box expansions) was exhausted.
      Fuel replaces the paper's two-hour wall-clock limit with a
      deterministic, machine-independent measure.

    The search is depth-first; each expanded box is first narrowed by the
    {!Hc4} contractor replaying the formula's compiled interval tape (or,
    with [config.native] set, by one call of the native kernel), then
    tested, then bisected along the dimension the configured
    [split_heuristic] picks (widest-first by default). A floating-point
    sample at the box midpoint accelerates SAT detection (counterexamples
    in large violation regions are typically found within a handful of
    expansions). *)

type verdict =
  | Unsat
  | Sat of { model : (string * float) list; certified : bool }
  | Timeout

type stats = {
  expansions : int;  (** boxes taken off the worklist — the fuel spent *)
  prunes : int;  (** boxes discarded as infeasible by contraction *)
  max_depth : int;  (** deepest bisection level reached *)
  revise_calls : int;  (** HC4 revise invocations (see {!Hc4.counters}) *)
  sweeps : int;  (** HC4 contraction sweeps *)
}

(** Result of one native (JIT-compiled) contraction of one box: the
    pipeline outcome, the per-atom statuses on the contracted box, and the
    revise/sweep counter deltas the kernel accrued — added to the solver
    call's {!Hc4.counters}, so the interpreted and native paths report
    identical deterministic counters. *)
type native_outcome = {
  n_result : Hc4.result;
  n_statuses : [ `Holds | `Fails | `Unknown ] array;
  n_revise : int;
  n_sweeps : int;
}

(** A native contractor ({!Jit}): one call contracts one box. It must
    replay the {e whole} configured pipeline (HC4 agenda, any mean-value
    stage and the statuses) bit-identically to the interpreted tape; when
    [config.native] is set the [contractors] argument of {!solve} is
    ignored. *)
type native = Box.t -> native_outcome

type config = {
  delta : float;  (** box-width threshold for the δ-SAT verdict *)
  fuel : int;  (** maximum box expansions before {!Timeout} *)
  contractor_rounds : int;  (** HC4 sweeps per expansion *)
  faults : Fault.plan option;
      (** deterministic fault injection ({!Fault}); [default_config] picks
          this up from the [XCV_FAULT_RATE] / [XCV_FAULT_SEED] environment
          hook, [None] otherwise *)
  tape : Hc4.compiled option;
      (** the formula compiled against the box's variable order
          ({!Hc4.compile}); every box of the search is contracted and
          tested by replaying it. [None] (as in [default_config]) compiles
          the formula once on entry to each {!solve}; the verifier compiles
          it once per (DFA, condition) pair and always passes it here. *)
  split_heuristic : [ `Widest | `Smear ];
      (** which dimension to bisect: [`Widest] (the default, the paper's
          blind widest-first rule) or [`Smear] — Kearfott's maximal-smear
          rule [|∂f/∂x_i| * width(x_i)] fed by the adjoint tape
          ({!Hc4.smear_scores}). Both splits are sound — the heuristic
          changes exploration order, never verdict soundness. *)
  native : native option;
      (** when set, each expanded box is contracted and tested by this
          native kernel, one box per call, instead of the interpreted
          tape. [None] in [default_config]; the verifier installs the
          {!Jit} kernel behind [--jit]. *)
}

val default_config : config

(** The stable 64-bit identity of a solver call on this box (a fold of its
    bounds, bit-exact) — the key {!Fault.decide} is given. Exposed so tests
    can predict which boxes a plan will fault. *)
val fault_key : Box.t -> int64

(** [solve ?contractors ?attempt cfg box formula] decides the conjunction.
    Optional [contractors] are extra pipeline stages applied after each HC4
    contraction (e.g. {!Hc4.mean_value_tape}); each must be sound (never
    discard a satisfying point). [attempt] (default 0) is the caller's retry
    ordinal; it only affects fault injection — a retried call re-rolls the
    fault dice. When [cfg.faults] decides to fault this call, the call
    raises {!Fault.Injected}, returns a NaN-coordinate δ-sat model, or
    reports {!Timeout} without consuming fuel, by the drawn kind.
    @raise Invalid_argument when [cfg.tape] is [None] and the formula reads
    a variable the box does not have. *)
val solve :
  ?contractors:(Box.t -> Hc4.result) list ->
  ?attempt:int ->
  config -> Box.t -> Form.t -> verdict * stats

val pp_verdict : Format.formatter -> verdict -> unit
