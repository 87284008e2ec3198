(** HC4-revise: forward-backward interval constraint propagation.

    This is the contractor at the heart of the δ-complete decision procedure
    (dReal's ICP core uses the same scheme). Each atom [e rel 0] is compiled
    once into an interval tape ({!Itape}); a revise on a box then:

    + evaluates the expression DAG forward with interval arithmetic, one
      register per distinct subterm;
    + seeds the root with the relation's target interval (e.g. [[-inf, 0]]
      for [e <= 0]) and propagates {e requirements} backward through each
      operator's partial inverses, in reverse topological order so that a
      shared subterm meets the requirements of {e all} its parents in one
      linear pass;
    + reads the contracted variable domains off the requirement registers.

    The result is a box that contains every point of the input box satisfying
    the atom. An empty requirement anywhere proves the atom unsatisfiable on
    the box.

    The tape is the only interpreted engine. A tree-walking reference
    implementation lives in [test/tree_oracle.ml], where the equivalence
    properties check the tape against it bit for bit. *)

type result = Itape.result = Contracted of Box.t | Infeasible

(** Telemetry cell for the contraction pipeline: how many revise calls
    and full sweeps a caller (usually one {!Icp.solve}) consumed. The
    solver threads one of these per call and reports the totals in
    {!Icp.stats}; the verifier aggregates them per (DFA, condition) pair. *)
type counters = { mutable revise_calls : int; mutable sweeps : int }

(** A fresh zeroed cell. *)
val counters : unit -> counters

(** {1 Compiled formulas} *)

(** A formula compiled against a fixed variable order, plus the
    variable-to-atom incidence map driving the contraction agenda.
    Immutable, and safe to share across worker domains (revise scratch is
    domain-local). *)
type compiled

(** [compile ~vars formula] compiles each atom with {!Itape.compile}.
    Boxes given to {!contract_tape} must use the variable order [vars]. *)
val compile : vars:string list -> Form.t -> compiled

(** The compiled tapes, in formula order. Read-only: exposed for external
    code generators ({!Jit}) that render the same programs the interpreted
    agenda replays. *)
val progs : compiled -> Itape.t array

(** Box dimension -> indices of atoms reading it — the agenda's re-dirty
    map. Read-only, same caveat as {!progs}. *)
val incidence : compiled -> int array array

(** [statuses_on compiled box] is {!Itape.status_on} of every atom, in
    formula order: the interval certainty of each atom over the box. *)
val statuses_on : compiled -> Box.t -> [ `Holds | `Fails | `Unknown ] list

(** [eval_midpoint compiled j box] is atom [j]'s expression in float
    arithmetic at the box's midpoint, on its scalar {!Compile} tape: the
    value [Eval.eval (Box.midpoint box)] computes, with the same
    operations in the same order. *)
val eval_midpoint : compiled -> int -> Box.t -> float

(** [holds_at_midpoint compiled box] is [Form.all_hold_at (Box.midpoint
    box)] of the compiled formula, on the scalar tapes. *)
val holds_at_midpoint : compiled -> Box.t -> bool

(** [contract_tape ?counters compiled box ~rounds] applies {!Itape.revise}
    for every atom of the conjunction repeatedly, up to [rounds] sweeps or
    until a sweep improves no dimension by more than 1%. An AC-3 style
    agenda skips atoms whose variables have not been contracted since
    their last (fixpoint) revise; skipping never changes the result. When
    [counters] is given, revise calls and sweeps are accumulated into it. *)
val contract_tape :
  ?counters:counters -> compiled -> Box.t -> rounds:int -> result

(** [mean_value_tape compiled box] applies {!Itape.contract_mvf} — the
    mean-value-form contractor driven by the adjoint sweep — for every
    compiled atom in turn. *)
val mean_value_tape : compiled -> Box.t -> result

(** [smear_scores compiled box] is Kearfott's smear value per box dimension:
    [Σ_atoms mag(∂atom/∂x_i) * width(x_i)], from one adjoint sweep per atom.
    Feed to {!Box.split_smear} / {!Box.smear_dim} to split where the formula
    is most sensitive. Scores are [0] for dimensions no atom reads and never
    NaN. *)
val smear_scores : compiled -> Box.t -> float array
