(** Compiled interval tapes: the flat SSA form of the HC4 revise procedure.

    This module compiles a {!Form.atom} once into a register tape
    (mirroring the scalar tape of {!Compile}) that the solver then replays
    per box: integer register slots instead of hashtables, integer box
    dimensions instead of name lookups, and per-worker-domain scratch
    arrays reused across calls. It is the solver's only interpreted
    contraction engine ({!Hc4.contract_tape}).

    The replay is {e operation-for-operation identical} to a tree walk of
    the expression — registers are emitted in the tree walk's forward
    completion order, the backward scan runs in its exact reverse, n-ary
    folds keep their seeds, and certainly-True piecewise guards prune the
    same branches. The only operations the replay leaves out are ones
    that provably change no register: forward registers no changed slot
    reaches, and backward rules that would hand every child back its
    requirement. The tree-walking reference lives in
    [test/tree_oracle.ml], and the equivalence properties in
    [test/test_itape.ml] check the tape against it bit for bit. *)

type result = Contracted of Box.t | Infeasible

type t

(** {1 Program view}

    The instruction set, exposed read-only so external code generators
    (the {!Jit} C emitter) can render a compiled tape without re-deriving
    the SSA construction. The arrays returned below are the tape's own —
    callers must not mutate them. *)

type instr =
  | Iconst of Interval.t
  | Ivar of int  (** box dimension *)
  | Iadd of int array
  | Imul of int array
  | Ipow of {
      base : int;
      expo : int;
      const_expo : float option;
      const_rat : Rat.t option;
      rat_deriv : (Rat.t * Interval.t) option;
          (** [Some (r - 1, enclosure of r)] when [const_rat] is a
              non-integer [r] and [r - 1] does not overflow: the operands
              of the exact-rational derivative rule, computed at compile
              time *)
      rat_inv : Rat.t option;
          (** [Some (1 / r)] when [const_rat] is a non-integer [r]: the
              exponent of the backward inverse, computed at compile time *)
    }
  | Iunop of Expr.unop * int
  | Iselect of { branches : (int * Expr.rel * int) array; default : int }

(** Instructions in forward (children-first) order; register [i] is the
    result of [instrs.(i)]. *)
val instrs : t -> instr array

(** Register holding the atom's expression. *)
val root : t -> int

val rel : t -> Form.relation

(** [target_of_relation (rel prog)], precomputed. *)
val target : t -> Interval.t

(** [(register, box dimension)] per [Ivar], in emission order. *)
val var_regs : t -> (int * int) array

val has_select : t -> bool

(** [compile ~vars atom] compiles [atom] against the variable order [vars]
    (the box's {!Box.vars}); boxes passed to {!revise} must use that order.
    @raise Invalid_argument when the atom reads a variable not in [vars]. *)
val compile : vars:string list -> Form.atom -> t

(** Number of registers (distinct DAG nodes) of the compiled atom. *)
val length : t -> int

(** Box dimensions the atom reads, ascending — the rows of the
    variable-to-atom incidence map {!Hc4.compile} builds. *)
val slots : t -> int array

(** {1 Sweeps}

    Each worker domain keeps one forward register file, shared by
    {!revise}, {!eval}, {!status_on}, {!eval_gradient} and {!contract_mvf}.
    It remembers the program and the bit patterns of the slot bounds it
    last swept. A call on the same pair reuses that sweep instead of
    repeating it, and a call on the same program whose box differs in some
    slots recomputes only the registers that read those slots
    ([itape.forward_reused] counts the reuses, [itape.forward_sweeps] the
    sweeps, [itape.forward_partial] the partial ones among them). The
    mean-value midpoint replay keeps its own file, remembered the same
    way. The answers are the same either way: a register is a pure
    function of the program and the bounds of the slots it reads.

    {!compile} plans each product chain: a leading constant factor's
    product with [[1, 1]] is computed once, and so is the cofactor of [x]
    in a product [c x]. A sweep starts each product from that prefix and
    keeps its running partial products next to its register, written and
    dropped with it, so they are valid exactly when the register is. The
    backward rule of {!revise} and the adjoint sweep of {!eval_gradient}
    and {!contract_mvf} read those prefixes instead of re-multiplying, and
    the adjoint builds only the suffix products a non-constant operand
    reads. Every stored value is the float the unplanned rules computed:
    the same kernel on the same operands in the same order. *)

(** [forget ()] drops the calling domain's remembered sweeps, of both
    files, so its next calls sweep afresh. {!Icp.solve} calls it on entry: reuse then depends
    only on the calls of one solver task, which run in order on one
    domain, so the work counters a reused sweep skips (the
    [transcend.*] counts) come out the same at every worker count. *)
val forget : unit -> unit

(** [revise prog box] is one HC4 revise of the compiled atom on [box]:
    forward evaluation, feasibility test against the atom's relation,
    backward contraction, and read-off of the contracted variable domains.
    The backward pass does not run a rule that would hand every child back
    its requirement unchanged: one whose register still requires exactly
    its own bounded forward value, for the rules that provably keep it
    ([itape.backward_skipped] counts them). Scratch registers live in
    domain-local storage; calls from different worker domains never share
    them. *)
val revise : t -> Box.t -> result

(** [eval prog box] is the forward pass alone: the enclosure of the atom's
    expression over the box. Identical to [Ieval.eval] of the expression
    (same operations in the same association), at tape speed. *)
val eval : t -> Box.t -> Interval.t

(** [status_on prog box] is {!Form.status_of_interval} of {!eval}: the
    solver's per-box certainty test of the compiled atom. *)
val status_on : t -> Box.t -> [ `Holds | `Fails | `Unknown ]

(** {1 Reverse-mode adjoint sweep} *)

type gradient = {
  value : Interval.t;  (** forward enclosure of the atom's expression *)
  partials : Interval.t array;
      (** one per box dimension (zero for dimensions the atom never reads):
          a sound enclosure of [∂expr/∂x_i] over the box wherever [decided] *)
  decided : bool;
      (** [false] when some piecewise guard is undecided over the box; the
          partials then bound the slopes of every still-selectable branch —
          usable as a splitting heuristic, not as a derivative *)
}

(** [eval_gradient prog box] computes the forward enclosure and {e all}
    partial derivatives in one forward plus one backward tape replay,
    instead of one symbolic-gradient tree walk per variable. *)
val eval_gradient : t -> Box.t -> gradient

(** [contract_mvf prog box] is the tape-native mean-value-form contractor:
    [f(X) ⊆ f(m) + Σ G_i (X_i − m_i)] with [G] the adjoint partials, solved
    per dimension with the relational {!Interval.div_rel} (so gradients that
    enclose 0 still contract soundly instead of being skipped). Degrades to
    an identity contraction when the mean value form is invalid on the box:
    undecided piecewise guard, midpoint outside the expression's domain, or
    an empty partial.

    The replay of [f(m)] is skipped, and [box] returned, when every partial
    strictly straddles 0, the box sweep's root [F] is finite at both ends,
    and the mean-value sum still meets the target with [F]'s inner endpoint
    in place of [f(m)]: [F.lo] for [≥]/[>], [F.hi] for [≤]/[<], both for
    [=] ([itape.mvf_replays_skipped] counts the skips). A straddling
    partial leaves every quotient top, so the replay could only prove
    [Infeasible]. Both sweeps enclose [f] at [m], so [f(m).hi ≥ F.lo] and
    [f(m).lo ≤ F.hi], and the outward-rounded sum is monotone in its start:
    the answer is the one the replay would give. The assumption that both
    sweeps enclose [f(m)] is the one every [Unsat] answer already rests on.
    The JIT's C kernel keeps the full replay. *)
val contract_mvf : t -> Box.t -> result

(** {1 Shared backward machinery}

    Used by the tape replay and by the tree-walking test oracle, so the two
    cannot drift apart. *)

(** The sign interval a relation requires of its root expression. *)
val target_of_relation : Form.relation -> Interval.t

(** [backward_pow_int r n] is [{ x | x^n in r }] as disjoint branches; the
    caller meets each branch with the child's domain before hulling. *)
val backward_pow_int : Interval.t -> int -> Interval.t list

val backward_pow_const : Interval.t -> float -> Interval.t list

(** [backward_pow_rat r rat]: the inverse of [x^rat] for an exact
    rational exponent. Integer rationals reuse {!backward_pow_int}
    verbatim; non-integer ones invert through {!Transcend.pow_rat} with
    the exact reciprocal, carrying the exponent rounding that
    {!backward_pow_const} silently drops. *)
val backward_pow_rat : Interval.t -> Rat.t -> Interval.t list

val backward_abs : Interval.t -> Interval.t list
