(** Solver formulas: conjunctions of sign constraints on expressions.

    The encoder turns a local condition [psi] into a single atom (e.g. EC1
    for a DFA with correlation energy [eps_c] becomes [eps_c <= 0]); the
    solver then decides the satisfiability of [domain /\ not psi], so
    negation is part of the formula algebra here. *)

(** [e rel 0]. *)
type relation = Le0 | Lt0 | Ge0 | Gt0 | Eq0

type atom = { expr : Expr.t; rel : relation }

(** Conjunction of atoms. *)
type t = atom list

val atom : Expr.t -> relation -> atom

(** [le e] is the atom [e <= 0], etc. *)
val le : Expr.t -> atom

val ge : Expr.t -> atom
val gt : Expr.t -> atom
val eq : Expr.t -> atom

(** [negate_atom a] is the complement ([<=] flips to [>], [=] is not
    supported).
    @raise Invalid_argument on [Eq0]. *)
val negate_atom : atom -> atom

(** [holds_at env a] evaluates the atom at a float point — the paper's
    [valid(x)] counterexample check (Algorithm 1, line 8). NaN evaluates to
    false (the model fell outside the expression's domain). *)
val holds_at : (string * float) list -> atom -> bool

(** [satisfies rel v]: the value [v] of an atom's expression satisfies
    [rel]; NaN never does. *)
val satisfies : relation -> float -> bool

val all_hold_at : (string * float) list -> t -> bool

(** Interval certainty of an atom whose expression has the given enclosure
    over a box: [`Holds] everywhere, [`Fails] everywhere, or [`Unknown]. An
    empty enclosure — expression nowhere defined — is [`Fails]. The
    per-box test of {!Itape.status_on}. *)
val status_of_interval :
  Interval.t -> relation -> [ `Holds | `Fails | `Unknown ]

(** [vars f] is the union of variables of all atoms. *)
val vars : t -> string list

val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit
