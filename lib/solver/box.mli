(** Axis-aligned boxes: the search states of the branch-and-prune solver and
    the subdomains of the paper's Algorithm 1.

    A box maps a fixed, ordered set of variable names to intervals. The
    variable order is fixed at construction and shared by all boxes derived
    from it (splitting, contraction), so positional access is safe. *)

type t

(** [make bindings] builds a box; order of [bindings] becomes the variable
    order.
    @raise Invalid_argument on duplicate names or an empty binding list. *)
val make : (string * Interval.t) list -> t

val vars : t -> string list
val dim : t -> int

(** [get box v] is the interval of variable [v].
    @raise Not_found if [v] is not a box variable. *)
val get : t -> string -> Interval.t

val get_idx : t -> int -> Interval.t

(** [set box v i] is a functional update.
    @raise Not_found if [v] is not a box variable. *)
val set : t -> string -> Interval.t -> t

val set_idx : t -> int -> Interval.t -> t

(** [intervals box] is a fresh array of the box's intervals, in variable
    order. *)
val intervals : t -> Interval.t array

(** [with_intervals box ivs] is [box] with its intervals replaced by [ivs]
    (taken, not copied): one allocation for any number of changed
    dimensions, where a chain of {!set_idx} copies the box per dimension.
    @raise Invalid_argument if [ivs] does not match the box dimension. *)
val with_intervals : t -> Interval.t array -> t

(** A box is empty as soon as one of its intervals is. *)
val is_empty : t -> bool

val to_env : t -> Ieval.env

(** [max_width box] is the largest interval width across dimensions, the
    convergence measure of both the solver ([delta]) and Algorithm 1's
    threshold [t]. *)
val max_width : t -> float

(** Index of a widest dimension (ties broken toward lower index), skipping
    degenerate point dimensions.
    @raise Invalid_argument if all dimensions are points. *)
val widest_dim : t -> int

(** [split box] bisects along {!widest_dim}. *)
val split : t -> t * t

(** [smear_dim box ~scores] is the dimension of maximal smear — Kearfott's
    [|df/dx_i| * width(x_i)], with [scores.(i)] the caller's smear value for
    dimension [i] (e.g. from {!Itape.eval_gradient}). Point dimensions and
    non-finite or non-positive scores are skipped; if no dimension has a
    usable score the choice falls back to {!widest_dim}.
    @raise Invalid_argument when [scores] does not match the box dimension,
    or (via the fallback) when all dimensions are points. *)
val smear_dim : t -> scores:float array -> int

(** [split_smear box ~scores] bisects along {!smear_dim}. *)
val split_smear : t -> scores:float array -> t * t

(** [split_all box] bisects along {e every} splittable dimension at once —
    [2^k] children — matching the paper's [split(D)], which "partitions each
    input dimension of D into two equal parts". *)
val split_all : t -> t list

(** [midpoint box] is the centre point, as an assignment. *)
val midpoint : t -> (string * float) list

(** [midpoint_box box] is the centre point as a degenerate box (same
    variable order), the linearization point of the mean-value form. *)
val midpoint_box : t -> t

(** [mem point box] tests pointwise membership (ignores extra bindings in
    [point]). *)
val mem : (string * float) list -> t -> bool

(** [volume box] is the product of widths (infinite if unbounded). *)
val volume : t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
