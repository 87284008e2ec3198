(** Verification outcomes and region bookkeeping for Algorithm 1.

    The verifier emits a {e paint log}: a pre-order sequence of
    (box, status) pairs. A parent box's status is recorded before its
    children's, so re-painting the log in order yields the final region map
    — children refine (overwrite) the parts of a parent that further
    splitting resolved, exactly as the paper's Figures 1 and 2 are drawn. *)

type status =
  | Verified  (** solver proved the condition on the box *)
  | Counterexample of (string * float) list
      (** a model that passed the [valid(x)] float re-check *)
  | Inconclusive of (string * float) list
      (** δ-sat model that failed [valid(x)] — the paper's yellow regions *)
  | Timeout  (** solver fuel exhausted on the box *)
  | Error of string
      (** the solver call raised (after the retry policy was exhausted);
        carries the exception message. Isolated to this box — the rest of
        the campaign is unaffected. *)

type region = { box : Box.t; status : status; depth : int }

(** Aggregated solver telemetry for one (DFA, condition) pair: the sums of
    the per-call {!Icp.stats} counters over every solver call the scheduler
    made, plus the wall clock. When tracing is enabled, the per-box
    {!Trace.Solve} fuel events sum to [total_expansions] exactly. *)
type stats = {
  solver_calls : int;
      (** solver invocations, counting each retry attempt separately *)
  total_expansions : int;  (** summed solver fuel consumed *)
  total_prunes : int;  (** boxes the solver discarded as infeasible *)
  total_revise_calls : int;  (** HC4 revise invocations *)
  retries : int;
      (** re-runs of errored or timed-out solver calls made by the retry
        policy ({!Verify.retry_policy}); 0 when retries are disabled *)
  elapsed : float;  (** wall-clock seconds *)
}

(** All counters zero — a convenience for hand-built outcomes in tests. *)
val zero_stats : stats

type t = {
  dfa : string;
  condition : string;
  domain : Box.t;
  regions : region list;  (** pre-order paint log *)
  stats : stats;
}

(** Table I classification symbols. *)
type classification =
  | Full_verified  (** ✓ — verified on the entire domain *)
  | Partial_verified  (** ✓* — partly verified, rest timeout/inconclusive *)
  | Unknown  (** ? — timeout/inconclusive everywhere *)
  | Refuted  (** ✗ — a counterexample was found *)

(** {1 Rasterization} *)

(** [rasterize t ~xdim ~ydim ~nx ~ny] paints the region log onto an
    [nx * ny] cell grid over the two named dimensions (cells without any
    painted status — possible only for a pair that never resolved — default
    to {!Timeout}). Row index 0 is the {e low} end of [ydim]. For boxes of
    more than two dimensions the projection paints a cell with the status of
    the last region covering the cell centre in the projected plane. *)
val rasterize :
  t -> xdim:string -> ydim:string -> nx:int -> ny:int -> status array array

(** Fractions of the domain (by rasterized area) in each status. *)
type coverage = {
  verified : float;
  counterexample : float;
  inconclusive : float;
  timeout : float;
  error : float;
}

val coverage : ?resolution:int -> t -> coverage

(** [classify t] derives the Table I symbol: any counterexample region means
    {!Refuted}; otherwise full/partial/none verified coverage. *)
val classify : ?resolution:int -> t -> classification

(** First counterexample model of the log, if any. *)
val first_counterexample : t -> (string * float) list option

(** Whether any region of the log carries an {!Error} paint. *)
val has_error : t -> bool

val classification_symbol : classification -> string
val status_name : status -> string
val pp_summary : Format.formatter -> t -> unit
