(** Per-box trace telemetry for the worklist verifier.

    Every box the scheduler hands to the solver produces a small burst of
    events — contraction effort, fuel spent, the verdict, and (when the box
    is split) the number of children. Events carry the box's {e path}: the
    sequence of child indices from the root domain, which identifies the box
    uniquely and orders events deterministically regardless of which worker
    domain produced them. A recorder is thread-safe; {!events} returns the
    log sorted in pre-order (path, then per-box step), so traces of the same
    campaign are identical at any worker count.

    Serialization to JSON lives in {!Serialize} ({e trace} functions); the
    CLI's [verify --trace FILE] and the bench's [scheduler] target consume
    it. The invariant checked by the test suite: the {!Solve} fuel summed
    over a pair's events equals [Outcome.stats.total_expansions]. *)

type kind =
  | Contract of { revise_calls : int; sweeps : int }
      (** HC4 effort of this box's solver call *)
  | Solve of { fuel : int; prunes : int }
      (** fuel (box expansions) and prunes of this box's final solver call *)
  | Verdict of string  (** {!Outcome.status_name} of the region painted *)
  | Split of int  (** the box was split into this many children *)
  | Retry of { attempt : int; reason : string; fuel : int }
      (** a failed solver call (reason ["error"] or ["timeout"]) was
          re-run; [attempt] is the upcoming attempt's ordinal and [fuel]
          the expansions burned by the failed attempt. Emitted with
          negative steps so retries sort before the box's final
          contract/solve burst. *)

type event = {
  path : int list;  (** child indices from the root domain; [[]] = root *)
  depth : int;
  step : int;  (** emission order within one box's burst *)
  box : Box.t;
  kind : kind;
}

(** A thread-safe event collector. *)
type t

val create : unit -> t

(** [record t event] appends; safe from any domain. *)
val record : t -> event -> unit

(** The recorded log, sorted pre-order by (path, step) — deterministic for
    a given campaign regardless of scheduling. *)
val events : t -> event list

(** Pre-order comparison on box paths (prefix first). *)
val compare_path : int list -> int list -> int

(** Sum of {!Solve} and {!Retry} fuel over the log; equals the outcome's
    [total_expansions] for the pair the trace was recorded from (failed
    attempts burn real fuel too). *)
val total_fuel : event list -> int

val kind_name : kind -> string
