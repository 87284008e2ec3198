(** Cross-process restart policy for sharded campaigns.

    {!Verify.campaign} makes a shard resumable from its own
    checkpoint after being killed at any point (flushed entry lines, torn
    tails repaired on resume); this module supplies the missing half —
    noticing that a shard process died and relaunching it with resume
    semantics. It is deliberately campaign-agnostic: [spawn] is the only
    coupling, so tests drive it with [Unix.fork]ed children and the CLI
    with fork/exec'd [campaign --shard i/N] processes. *)

(** Lifecycle notifications, for logging and for tests that need a
    deterministic hook (e.g. "kill shard 0 once it has started"). *)
type event =
  | Started of { shard : int; pid : int; restart : int }
  | Died of { shard : int; pid : int; status : Unix.process_status }
  | Restarting of { shard : int; restart : int }
  | Gave_up of { shard : int }

val status_to_string : Unix.process_status -> string

(** [supervise ~count ~spawn ()] launches shards [0..count-1] via
    [spawn ~shard ~resume:false] and waits for all of them. A shard that
    exits non-zero or dies on a signal is relaunched with [resume:true],
    up to [max_restarts] times (default 3) {e per shard}; past that the
    remaining shards are SIGTERMed, reaped, and the whole run fails — an
    incomplete shard would only fail later at merge time.

    Returns [Ok total_restarts] once every shard has exited 0, or
    [Error msg] on give-up — the message names the shard that exhausted its
    budget, so the operator knows which checkpoint to inspect. [spawn] must
    return the pid of a direct child (the supervisor reaps with
    [Unix.wait]); on both exits the supervisor drains every remaining
    zombie ([WNOHANG] sweep), so a caller never inherits unreaped
    children. *)
val supervise :
  count:int ->
  ?max_restarts:int ->
  ?on_event:(event -> unit) ->
  spawn:(shard:int -> resume:bool -> int) ->
  unit ->
  (int, string) result
