(** Unix-domain-socket front-end of the verification service.

    One process, two threads: the main thread multiplexes the listening
    socket and every client connection with [select] (reading request
    frames, writing response frames, emitting throttled [Progress] frames
    for the query being solved); a single runner thread executes queries
    via {!Engine.step ~block:true}. A verdict-cache hit is answered by
    {!Engine.submit} on the main thread, written as soon as its request is
    read. Runner-to-main handoff is a mutex-guarded outbox drained through
    a self-pipe, so the select loop wakes the moment a result is ready.

    Robustness properties, all engine-inherited: admission control
    ([Overloaded] instead of unbounded buffering), per-client quotas with
    graceful degradation, cooperative cancellation on [cancel] frames
    {e and} on client disconnect, crash-safe verdict cache and journal
    replay on restart. [SIGTERM] / [SIGINT] shut the daemon down cleanly
    (socket unlinked, clients closed); [SIGPIPE] is ignored — a client
    vanishing mid-write only closes that client. *)

type config = {
  engine : Engine.config;
  socket_path : string;
  progress_interval_ms : int;
      (** cadence of [Progress] frames for the running query (0 = off) *)
}

(** [run config] serves until SIGTERM/SIGINT (or [stop] returns true,
    polled once per select tick — the embedded/test entry point).
    @raise Failure when the socket path cannot be bound. *)
val run : ?stop:(unit -> bool) -> config -> unit
