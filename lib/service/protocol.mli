(** Wire protocol of the verification service.

    Length-prefixed s-expression frames over a Unix-domain socket:

    {v frame := 8 lowercase hex digits (payload byte length) '\n'
             payload bytes '\n' v}

    The fixed-width prefix makes framing trivially incremental and the
    trailing newline keeps captures readable with [cat]. Payloads are
    single s-expressions in the {!Parser.Sexp} syntax; free-form strings
    (labels, error messages) ride as {!Serialize.percent_encode}d atoms,
    and outcomes embed as the bytes {!Serialize.to_string} prints. One
    function, {!result_payload}, renders every [Result] frame around those
    bytes, so a cached reply spliced from the verdict cache's stored bytes
    is byte-identical to the freshly solved one.

    One request yields one or more responses tagged with the request's
    [id] (client-chosen, echoed verbatim): zero or more [Progress] frames,
    then exactly one terminal frame — [Result] for [verify] ([Done] closes
    a [campaign]'s result stream), or [Overloaded] / [Refused] / [Failed].
    Responses to different ids may interleave on one connection. *)

type query_opts = {
  deadline_ms : int option;  (** per-query wall budget *)
  fuel : int option;  (** solver fuel override *)
  threshold : float option;  (** splitting threshold override *)
}

val no_opts : query_opts

type request =
  | Ping
  | Stats of int
  | Cancel of int
      (** cooperative: the query drains and returns a partial verdict map *)
  | Verify of { id : int; dfa : string; condition : string; opts : query_opts }
  | Campaign of { id : int; dfa : string; opts : query_opts }
      (** all applicable conditions for [dfa]; one [Result] per pair, then
          [Done] *)

type stats_payload = {
  cache_hits : int;
  cache_misses : int;
  solver_calls : int;
  pending : int;  (** queued + running queries *)
  quota_remaining : int option;  (** this client's fuel quota, if any *)
}

type response =
  | Pong
  | Progress of { id : int; label : string; boxes : int; solver_calls : int }
  | Result of {
      id : int;
      cached : bool;  (** served from the verdict cache, zero solver calls *)
      degraded : int;  (** degradation-ladder rung (0 = full fidelity) *)
      partial : bool;
          (** deadline or cancellation drained the run: painted regions so
              far, remainder painted [Timeout] *)
      outcome : Outcome.t;
    }
  | Done of { id : int; count : int }
  | Overloaded of { id : int; inflight : int; max_inflight : int }
      (** admission control: the bounded queue is full; retry later *)
  | Refused of { id : int; reason : string }
      (** quota exhausted beyond the last degradation rung *)
  | Stats_reply of { id : int; stats : stats_payload }
  | Failed of { id : int; message : string }

val request_to_string : request -> string

(** [request_of_sexp sexp] reads a request embedded in a larger
    s-expression (the service journal's [inflight] lines) —
    {!request_of_string} without the parse.
    @raise Parser.Parse_error on malformed input. *)
val request_of_sexp : Parser.Sexp.t -> request

(** @raise Parser.Parse_error on malformed input. *)
val request_of_string : string -> request

val response_to_string : response -> string

(** [result_payload ~id ~cached ~degraded ~partial bytes] is the payload of
    a [Result] frame whose outcome {!Serialize.to_string} prints as
    [bytes]. It is the only printer of result frames:
    [response_to_string (Result r)] calls it with [r]'s outcome printed. *)
val result_payload :
  id:int -> cached:bool -> degraded:int -> partial:bool -> string -> string

(** A response together with the payload it is sent as. *)
type reply = { response : response; payload : string }

(** [reply r] — [r] with the payload {!response_to_string} prints. *)
val reply : response -> reply

(** [result ~id ~cached ~degraded ~partial outcome bytes] — a [Result]
    reply whose payload is spliced around [bytes], which must be
    [Serialize.to_string outcome]; the outcome is not printed again. *)
val result :
  id:int -> cached:bool -> degraded:int -> partial:bool -> Outcome.t ->
  string -> reply

(** @raise Parser.Parse_error on malformed input. *)
val response_of_string : string -> response

val request_id : request -> int option
val response_id : response -> int option

(** Whether [resp] ends the response stream of [req]. *)
val is_terminal : request -> response -> bool

(** {1 Framing} *)

(** [write_frame ?io_faults fd payload] writes one frame, header and
    payload together, through {!Serialize.faulted_write}: real [EINTR]s
    and short counts are retried, and injected I/O faults, keyed on the
    framed bytes, tear or abort the write exactly as they do a
    {!Serialize.append_line}. *)
val write_frame : ?io_faults:Fault.io_plan -> Unix.file_descr -> string -> unit

(** [read_frame fd] reads exactly one frame. [None] on EOF at a frame
    boundary.
    @raise Failure on a malformed prefix or mid-frame EOF. *)
val read_frame : Unix.file_descr -> string option

(** Payloads above this size (16 MiB) are rejected as malformed rather
    than allocated. *)
val max_payload : int

(** {1 Client helpers} *)

(** [connect path] opens a client connection to the daemon socket. *)
val connect : string -> Unix.file_descr

(** [call fd ?on_progress req] sends [req] and collects responses until
    the terminal one (per {!is_terminal}), returning them in arrival order
    (progress frames go to [on_progress] instead, default drop).
    @raise Failure on EOF before the terminal response. *)
val call :
  ?on_progress:(response -> unit) -> Unix.file_descr -> request ->
  response list
