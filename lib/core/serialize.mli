(** Persistence of verification outcomes.

    A full campaign is expensive; CI and analysis workflows want to archive
    the verdicts and re-render tables/maps without re-solving. Outcomes are
    written as s-expressions with hex float literals ([%h]) so every bound
    and model coordinate round-trips bit-exactly.

    The format is versioned; {!load} rejects unknown versions rather than
    guessing. Version 3 (current) adds the [error] region status and the
    [retries] stat; version 2 archives are still read (with [retries = 0]). *)

val format_version : int

(** [to_string outcome] serializes one outcome. *)
val to_string : Outcome.t -> string

(** [of_string s] parses a serialized outcome.
    @raise Parser.Parse_error on malformed input or version mismatch. *)
val of_string : string -> Outcome.t

(** [sexp_of_outcome o] is the tree {!to_string} prints, for embedding an
    outcome in a larger s-expression without printing and re-parsing it
    (the service's [Result] frames). [outcome_of_sexp] inverts it.
    @raise Parser.Parse_error on malformed input or version mismatch. *)
val sexp_of_outcome : Outcome.t -> Parser.Sexp.t

val outcome_of_sexp : Parser.Sexp.t -> Outcome.t

(** [save path outcomes] / [load path] — a campaign archive (one
    s-expression per line). *)
val save : string -> Outcome.t list -> unit

val load : string -> Outcome.t list

(** {1 Crash-safe byte primitives}

    The verdict cache, the service journal and campaign checkpoints are
    built on two durable write shapes: whole-line appends (one [write(2)] on an [O_APPEND]
    descriptor, so concurrent writers interleave lines, never bytes) and
    whole-file replacement (tmp file + [rename], so a reader never sees a
    half-written file). Both consult an optional {!Fault.io_plan} before
    touching the descriptor — torn entries, ENOSPC and EINTR are
    deterministically injectable ([@raise Fault.Io_injected]). *)

(** [append_line ?io_faults ?fsync path line] appends [line ^ "\n"] with a
    single write; [fsync] (default false) syncs the descriptor afterwards —
    the commit barrier of the verdict cache. An injected [Short_write]
    leaves a torn prefix of the line behind, exactly as a kill mid-write
    would; injected [Eintr]s are retried (bounded). *)
val append_line :
  ?io_faults:Fault.io_plan -> ?fsync:bool -> string -> string -> unit

(** [write_file_atomic ?io_faults path content] replaces [path] atomically:
    content goes to a pid-suffixed tmp file, is fsynced, renamed over
    [path], and the directory is fsynced. On any failure (including
    injected faults) the tmp file is removed and [path] is untouched. *)
val write_file_atomic : ?io_faults:Fault.io_plan -> string -> string -> unit

(** [percent_encode s] maps [s] onto a single safe s-expression atom
    (alphanumerics and [_.-+/] kept, everything else [%xx]-escaped) —
    the same encoding outcome labels use. [percent_decode] inverts it.
    The service protocol uses the pair for free-form strings (error
    messages, progress labels) inside its frames. *)
val percent_encode : string -> string

val percent_decode : string -> string

(** {1 Digests and campaign headers}

    Checkpoints carry a header line identifying the run that wrote them:
    a hash of the verdict-relevant configuration, a hash of the encoded
    formula set, and — for sharded campaigns — the shard coordinates.
    Resume and shard merge refuse checkpoints whose hashes do not match,
    instead of silently mixing verdicts from different runs. *)

(** [digest s] — 16 lowercase hex chars of a 64-bit byte fold (FNV-style
    multiply through the splitmix64 finalizer). Stable across processes
    and platforms. *)
val digest : string -> string

type header = {
  config_hash : string;  (** {!digest} of the verdict-relevant config *)
  formula_hash : string;  (** {!digest} of the encoded problem set *)
  shard : (int * int) option;  (** [(index, count)] for shard checkpoints *)
}

val header_to_string : header -> string

(** @raise Parser.Parse_error on malformed input. *)
val header_of_string : string -> header

(** [check_header ~path ~expect h] raises [Failure] with an operator-facing
    message naming [path] when [h]'s config or formula hash differs from
    [expect]'s (the shard field is compared by callers that care). *)
val check_header : path:string -> expect:header -> header -> unit

(** [write_header path header] creates (or truncates) [path] with the
    single header line — the start of a fresh checkpoint. *)
val write_header : string -> header -> unit

(** {1 Checkpoint entries}

    A campaign checkpoint is a {!header} line followed by one entry line
    per completed pair, each appended with {!append_line} (one write), so a
    killed process leaves a loadable prefix plus at most one torn tail.
    An entry extends the outcome line with the region paths of the paint
    log (needed to interleave shard logs back into pre-order at merge
    time) and the pair's metrics snapshot JSON (so a resumed run, and a
    shard merge, reproduce the uninterrupted run's metrics). Plain outcome
    lines — archives, and older unsharded checkpoints — read back as
    entries with both fields [None]. *)

type entry = {
  outcome : Outcome.t;
  paths : int list list option;
      (** one box path per region of [outcome.regions], same order *)
  metrics_json : string option;
      (** [Obs.Metrics.to_json] of the pair's own metrics instance *)
}

val entry_to_string : entry -> string

(** The structured view of a checkpoint file: optional leading header, the
    valid entry prefix, whether a torn/malformed tail was skipped, and the
    byte offset where the valid prefix ends (the truncation point for
    {!repair_checkpoint}). A missing file reads as the empty checkpoint;
    reading stops silently at the first malformed line (a torn write from
    a killed campaign) — unlike {!load}, which raises. *)
type checkpoint = {
  cp_header : header option;
  entries : entry list;
  truncated : bool;
  valid_bytes : int;
}

val read_checkpoint : string -> checkpoint

(** [repair_checkpoint path] truncates a torn tail off [path] (no-op when
    the file is clean or absent) and returns the repaired view — required
    before appending to a checkpoint that survived a kill, because loaders
    stop at the torn line and would never see entries appended after it. *)
val repair_checkpoint : string -> checkpoint

(** [paint_to_string o] — the paint log alone, one region s-expression per
    line. Stats (which carry wall-clock elapsed) are excluded: this is the
    rendering the shard-merge byte-identity contract is stated over. *)
val paint_to_string : Outcome.t -> string

(** [metrics_of_json_string s] parses [Obs.Metrics.to_json] output back
    into a snapshot, for merge-time folding.
    @raise Parser.Parse_error on malformed input. *)
val metrics_of_json_string : string -> Obs.Metrics.snapshot

(** {1 Trace JSON}

    {!Trace} event logs are exported as JSON for external tooling (jq,
    plotting scripts). Deterministic output: object fields are emitted in a
    fixed order and numbers use the shortest round-tripping decimal, so the
    trace of a deterministic run is byte-identical across runs — which is
    what the golden-file test pins down. *)

(** A minimal JSON document model, sufficient for traces. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** @raise Parser.Parse_error on malformed input. *)
  val of_string : string -> t
end

val trace_format_version : int

val json_of_trace : Trace.event list -> Json.t
val trace_of_json : Json.t -> Trace.event list

(** [trace_to_string events] / [trace_of_string s] — the versioned JSON
    round-trip of an event log. *)
val trace_to_string : Trace.event list -> string

val trace_of_string : string -> Trace.event list

(** [trace_report outcome events] — the [--trace] payload: the pair's
    labels and aggregated {!Outcome.stats} alongside the full event log.
    The report's [stats.total_expansions] equals the sum of the [fuel]
    fields of its [solve] events. *)
val trace_report : Outcome.t -> Trace.event list -> string
