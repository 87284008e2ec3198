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

(** [outcome_of_sexp sexp] reads an outcome tree embedded in a larger
    s-expression (the service's [Result] frames) — {!of_string} without
    the parse.
    @raise Parser.Parse_error on malformed input or version mismatch. *)
val outcome_of_sexp : Parser.Sexp.t -> Outcome.t

(** [save path outcomes] / [load path] — a campaign archive (one
    s-expression per line). [save] replaces [path] through
    {!write_file_atomic}, so a kill mid-save leaves the old file or the
    whole archive, never a torn one. *)
val save : string -> Outcome.t list -> unit

val load : string -> Outcome.t list

(** {1 Crash-safe byte primitives}

    Every byte the program persists or sends goes through {!faulted_write}:
    the verdict cache, the service journal, campaign checkpoints and
    archives, the [--metrics] and [--trace] files, and the service's
    socket frames. Files take one of three durable write shapes:
    whole-line appends (one [write(2)] on an [O_APPEND] descriptor, so
    concurrent writers interleave lines, never bytes), whole-file
    replacement (tmp file + [rename], so a reader never sees a
    half-written file) and create-if-absent (tmp file + [link(2)]). All
    consult an optional {!Fault.io_plan} before touching the descriptor —
    torn entries, ENOSPC and EINTR are deterministically injectable
    ([@raise Fault.Io_injected]). *)

(** [faulted_write ?io_faults ~what fd bytes] writes all of [bytes] to
    [fd], retrying real [EINTR]s and short counts. With a plan, each
    attempt first draws a decision keyed on [bytes]: an injected [Eintr]
    retries (attempts 0 to 8, then gives up), [Enospc] raises before any
    byte lands, and [Short_write] lands the first half of [bytes] (at
    least one byte) and raises — what a process killed mid-write leaves.
    [what] names the target in the exception. *)
val faulted_write :
  ?io_faults:Fault.io_plan -> what:string -> Unix.file_descr -> string -> unit

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

(** [create_file ?io_faults path content] creates [path] holding [content]
    unless it exists already: the same fsynced tmp-file write as
    {!write_file_atomic}, then [link(2)] into place and a directory fsync.
    [link] fails with [EEXIST] instead of replacing (and that is ignored),
    so a concurrent creator's file and whatever was appended to it since
    survive. On any failure the tmp file is removed and [path] is not
    created. The verdict cache creates its group files this way. *)
val create_file : ?io_faults:Fault.io_plan -> string -> string -> unit

(** [fold_lines path f init] is the one reader of line files — archives,
    checkpoints, verdict-cache groups and the service journal. It folds
    [f] over the lines of [path] in order, skipping blank ones; [f]
    returns [`Next acc] to go on or [`Stop acc] to end the fold at that
    line. The result pairs the last accumulator with the byte offset
    where reading stopped: the start of the line [f] stopped at, or the
    end of the file. What a bad line means is the caller's policy.
    @raise Sys_error when [path] cannot be opened. *)
val fold_lines :
  string -> ('a -> string -> [ `Next of 'a | `Stop of 'a ]) -> 'a -> 'a * int

(** [percent_encode s] maps [s] onto a single safe s-expression atom:
    alphanumerics and [_.-+/] are kept, everything else is [%xx]-escaped,
    and the empty string is a bare [%]. Outcome labels, error messages and
    embedded metrics use it, and so do the service protocol's free-form
    strings. [percent_decode] inverts it. *)
val percent_encode : string -> string

val percent_decode : string -> string

(** {1 Digests and campaign headers}

    Checkpoints carry a header line identifying the run that wrote them:
    a hash of the verdict-relevant configuration and a hash of the encoded
    formula set. Resume refuses checkpoints whose hashes do not match,
    instead of silently mixing verdicts from different runs. *)

(** [digest s] — 16 lowercase hex chars of a 64-bit byte fold (FNV-style
    multiply through the splitmix64 finalizer). Stable across processes
    and platforms. *)
val digest : string -> string

type header = {
  config_hash : string;  (** {!digest} of the verdict-relevant config *)
  formula_hash : string;  (** {!digest} of the encoded problem set *)
}

val header_to_string : header -> string

(** [check_header ~path ~expect h] raises [Failure] with an operator-facing
    message naming [path] when [h]'s config or formula hash differs from
    [expect]'s. *)
val check_header : path:string -> expect:header -> header -> unit

(** [write_header path header] replaces [path] with the single header
    line — the start of a fresh checkpoint — through
    {!write_file_atomic}, so a kill mid-write leaves the old file or the
    header, never a headerless file. *)
val write_header : string -> header -> unit

(** {1 Checkpoint entries}

    A campaign checkpoint is a {!header} line followed by one entry line
    per completed pair, each appended with {!append_line} (one write), so a
    killed process leaves a loadable prefix plus at most one torn tail.
    An entry extends the outcome line with the pair's metrics snapshot
    JSON, so a resumed run reproduces the uninterrupted run's metrics.
    Plain outcome lines — archives, and older checkpoints — read back as
    entries without metrics. The region-path field that checkpoints
    written for the retired shard merge carry is skipped on reading, so
    those unsharded checkpoints still resume and replay. *)

type entry = {
  outcome : Outcome.t;
  metrics_json : string option;
      (** {!metrics_to_string} of the pair's own metrics instance *)
}

val entry_to_string : entry -> string

(** [entry_line ?metrics_json bytes] is the entry line of an outcome that
    {!to_string} printed as [bytes]; it is the only printer of entry lines
    ([entry_to_string] calls it), so the verdict cache can commit the
    bytes it replies with without printing the outcome again. *)
val entry_line : ?metrics_json:string -> string -> string

(** [append_torn_entry path bytes] appends to [path] the prefix of the
    entry line of [bytes] that an injected [Short_write] leaves: what a
    kill in the middle of the append would leave behind. The crash hooks
    of the service gate call it before they SIGKILL themselves, and the
    campaign's kill-and-resume test tears a killed run's checkpoint with
    it. *)
val append_torn_entry : string -> string -> unit

(** The structured view of a checkpoint file: optional leading header, the
    valid entry prefix, whether a torn/malformed tail was skipped, and the
    byte offset where the valid prefix ends (the truncation point for
    {!repair_checkpoint}). A missing file reads as the empty checkpoint;
    reading stops silently at the first malformed line (a torn write from
    a killed campaign) — unlike {!load}, which raises. A header with shard
    coordinates, written by a process of the retired sharded campaigns,
    is refused: [read_checkpoint] and {!load} raise [Failure] naming the
    path and saying that sharded checkpoints can no longer be resumed. *)
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
    rendering the worker-count and resume byte-identity contracts are
    stated over. *)
val paint_to_string : Outcome.t -> string

(** {1 Metrics snapshots}

    The [--metrics] files and the per-pair snapshots in checkpoint
    entries: [{"version":1, "deterministic":{...}, "wall":{...}}] in the
    snapshot's sorted key order, one member per line, so the files are
    line-diffable and the deterministic section is byte-comparable across
    runs. *)

(** The full export, newline-terminated. *)
val metrics_to_string : Obs.Metrics.snapshot -> string

(** The deterministic section alone (counters and histograms), laid out
    as in {!metrics_to_string} — the bytes that must not depend on the
    worker count. *)
val deterministic_metrics_to_string : Obs.Metrics.snapshot -> string

(** [metrics_of_string s] parses {!metrics_to_string} output back into a
    snapshot, for merge-time folding.
    @raise Parser.Parse_error on malformed input. *)
val metrics_of_string : string -> Obs.Metrics.snapshot

(** {1 Trace JSON}

    {!Trace} event logs are exported as JSON for external tooling (jq,
    plotting scripts). Deterministic output: object fields are emitted in a
    fixed order and numbers use the shortest round-tripping decimal, so the
    trace of a deterministic run is byte-identical across runs — which is
    what the golden-file test pins down. *)

(** A minimal JSON document model, sufficient for traces and metrics. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list
    | Int of int
        (** printed exactly at any magnitude; {!of_string} reads every
            number back as [Num] *)

  (** The compact form: no whitespace. The metrics files use an
      indented form of the same printer. *)
  val to_string : t -> string

  (** @raise Parser.Parse_error on malformed input. *)
  val of_string : string -> t

  (** [member key obj] is the field [key] of the object [obj].
      @raise Parser.Parse_error when [obj] is not an object or lacks
      [key]. *)
  val member : string -> t -> t
end

(** [trace_to_string events] — the versioned JSON of an event log, the
    [trace] member of {!trace_report}. Write-only: no command reads a
    trace back. *)
val trace_to_string : Trace.event list -> string

(** [trace_report outcome events] — the [--trace] payload: the pair's
    labels and aggregated {!Outcome.stats} alongside the full event log.
    The report's [stats.total_expansions] equals the sum of the [fuel]
    fields of its [solve] events. *)
val trace_report : Outcome.t -> Trace.event list -> string
