(** Persistent content-addressed verdict cache.

    A verdict is immutable knowledge: once the solver has proved (or
    refuted) a condition over a box under a given configuration, the answer
    never changes. The cache keys each outcome by
    [config_hash x formula_hash] — the same two digests campaign
    checkpoint headers carry — and stores one checkpoint-format file per
    key group under the cache directory, so every existing loader
    ({!Serialize.read_checkpoint}, the [inspect] tooling) reads cache files
    unmodified.

    {b Crash safety.} Group files are created atomically
    ({!Serialize.create_file}: a fsynced tmp file, [link(2)], which never
    overwrites a concurrent creator's entries, and a directory fsync) and
    extended with single-[write(2)] [O_APPEND] appends fsynced on commit
    ({!Serialize.append_line}) — concurrent daemon processes sharing a
    cache directory interleave whole lines, never bytes. Both writes
    consult the handle's I/O fault plan, the header's as well as the
    entry's. Every open repairs a torn tail first
    ({!Serialize.repair_checkpoint}), so a SIGKILL or an injected I/O
    fault mid-commit costs at most the entry being written; a fault while
    creating the group leaves neither the group file nor a tmp file.

    {b Printed once.} Each entry keeps the bytes {!Serialize.to_string}
    printed for its outcome, printed when the entry is committed (the
    group-file line is built around the same bytes) or when its group is
    loaded. A hit hands those bytes out, so a reply spliced from them
    ({!Protocol.result}) is never printed again.

    {b Exact keys.} A lookup answers only from an entry whose domain equals
    the query box. {!Verify.formula_hash} prints each problem's domain into
    the key, so every entry under a key the engine asks for has the
    engine's box already. *)

type t

(** [open_dir ?io_faults dir] opens (creating if needed) a cache rooted at
    [dir]. Group files are loaded lazily, each repaired on first touch.
    [io_faults], when given, is consulted by every subsequent write. *)
val open_dir : ?io_faults:Fault.io_plan -> string -> t

(** The group file backing a key (whether or not it exists yet):
    [dir/group-<digest(config_hash : formula_hash)>.ckpt]. *)
val group_file : t -> config_hash:string -> formula_hash:string -> string

(** [find t ~config_hash ~formula_hash ~box] — the cached outcome whose
    domain is [box] under the key, if any. Bumps the [service.cache.hits] /
    [service.cache.misses] counters. *)
val find :
  t -> config_hash:string -> formula_hash:string -> box:Box.t ->
  Outcome.t option

(** [find_printed ?count_miss t ~config_hash ~formula_hash ~box] is {!find}
    with the hit outcome's stored {!Serialize.to_string} bytes. [count_miss]
    (default true) set to false leaves a miss uncounted, for a lookup that a
    later one repeats (the engine's admission check). *)
val find_printed :
  ?count_miss:bool -> t -> config_hash:string -> formula_hash:string ->
  box:Box.t -> (Outcome.t * string) option

(** [put t ~config_hash ~formula_hash outcome] commits one verdict:
    ensures the group file exists (with a matching header), appends the
    entry with a single fsynced write, then updates the in-memory view.
    Duplicate domains are skipped (first commit wins — what makes
    concurrent writers converge). On an injected I/O fault the in-memory
    group is invalidated so the next access re-reads (and repairs) the
    file, and the exception propagates. *)
val put : t -> config_hash:string -> formula_hash:string -> Outcome.t -> unit

(** [put_printed t ~config_hash ~formula_hash outcome bytes] is {!put} for a
    caller that has printed the outcome already: [bytes] must be
    [Serialize.to_string outcome], and the entry line is built around them
    without printing again. *)
val put_printed :
  t -> config_hash:string -> formula_hash:string -> Outcome.t -> string ->
  unit

(** All cached outcomes for a key, oldest first (file order). *)
val entries : t -> config_hash:string -> formula_hash:string -> Outcome.t list

(** Successful commits made through this handle (the daemon's
    [XCV_SERVE_KILL_AFTER] hook counts these). *)
val commits : t -> int

(** Drop the in-memory view of every group (next access re-reads from
    disk) — lets tests observe another process's appends. *)
val refresh : t -> unit
