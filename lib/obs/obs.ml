(* Observability substrate: injectable monotonic clock, lock-free
   per-domain-sharded metrics registry, throttled progress line.

   The registry separates two metric classes. [Deterministic] metrics
   depend only on the work performed (boxes handled, contractions applied,
   fuel burned) — for a deterministic campaign (no deadline) their snapshot
   is identical at every worker count, which the test harness checks
   byte-for-byte. [Wall] metrics are everything scheduling- or
   clock-dependent: timers, gauges, steal counts. Snapshots keep the two
   apart, so the deterministic part can be compared verbatim across runs
   (Serialize prints and parses the snapshot JSON). *)

module Clock = struct
  external monotonic_ns : unit -> int = "xcv_obs_monotonic_ns" [@@noalloc]

  (* Test hook: an injected clock replaces the monotonic source process-wide
     (e.g. frozen at 0 so golden files carry no timings). *)
  let override : (unit -> int) option Atomic.t = Atomic.make None

  let now_ns () =
    match Atomic.get override with None -> monotonic_ns () | Some f -> f ()

  let set f = Atomic.set override (Some f)
  let reset () = Atomic.set override None

  let with_frozen ns f =
    let prev = Atomic.get override in
    Atomic.set override (Some (fun () -> ns));
    Fun.protect ~finally:(fun () -> Atomic.set override prev) f
end

module Metrics = struct
  type clas = Deterministic | Wall

  type counter = int
  type histogram = int
  type gauge = int

  type phase = Encode | Contract | Solve | Split | Paint | Retry

  (* ---- schema ----------------------------------------------------------
     Process-global name tables, one per metric kind; a handle is the index
     of its name. Registration happens at module-initialization time (all
     instrumented libraries register their metrics in top-level bindings),
     so by the time worker domains run, the schema is effectively frozen. *)

  type table = {
    mutable names : string array;
    mutable clases : clas array;
    index : (string, int) Hashtbl.t;
  }

  let mk_table () = { names = [||]; clases = [||]; index = Hashtbl.create 16 }
  let counters_tbl = mk_table ()
  let hists_tbl = mk_table ()
  let gauges_tbl = mk_table ()
  let timers_tbl = mk_table ()
  let reg_lock = Mutex.create ()

  let register tbl name clas =
    Mutex.lock reg_lock;
    let h =
      match Hashtbl.find_opt tbl.index name with
      | Some i -> i
      | None ->
          let i = Array.length tbl.names in
          tbl.names <- Array.append tbl.names [| name |];
          tbl.clases <- Array.append tbl.clases [| clas |];
          Hashtbl.add tbl.index name i;
          i
    in
    Mutex.unlock reg_lock;
    h

  let counter ?(clas = Deterministic) name = register counters_tbl name clas
  let histogram name = register hists_tbl name Deterministic
  let gauge name = register gauges_tbl name Wall
  let timer name = register timers_tbl name Wall

  let phase_encode = timer "phase.encode"
  let phase_contract = timer "phase.contract"
  let phase_solve = timer "phase.solve"
  let phase_split = timer "phase.split"
  let phase_paint = timer "phase.paint"
  let phase_retry = timer "phase.retry"

  let phase_timer = function
    | Encode -> phase_encode
    | Contract -> phase_contract
    | Solve -> phase_solve
    | Split -> phase_split
    | Paint -> phase_paint
    | Retry -> phase_retry

  (* ---- instances and shards --------------------------------------------
     An instance is one registry's worth of cells. Each domain lazily
     appends a private shard to the current instance and thereafter writes
     only to its own shard — plain stores, no locks or atomics on the hot
     path. Readers fold over all shards; reads concurrent with writes may
     observe a slightly stale sum (fine for the progress line), while
     snapshots taken after the worker domains are joined are exact. *)

  let buckets = 64

  type shard = {
    mutable counters : int array;
    mutable hists : int array array;
    mutable gmax : int array;
    mutable timers : int array;
  }

  type t = {
    uid : int;
    lock : Mutex.t;
    mutable shards : shard list;
    mutable gcur : int Atomic.t array; (* instance-wide live gauge values *)
    created_ns : int;
  }

  let next_uid = Atomic.make 0

  let fresh () =
    {
      uid = Atomic.fetch_and_add next_uid 1;
      lock = Mutex.create ();
      shards = [];
      gcur = [||];
      created_ns = Clock.now_ns ();
    }

  let current_instance = Atomic.make (fresh ())
  let current () = Atomic.get current_instance

  let install t =
    let prev = Atomic.get current_instance in
    Atomic.set current_instance t;
    prev

  let new_shard () =
    { counters = [||]; hists = [||]; gmax = [||]; timers = [||] }

  (* Per-domain cache of (instance, shard): re-resolved whenever a new
     instance has been installed since this domain last wrote a metric. *)
  let dls : (t * shard) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let shard_for inst =
    let cell = Domain.DLS.get dls in
    match !cell with
    | Some (i, s) when i == inst -> s
    | _ ->
        let s = new_shard () in
        Mutex.lock inst.lock;
        inst.shards <- s :: inst.shards;
        Mutex.unlock inst.lock;
        cell := Some (inst, s);
        s

  (* Owner-only growth: the outer arrays are replaced, never mutated in
     place, so a concurrent reader sees either the old or the new array. *)
  let grown arr n fill =
    if n < Array.length arr then arr
    else begin
      let fresh = Array.make (Stdlib.max 8 (2 * (n + 1))) fill in
      Array.blit arr 0 fresh 0 (Array.length arr);
      fresh
    end

  let incr c n =
    let s = shard_for (current ()) in
    s.counters <- grown s.counters c 0;
    s.counters.(c) <- s.counters.(c) + n

  (* log2 buckets: 0 holds non-positive observations, bucket b >= 1 holds
     [2^(b-1), 2^b - 1], saturating at the top. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and x = ref v in
      while !x > 0 do
        Stdlib.incr b;
        x := !x lsr 1
      done;
      Stdlib.min (buckets - 1) !b
    end

  let observe h v =
    let s = shard_for (current ()) in
    s.hists <- grown s.hists h [||];
    if Array.length s.hists.(h) = 0 then s.hists.(h) <- Array.make buckets 0;
    let b = bucket_of v in
    s.hists.(h).(b) <- s.hists.(h).(b) + 1

  let add_ns t ns =
    let s = shard_for (current ()) in
    s.timers <- grown s.timers t 0;
    s.timers.(t) <- s.timers.(t) + ns

  let add_phase p ns = add_ns (phase_timer p) ns

  let time_phase p f =
    let t0 = Clock.now_ns () in
    Fun.protect ~finally:(fun () -> add_phase p (Clock.now_ns () - t0)) f

  let gauge_cell inst g =
    if g < Array.length inst.gcur then inst.gcur.(g)
    else begin
      Mutex.lock inst.lock;
      if g >= Array.length inst.gcur then begin
        let fresh =
          Array.init (Stdlib.max 8 (2 * (g + 1))) (fun i ->
              if i < Array.length inst.gcur then inst.gcur.(i)
              else Atomic.make 0)
        in
        inst.gcur <- fresh
      end;
      let cell = inst.gcur.(g) in
      Mutex.unlock inst.lock;
      cell
    end

  let gauge_set g v =
    let inst = current () in
    Atomic.set (gauge_cell inst g) v;
    let s = shard_for inst in
    s.gmax <- grown s.gmax g 0;
    if v > s.gmax.(g) then s.gmax.(g) <- v

  let gauge_get g = Atomic.get (gauge_cell (current ()) g)

  let read c =
    let inst = current () in
    Mutex.lock inst.lock;
    let shards = inst.shards in
    Mutex.unlock inst.lock;
    List.fold_left
      (fun acc s -> if c < Array.length s.counters then acc + s.counters.(c) else acc)
      0 shards

  (* ---- snapshots -------------------------------------------------------
     A snapshot is plain sorted data; [merge] is the shard-combining
     algebra: counters, histogram buckets and timers add, gauge watermarks
     and elapsed take the max. All fields are integers (timers in
     nanoseconds), so merge is exactly associative and commutative. *)

  type snapshot = {
    counters : (string * int) list;
    histograms : (string * (int * int) list) list;
    wall_counters : (string * int) list;
    gauges : (string * int) list;
    timers : (string * int) list;
    elapsed_ns : int;
  }

  let empty_snapshot =
    {
      counters = [];
      histograms = [];
      wall_counters = [];
      gauges = [];
      timers = [];
      elapsed_ns = 0;
    }

  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l

  (* Union of two sorted assoc lists, combining collisions with [f]. *)
  let rec merge_assoc cmp f a b =
    match (a, b) with
    | [], r | r, [] -> r
    | (ka, va) :: ta, (kb, vb) :: tb ->
        let c = cmp ka kb in
        if c = 0 then (ka, f va vb) :: merge_assoc cmp f ta tb
        else if c < 0 then (ka, va) :: merge_assoc cmp f ta b
        else (kb, vb) :: merge_assoc cmp f a tb

  let merge s1 s2 =
    {
      counters = merge_assoc String.compare ( + ) s1.counters s2.counters;
      histograms =
        merge_assoc String.compare
          (merge_assoc Int.compare ( + ))
          s1.histograms s2.histograms;
      wall_counters =
        merge_assoc String.compare ( + ) s1.wall_counters s2.wall_counters;
      gauges = merge_assoc String.compare Stdlib.max s1.gauges s2.gauges;
      timers = merge_assoc String.compare ( + ) s1.timers s2.timers;
      elapsed_ns = Stdlib.max s1.elapsed_ns s2.elapsed_ns;
    }

  let table_entries tbl =
    Mutex.lock reg_lock;
    let names = tbl.names and clases = tbl.clases in
    Mutex.unlock reg_lock;
    (names, clases)

  (* Every registered metric appears in a snapshot, at 0 when untouched, so
     two runs of the same binary always produce the same key set. *)
  let zeros ~elapsed_ns =
    let cn, cc = table_entries counters_tbl in
    let det = ref [] and wall = ref [] in
    Array.iteri
      (fun i name ->
        match cc.(i) with
        | Deterministic -> det := (name, 0) :: !det
        | Wall -> wall := (name, 0) :: !wall)
      cn;
    let names tbl = fst (table_entries tbl) in
    {
      counters = sorted !det;
      histograms =
        sorted (Array.to_list (Array.map (fun n -> (n, [])) (names hists_tbl)));
      wall_counters = sorted !wall;
      gauges =
        sorted (Array.to_list (Array.map (fun n -> (n, 0)) (names gauges_tbl)));
      timers =
        sorted (Array.to_list (Array.map (fun n -> (n, 0)) (names timers_tbl)));
      elapsed_ns;
    }

  let shard_snapshot ~elapsed_ns (shard : shard) =
    let cn, cc = table_entries counters_tbl in
    let det = ref [] and wall = ref [] in
    Array.iteri
      (fun i name ->
        let v = if i < Array.length shard.counters then shard.counters.(i) else 0 in
        match cc.(i) with
        | Deterministic -> det := (name, v) :: !det
        | Wall -> wall := (name, v) :: !wall)
      cn;
    let hn, _ = table_entries hists_tbl in
    let hists =
      Array.to_list
        (Array.mapi
           (fun i name ->
             let cells =
               if i < Array.length shard.hists then shard.hists.(i) else [||]
             in
             let sparse = ref [] in
             Array.iteri
               (fun b c -> if c > 0 then sparse := (b, c) :: !sparse)
               cells;
             (name, List.rev !sparse))
           hn)
    in
    let gn, _ = table_entries gauges_tbl in
    let gauges =
      Array.to_list
        (Array.mapi
           (fun i name ->
             (name, if i < Array.length shard.gmax then shard.gmax.(i) else 0))
           gn)
    in
    let tn, _ = table_entries timers_tbl in
    let timers =
      Array.to_list
        (Array.mapi
           (fun i name ->
             (name, if i < Array.length shard.timers then shard.timers.(i) else 0))
           tn)
    in
    {
      counters = sorted !det;
      histograms = sorted hists;
      wall_counters = sorted !wall;
      gauges = sorted gauges;
      timers = sorted timers;
      elapsed_ns;
    }

  let shard_snapshots ?registry () =
    let inst = match registry with Some r -> r | None -> current () in
    let elapsed_ns = Stdlib.max 0 (Clock.now_ns () - inst.created_ns) in
    Mutex.lock inst.lock;
    let shards = inst.shards in
    Mutex.unlock inst.lock;
    List.map (shard_snapshot ~elapsed_ns) shards

  let snapshot ?registry () =
    let inst = match registry with Some r -> r | None -> current () in
    let elapsed_ns = Stdlib.max 0 (Clock.now_ns () - inst.created_ns) in
    List.fold_left merge (zeros ~elapsed_ns) (shard_snapshots ?registry ())
end

module Progress = struct
  (* Throttled one-line campaign status on stderr. Pair and box totals are
     cumulative across the per-pair metrics instances a campaign installs:
     completed pairs are folded in by [pair_done], and the pair in flight
     contributes the live box count of the current instance. Registration
     is idempotent, so these handles alias the ones the instrumented
     modules use. *)
  let c_boxes = Metrics.counter "verify.boxes"
  let g_frontier = Metrics.gauge "worklist.depth"

  type cfg = {
    interval_ns : int;
    out : out_channel;
    total_pairs : int;
    start_ns : int;
    label : string;  (* e.g. "service"; "" for a campaign *)
  }

  let state : cfg option Atomic.t = Atomic.make None
  let last_emit = Atomic.make 0
  let done_pairs = Atomic.make 0
  let done_boxes = Atomic.make 0

  (* serializes read-and-print, so lines from racing domains come out in
     the order their totals were read *)
  let emit_lock = Mutex.create ()

  let enable ?(interval_ns = 1_000_000_000) ?(out = stderr) ?(label = "")
      ~total_pairs () =
    Atomic.set done_pairs 0;
    Atomic.set done_boxes 0;
    Atomic.set last_emit (Clock.now_ns ());
    Atomic.set state
      (Some { interval_ns; out; total_pairs; start_ns = Clock.now_ns (); label })

  let disable () = Atomic.set state None

  (* Retag the active line without restarting the rate/ETA baseline: the
     service daemon multiplexes many clients' queries through one progress
     line and relabels it per query id, so interleaved stderr stays
     attributable. Lost races with a concurrent disable are harmless (the
     relabel is dropped). *)
  let relabel label =
    match Atomic.get state with
    | None -> ()
    | Some cfg -> Atomic.set state (Some { cfg with label })

  let pair_done ~boxes =
    ignore (Atomic.fetch_and_add done_boxes boxes);
    Atomic.incr done_pairs

  let emit cfg now =
    Mutex.protect emit_lock @@ fun () ->
    let boxes = Atomic.get done_boxes + Metrics.read c_boxes in
    let pairs = Atomic.get done_pairs in
    let frontier = Metrics.gauge_get g_frontier in
    let elapsed = float_of_int (now - cfg.start_ns) /. 1e9 in
    let rate = if elapsed > 0.0 then float_of_int boxes /. elapsed else 0.0 in
    let eta =
      if rate > 0.0 then float_of_int frontier /. rate else Float.infinity
    in
    Printf.fprintf cfg.out
      "[campaign%s] pairs %d/%d  boxes %d (%.0f/s)  frontier %d  eta>=%.0fs\n%!"
      (if cfg.label = "" then "" else " " ^ cfg.label)
      pairs cfg.total_pairs boxes rate frontier
      (if Float.is_finite eta then eta else 0.0)

  (* CAS on the last-emit stamp: at most one domain wins each interval, and
     losing domains pay two atomic reads. *)
  let tick () =
    match Atomic.get state with
    | None -> ()
    | Some cfg ->
        let now = Clock.now_ns () in
        let last = Atomic.get last_emit in
        if now - last >= cfg.interval_ns
           && Atomic.compare_and_set last_emit last now
        then emit cfg now
end

(* Up-front writability check for CLI output paths ([--metrics],
   [--checkpoint], ...): fail at argument parsing, not mid-campaign. *)
let validate_output_path path =
  let writable p =
    match Unix.access p [ Unix.W_OK ] with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error
          (Printf.sprintf "%s is not writable (%s)" p (Unix.error_message e))
  in
  let dir = Filename.dirname path in
  if String.equal path "-" then Ok ()
  else if not (Sys.file_exists dir) then
    Error (Printf.sprintf "directory %s does not exist" dir)
  else if not (Sys.is_directory dir) then
    Error (Printf.sprintf "%s is not a directory" dir)
  else
    (* output files are replaced by a rename (its tmp file is created in
       [dir]), which must not land on a directory or a device such as
       /dev/null, and would replace a symbolic link, not write through it *)
    match (Unix.lstat path).Unix.st_kind with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> writable dir
    | Unix.S_REG -> Result.bind (writable dir) (fun () -> writable path)
    | Unix.S_LNK ->
        Error
          (Printf.sprintf "%s is a symbolic link, which would be replaced" path)
    | _ -> Error (Printf.sprintf "%s is not a regular file" path)
