(* Merging per-shard campaign checkpoints back into one run.

   The merge contract is byte-identity: the merged paint log, Table I
   render and deterministic metrics section must equal the unsharded run's
   at any shard count and any per-shard worker count. The algebra that
   makes this hold is region interleaving by box path — every shard's
   paint log is a pre-order-sorted slice of the unsharded log with
   pairwise-distinct paths, so a keyed merge of sorted sequences
   reconstructs the full pre-order exactly, independently of shard count,
   merge order, or which shard solved which box. *)

type shard_run = {
  index : int;
  count : int;
  pairs : (Outcome.t * int list list) list;
  metrics : Obs.Metrics.snapshot;
}

type merged = {
  outcomes : Outcome.t list;
  metrics : Obs.Metrics.snapshot;
}

let shard_path base i = Printf.sprintf "%s.shard%d" base i

exception Merge_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Merge_error m)) fmt

let pair_label (o : Outcome.t) = o.Outcome.dfa ^ " / " ^ o.Outcome.condition

let path_to_string p =
  "[" ^ String.concat " " (List.map string_of_int p) ^ "]"

(* Sum the per-shard solver counters; wall clock is the max because the
   shards ran concurrently. Counters partition exactly across shards (the
   trunk is replayed everywhere but counted only by its owner), so the
   merged counters equal the unsharded run's. *)
let merge_stats (a : Outcome.stats) (b : Outcome.stats) : Outcome.stats =
  {
    solver_calls = a.solver_calls + b.solver_calls;
    total_expansions = a.total_expansions + b.total_expansions;
    total_prunes = a.total_prunes + b.total_prunes;
    total_revise_calls = a.total_revise_calls + b.total_revise_calls;
    retries = a.retries + b.retries;
    elapsed = Float.max a.elapsed b.elapsed;
  }

let merge_pair (oa, pa) (ob, pb) =
  let a : Outcome.t = oa and b : Outcome.t = ob in
  if a.Outcome.dfa <> b.Outcome.dfa || a.Outcome.condition <> b.Outcome.condition
  then
    fail "cannot merge outcomes of different pairs (%s vs %s)" (pair_label a)
      (pair_label b);
  if List.length a.Outcome.regions <> List.length pa then
    fail "pair %s: %d regions but %d paths" (pair_label a)
      (List.length a.Outcome.regions)
      (List.length pa);
  if List.length b.Outcome.regions <> List.length pb then
    fail "pair %s: %d regions but %d paths" (pair_label b)
      (List.length b.Outcome.regions)
      (List.length pb);
  (* Merge two path-sorted (path, region) sequences. Each shard's slice is
     already in pre-order, i.e. sorted under Trace.compare_path, so this
     is a plain sorted merge — associative and commutative as long as the
     slices are disjoint, which the duplicate check enforces. *)
  let rec interleave xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (px, _) :: _, (py, _) :: _ when Trace.compare_path px py = 0 ->
        fail "overlapping shard regions for pair %s at box path %s"
          (pair_label a) (path_to_string px)
    | ((px, _) as x) :: xs', (py, _) :: _ when Trace.compare_path px py < 0 ->
        x :: interleave xs' ys
    | _, y :: ys' -> y :: interleave xs ys'
  in
  let tagged o paths = List.combine paths o.Outcome.regions in
  let merged = interleave (tagged a pa) (tagged b pb) in
  let paths = List.map fst merged and regions = List.map snd merged in
  ( {
      a with
      Outcome.regions;
      stats = merge_stats a.Outcome.stats b.Outcome.stats;
    },
    paths )

let check_runs runs =
  (match runs with [] -> fail "no shard runs to merge" | _ -> ());
  let count = (List.hd runs).count in
  List.iter
    (fun r ->
      if r.count <> count then
        fail "shard count mismatch: shard %d says %d shards, shard %d says %d"
          (List.hd runs).index count r.index r.count)
    runs;
  if List.length runs <> count then
    fail "expected %d shards, got %d" count (List.length runs);
  let seen = Array.make count false in
  List.iter
    (fun r ->
      if r.index < 0 || r.index >= count then
        fail "shard index %d out of range 0..%d" r.index (count - 1);
      if seen.(r.index) then
        fail "overlapping shard prefixes: two runs claim shard %d/%d" r.index
          count;
      seen.(r.index) <- true)
    runs;
  let labels r = List.map (fun (o, _) -> pair_label o) r.pairs in
  let reference = labels (List.hd runs) in
  List.iter
    (fun r ->
      if labels r <> reference then
        fail
          "shard %d covers a different pair set than shard %d — partial or \
           mismatched campaign"
          r.index (List.hd runs).index)
    runs

let merge_runs runs =
  try
    check_runs runs;
    let runs = List.sort (fun a b -> Int.compare a.index b.index) runs in
    let first = List.hd runs in
    let pairs =
      List.fold_left
        (fun acc r ->
          List.map2 (fun merged slice -> merge_pair merged slice) acc r.pairs)
        first.pairs (List.tl runs)
    in
    let metrics =
      List.fold_left
        (fun acc (r : shard_run) -> Obs.Metrics.merge acc r.metrics)
        Obs.Metrics.empty_snapshot runs
    in
    Ok { outcomes = List.map fst pairs; metrics }
  with Merge_error m -> Error m

(* File-level loading: `base.shard0` names the campaign (its header says
   how many shards there are); every shard file is then validated against
   shard 0's hashes before any merging happens. *)

let run_of_checkpoint ~path ~file_index (cp : Serialize.checkpoint) =
  let header =
    match cp.Serialize.cp_header with
    | Some h -> h
    | None ->
        fail "%s is not a shard checkpoint (no campaign header line)" path
  in
  let index, count =
    match header.Serialize.shard with
    | Some (i, n) -> (i, n)
    | None ->
        fail "%s is an unsharded checkpoint — nothing to merge" path
  in
  if index <> file_index then
    fail
      "overlapping shard prefixes: %s claims to be shard %d/%d (expected \
       shard %d from its filename)"
      path index count file_index;
  if cp.Serialize.truncated then
    fail
      "shard %d checkpoint %s has a torn tail at byte %d — the shard did \
       not finish; re-run it with --shard %d/%d --resume before merging"
      index path cp.Serialize.valid_bytes index count;
  let pairs =
    List.mapi
      (fun pair_i (e : Serialize.entry) ->
        match e.Serialize.paths with
        | Some paths -> (e.Serialize.outcome, paths)
        | None ->
            fail "shard %d entry %d in %s carries no region paths — not a \
                  shard checkpoint entry"
              index pair_i path)
      cp.Serialize.entries
  in
  let metrics =
    List.fold_left
      (fun acc (e : Serialize.entry) ->
        match e.Serialize.metrics_json with
        | Some j -> Obs.Metrics.merge acc (Serialize.metrics_of_string j)
        | None ->
            fail "shard %d checkpoint %s has an entry without a metrics \
                  snapshot"
              index path)
      Obs.Metrics.empty_snapshot cp.Serialize.entries
  in
  ({ index; count; pairs; metrics }, header)

let read_shards ~base =
  try
    let read i =
      let path = shard_path base i in
      if not (Sys.file_exists path) then
        fail "missing shard file %s — expected every shard of %s present"
          path base;
      run_of_checkpoint ~path ~file_index:i (Serialize.read_checkpoint path)
    in
    let run0, header0 = read 0 in
    let runs =
      run0
      :: List.init (run0.count - 1) (fun j ->
             let i = j + 1 in
             let run, header = read i in
             (if header.Serialize.config_hash <> header0.Serialize.config_hash
              then
                fail
                  "shard %d was written under a different configuration \
                   (config hash %s, shard 0 has %s)"
                  i header.Serialize.config_hash header0.Serialize.config_hash);
             (if header.Serialize.formula_hash <> header0.Serialize.formula_hash
              then
                fail
                  "shard %d is from a different campaign (formula hash %s, \
                   shard 0 has %s)"
                  i header.Serialize.formula_hash header0.Serialize.formula_hash);
             run)
    in
    Ok runs
  with Merge_error m -> Error m

let merge_files ~base =
  match read_shards ~base with
  | Error _ as e -> e
  | Ok runs -> merge_runs runs
