(* One checkpoint-format file per (config_hash, formula_hash) key group;
   atomic creation (Serialize.create_file), fsynced O_APPEND commits,
   repair-on-open. *)

let m_hits = Obs.Metrics.counter "service.cache.hits"
let m_misses = Obs.Metrics.counter "service.cache.misses"
let m_commits = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.cache.commits"
let m_repairs = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.cache.repairs"

(* an outcome with the bytes Serialize.to_string printed for it once, when
   it was committed or its group was loaded; hits reply with these bytes *)
type entry = { outcome : Outcome.t; bytes : string }

type group = {
  g_file : string;
  g_header : Serialize.header;
  (* oldest first (file order) *)
  mutable g_entries : entry list;
  mutable g_exists : bool;
}

type t = {
  dir : string;
  io_faults : Fault.io_plan option;
  groups : (string, group) Hashtbl.t;  (* keyed by group digest *)
  mutable commits : int;
}

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go dir

let open_dir ?io_faults dir =
  mkdir_p dir;
  { dir; io_faults; groups = Hashtbl.create 16; commits = 0 }

let commits t = t.commits
let refresh t = Hashtbl.reset t.groups

let group_key ~config_hash ~formula_hash =
  Serialize.digest (config_hash ^ ":" ^ formula_hash)

let group_file t ~config_hash ~formula_hash =
  Filename.concat t.dir
    (Printf.sprintf "group-%s.ckpt" (group_key ~config_hash ~formula_hash))

(* Load (or reload) a group from disk, repairing a torn tail first so
   subsequent appends are visible to every loader. *)
let load_group t ~config_hash ~formula_hash =
  let key = group_key ~config_hash ~formula_hash in
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
      let file = group_file t ~config_hash ~formula_hash in
      let header = Serialize.{ config_hash; formula_hash } in
      let exists = Sys.file_exists file in
      let entries =
        if not exists then []
        else begin
          let cp = Serialize.repair_checkpoint file in
          if cp.Serialize.truncated then Obs.Metrics.incr m_repairs 1;
          (match cp.Serialize.cp_header with
          | Some h -> Serialize.check_header ~path:file ~expect:header h
          | None ->
              failwith
                (Printf.sprintf "cache file %s has no header — not a cache \
                                 group file" file));
          List.map
            (fun e ->
              let outcome = e.Serialize.outcome in
              { outcome; bytes = Serialize.to_string outcome })
            cp.Serialize.entries
        end
      in
      let g = { g_file = file; g_header = header; g_entries = entries;
                g_exists = exists }
      in
      Hashtbl.replace t.groups key g;
      g

let entries t ~config_hash ~formula_hash =
  List.map
    (fun e -> e.outcome)
    (load_group t ~config_hash ~formula_hash).g_entries

let find_printed ?(count_miss = true) t ~config_hash ~formula_hash ~box =
  let g = load_group t ~config_hash ~formula_hash in
  match List.find_opt (fun e -> Box.equal e.outcome.Outcome.domain box) g.g_entries with
  | Some e ->
      Obs.Metrics.incr m_hits 1;
      Some (e.outcome, e.bytes)
  | None ->
      if count_miss then Obs.Metrics.incr m_misses 1;
      None

let find t ~config_hash ~formula_hash ~box =
  Option.map fst (find_printed t ~config_hash ~formula_hash ~box)

let put_printed t ~config_hash ~formula_hash outcome bytes =
  let key = group_key ~config_hash ~formula_hash in
  let g = load_group t ~config_hash ~formula_hash in
  if
    List.exists
      (fun e -> Box.equal e.outcome.Outcome.domain outcome.Outcome.domain)
      g.g_entries
  then () (* first commit wins; a duplicate would shadow nothing *)
  else begin
    if not g.g_exists then begin
      Serialize.create_file ?io_faults:t.io_faults g.g_file
        (Serialize.header_to_string g.g_header ^ "\n");
      g.g_exists <- true
    end;
    match
      Serialize.append_line ?io_faults:t.io_faults ~fsync:true g.g_file
        (Serialize.entry_line bytes)
    with
    | () ->
        g.g_entries <- g.g_entries @ [ { outcome; bytes } ];
        t.commits <- t.commits + 1;
        Obs.Metrics.incr m_commits 1
    | exception e ->
        (* the on-disk tail may be torn: drop the in-memory view so the
           next access re-reads and repairs the file *)
        Hashtbl.remove t.groups key;
        raise e
  end

let put t ~config_hash ~formula_hash outcome =
  put_printed t ~config_hash ~formula_hash outcome (Serialize.to_string outcome)
