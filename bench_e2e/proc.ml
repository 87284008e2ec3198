(* Process and file-system helpers. Everything the benchmark writes lives
   under its own work directory; child processes are always reaped. *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Reads to end of file: /proc files report length 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match input ic chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ()
      in
      go ())

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun name ->
      let s = Filename.concat src name in
      if not (Sys.is_directory s) then
        write_file (Filename.concat dst name) (read_file s))
    (Sys.readdir src)

(* Peak resident set size (VmHWM) of [pid], in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match
                   String.split_on_char ' ' (String.trim v)
                   |> List.filter (( <> ) "")
                 with
                 | kb :: _ -> Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
                 | [] -> None)
             | _ -> None)

let self_peak_rss_mb () = peak_rss_mb "self"

(* CPU seconds (user + system, all threads) [pid] has used so far: fields
   14 and 15 of /proc/PID/stat, in clock ticks of 1/100 s. The command
   name before them is parenthesised and may hold spaces. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.index_from s (String.rindex s ')') ' ' + 1 in
  (* [rest] starts at field 3, so fields 14 and 15 are its 12th and 13th *)
  match String.split_on_char ' ' (String.sub s rest (String.length s - rest)) with
  | fields when List.length fields > 12 ->
      (float_of_string (List.nth fields 11) +. float_of_string (List.nth fields 12)) /. 100.
  | _ -> failwith (Printf.sprintf "cannot parse /proc/%d/stat" pid)

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* [spawn_self args] starts this executable again with [args]; its stdout
   goes to /dev/null so it cannot interleave with the result line. *)
let spawn_self args =
  let null = dev_null () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      null null Unix.stderr
  in
  Unix.close null;
  pid

(* Block until [pid] exits, so the exit is seen the moment it happens. *)
let rec wait_exit pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid

(* Wait for [pid]; after [timeout_s] send SIGKILL and reap it. *)
let wait_pid ?(timeout_s = 30.) pid =
  let t0 = Stats.now_ns () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Stats.secs_since t0 > timeout_s then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          snd (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.002;
          go ()
        end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* SIGTERM, then reap (SIGKILL after [timeout_s]). *)
let stop_pid ?timeout_s pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (wait_pid ?timeout_s pid)
