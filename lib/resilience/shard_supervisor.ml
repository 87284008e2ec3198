(* Cross-process fault tolerance for sharded campaigns.

   The supervisor owns nothing about campaigns — it is parameterised over
   [spawn], which forks (or fork/execs) one shard and returns its pid.
   That keeps the policy testable in-process: the kill-a-shard test spawns
   children with Unix.fork and SIGKILLs one of them, and the CLI spawns
   real `campaign --shard i/N` processes through the same interface.

   Restart policy: a shard that dies (non-zero exit or a signal) is
   relaunched with [resume:true], pointing it back at its own checkpoint —
   the torn-tail repair plus per-pair resume in Verify.campaign make
   the restart pick up exactly where the dead process left off. Each shard
   has its own restart budget; exhausting it aborts the whole campaign
   (remaining shards are SIGTERMed and reaped) because a merge would fail
   on the incomplete shard anyway. *)

type event =
  | Started of { shard : int; pid : int; restart : int }
  | Died of { shard : int; pid : int; status : Unix.process_status }
  | Restarting of { shard : int; restart : int }
  | Gave_up of { shard : int }

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

exception Gave_up_on of int

(* Drain every terminated child without blocking: the supervisor must not
   leave zombies behind on the abort path (exiting-0 stragglers and
   grandchildren reparented our way would otherwise linger until the whole
   process exits). ECHILD means the table is clean. *)
let reap_stragglers () =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let supervise ~count ?(max_restarts = 3) ?(on_event = fun (_ : event) -> ())
    ~spawn () =
  if count <= 0 then invalid_arg "Shard_supervisor.supervise: count <= 0";
  (* pid -> shard, plus per-shard restart counters. *)
  let of_pid = Hashtbl.create 16 in
  let restarts = Array.make count 0 in
  let launch ~shard ~resume =
    let pid = spawn ~shard ~resume in
    Hashtbl.replace of_pid pid shard;
    on_event (Started { shard; pid; restart = restarts.(shard) });
    pid
  in
  let rec waitpid_retry pid =
    match Unix.waitpid [] pid with
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  in
  let kill_all () =
    Hashtbl.iter
      (fun pid _ -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      of_pid;
    Hashtbl.iter
      (fun pid _ ->
        try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
      of_pid;
    Hashtbl.reset of_pid;
    reap_stragglers ()
  in
  try
    for shard = 0 to count - 1 do
      ignore (launch ~shard ~resume:false)
    done;
    let live = ref count in
    while !live > 0 do
      match Unix.wait () with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | pid, status -> (
          match Hashtbl.find_opt of_pid pid with
          | None -> () (* not ours — e.g. a grandchild reparented our way;
                          already reaped by the wait itself *)
          | Some shard -> (
              Hashtbl.remove of_pid pid;
              match status with
              | Unix.WEXITED 0 -> decr live
              | status ->
                  on_event (Died { shard; pid; status });
                  if restarts.(shard) >= max_restarts then (
                    on_event (Gave_up { shard });
                    kill_all ();
                    raise (Gave_up_on shard))
                  else (
                    restarts.(shard) <- restarts.(shard) + 1;
                    on_event (Restarting { shard; restart = restarts.(shard) });
                    ignore (launch ~shard ~resume:true))))
    done;
    reap_stragglers ();
    Ok (Array.fold_left ( + ) 0 restarts)
  with
  | Gave_up_on shard ->
      Error
        (Printf.sprintf
           "shard %d died %d times in a row — giving up (see its checkpoint \
            for the completed prefix); remaining shards were terminated"
           shard (max_restarts + 1))
  | e ->
      kill_all ();
      raise e
