(* Socket front-end: the main thread owns every descriptor (select loop,
   all frame writes) and sends the replies [Engine.submit] answers at
   admission (cache hits among them); the runner thread only executes
   queued queries and drops their replies into the outbox, waking the
   select via a self-pipe. *)

let m_boxes = Obs.Metrics.counter "verify.boxes"
let m_solver_calls = Obs.Metrics.counter "verify.solver_calls"

type config = {
  engine : Engine.config;
  socket_path : string;
  progress_interval_ms : int;
}

type conn = { fd : Unix.file_descr; client : Engine.client }

type state = {
  engine : Engine.t;
  conns : (int, conn) Hashtbl.t;  (* keyed by Engine.client_id *)
  outbox_mutex : Mutex.t;
  mutable outbox : (Engine.client * Protocol.reply) list;  (* reversed *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let wake st =
  try ignore (Unix.write_substring st.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let runner st =
  let on_response client resp =
    Mutex.lock st.outbox_mutex;
    st.outbox <- (client, resp) :: st.outbox;
    Mutex.unlock st.outbox_mutex;
    wake st
  in
  while Engine.step ~block:true st.engine ~on_response () do
    ()
  done

let drop_conn st conn =
  Hashtbl.remove st.conns (Engine.client_id conn.client);
  (* queries of a vanished client drain cooperatively instead of burning
     their full budget into a result nobody will read *)
  Engine.cancel_client st.engine conn.client;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send st conn (reply : Protocol.reply) =
  try Protocol.write_frame conn.fd reply.Protocol.payload
  with Unix.Unix_error _ | Fault.Io_injected _ -> drop_conn st conn

let flush_outbox st =
  (* drain the wake pipe, then the queued responses, in arrival order *)
  let buf = Bytes.create 64 in
  (try
     while Unix.read st.wake_r buf 0 64 = 64 do
       ()
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
     ());
  Mutex.lock st.outbox_mutex;
  let pending = List.rev st.outbox in
  st.outbox <- [];
  Mutex.unlock st.outbox_mutex;
  List.iter
    (fun (client, resp) ->
      match Hashtbl.find_opt st.conns (Engine.client_id client) with
      | Some conn -> send st conn resp
      | None -> () (* client disconnected while its query ran *))
    pending

let handle_frame st conn payload =
  match Protocol.request_of_string payload with
  | exception Parser.Parse_error msg ->
      send st conn (Protocol.reply (Protocol.Failed { id = 0; message = msg }))
  | req -> (
      match Engine.submit st.engine conn.client req with
      | Some resp -> send st conn resp
      | None -> ())

let read_client st conn =
  match Protocol.read_frame conn.fd with
  | None -> drop_conn st conn
  | Some payload -> handle_frame st conn payload
  | exception (Failure _ | Unix.Unix_error _ | End_of_file) -> drop_conn st conn

let emit_progress st =
  match Engine.running st.engine with
  | None -> ()
  | Some (id, client) -> (
      match Hashtbl.find_opt st.conns (Engine.client_id client) with
      | None -> ()
      | Some conn ->
          send st conn
            (Protocol.reply
               (Protocol.Progress
                  {
                    id;
                    label = Printf.sprintf "query %d" id;
                    boxes = Obs.Metrics.read m_boxes;
                    solver_calls = Obs.Metrics.read m_solver_calls;
                  })))

let terminating = Atomic.make false

let install_signals () =
  let previous = ref [] in
  let install s =
    let old =
      Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set terminating true))
    in
    previous := (s, old) :: !previous
  in
  (try install Sys.sigterm with Invalid_argument _ | Sys_error _ -> ());
  (try install Sys.sigint with Invalid_argument _ | Sys_error _ -> ());
  (try
     previous := (Sys.sigpipe, Sys.signal Sys.sigpipe Sys.Signal_ignore)
                 :: !previous
   with Invalid_argument _ | Sys_error _ -> ());
  fun () ->
    List.iter
      (fun (s, old) -> try Sys.set_signal s old with _ -> ())
      !previous

let run ?(stop = fun () -> false) (config : config) =
  Atomic.set terminating false;
  let engine = Engine.create config.engine in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
     Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     failwith
       (Printf.sprintf "serve: cannot bind %s: %s" config.socket_path
          (Printexc.to_string e)));
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  let st =
    {
      engine;
      conns = Hashtbl.create 16;
      outbox_mutex = Mutex.create ();
      outbox = [];
      wake_r;
      wake_w;
    }
  in
  let restore_signals = install_signals () in
  let runner_thread = Thread.create runner st in
  let last_progress = ref (Unix.gettimeofday ()) in
  let tick =
    if config.progress_interval_ms <= 0 then 0.1
    else min 0.1 (float_of_int config.progress_interval_ms /. 1000.)
  in
  (try
     while not (Atomic.get terminating || stop ()) do
       let client_fds =
         Hashtbl.fold (fun _ c acc -> c.fd :: acc) st.conns []
       in
       let readable =
         match
           Unix.select (listen_fd :: st.wake_r :: client_fds) [] [] tick
         with
         | r, _, _ -> r
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
       in
       if List.mem listen_fd readable then begin
         match Unix.accept listen_fd with
         | fd, _ ->
             let client = Engine.new_client st.engine in
             Hashtbl.replace st.conns (Engine.client_id client) { fd; client }
         | exception Unix.Unix_error _ -> ()
       end;
       if List.mem st.wake_r readable then flush_outbox st;
       List.iter
         (fun fd ->
           if fd <> listen_fd && fd <> st.wake_r then
             let conn =
               Hashtbl.fold
                 (fun _ c acc -> if c.fd = fd then Some c else acc)
                 st.conns None
             in
             match conn with Some c -> read_client st c | None -> ())
         readable;
       (* results can land while we were reading requests *)
       flush_outbox st;
       if config.progress_interval_ms > 0 then begin
         let now = Unix.gettimeofday () in
         if now -. !last_progress
            >= float_of_int config.progress_interval_ms /. 1000.
         then begin
           last_progress := now;
           emit_progress st
         end
       end
     done
   with e ->
     Engine.shutdown engine;
     raise e);
  Engine.shutdown engine;
  Thread.join runner_thread;
  flush_outbox st;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    st.conns;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ listen_fd; st.wake_r; st.wake_w ];
  (try Sys.remove config.socket_path with Sys_error _ -> ());
  restore_signals ()
