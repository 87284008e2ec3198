(* Priority worklist over OCaml 5 domains; see the interface for the
   scheduling contract. *)

module Heap = struct
  (* Array-backed binary min-heap with a hard capacity bound. *)
  type 'a t = {
    compare : 'a -> 'a -> int;
    capacity : int;
    mutable arr : 'a array;  (* physical storage; slots >= size are junk *)
    mutable size : int;
  }

  let create ~capacity compare = { compare; capacity; arr = [||]; size = 0 }

  let swap h i j =
    let t = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- t

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if h.compare h.arr.(i) h.arr.(p) < 0 then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < h.size && h.compare h.arr.(l) h.arr.(!best) < 0 then best := l;
    if r < h.size && h.compare h.arr.(r) h.arr.(!best) < 0 then best := r;
    if !best <> i then begin
      swap h i !best;
      sift_down h !best
    end

  (* Returns false (and drops nothing — the caller keeps the element) when
     the heap is at capacity. *)
  let push h x =
    if h.size >= h.capacity then false
    else begin
      if h.size >= Array.length h.arr then begin
        let cap = Stdlib.min h.capacity (Stdlib.max 64 (2 * h.size)) in
        let arr = Array.make cap x in
        Array.blit h.arr 0 arr 0 h.size;
        h.arr <- arr
      end;
      h.arr.(h.size) <- x;
      h.size <- h.size + 1;
      sift_up h (h.size - 1);
      true
    end

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.arr.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.arr.(0) <- h.arr.(h.size);
        sift_down h 0
      end;
      Some top
    end

  let drain h =
    let rec go acc = match pop h with None -> acc | Some x -> go (x :: acc) in
    List.rev (go [])
end

let default_workers () = Stdlib.max 1 (Domain.recommended_domain_count ())

type ('task, 'result) outcome = {
  results : 'result list;
  dropped : 'task list;
}

(* Heap slots carry the pushing domain's id so a pop by a different domain
   can be counted as a steal (wall-class telemetry only — scheduling order
   itself is unaffected). *)
type 'task slot = { producer : int; task : 'task }

(* Telemetry. [worklist.tasks] counts every handled task (shared-heap and
   local-overflow paths alike) and is deterministic for deadline-free runs;
   the rest depends on scheduling or heap fullness and is wall-class. *)
let m_tasks = Obs.Metrics.counter "worklist.tasks"
let m_pushed = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "worklist.pushed"
let m_steals = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "worklist.steals"
let m_drained = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "worklist.drained"
let m_overflow = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "worklist.overflow"

let g_depth = Obs.Metrics.gauge "worklist.depth"

type ('task, 'result) state = {
  heap : 'task slot Heap.t;
  lock : Mutex.t;
  wake : Condition.t;
  mutable in_flight : int;
  mutable results : 'result list;
  mutable dropped : 'task list;
  mutable stopped : bool;
  mutable failed : exn option;
}

let default_capacity = 1 lsl 16

let process ~workers ~compare ?(stop = fun () -> false)
    ?(capacity = default_capacity) ?recover ~handle init =
  (* Supervision: a raising handler is routed through [recover] when given;
     only when [recover] is absent (or itself raises) does the failure
     abort the whole run. *)
  let protected t =
    match handle t with
    | r -> Ok r
    | exception e -> (
        match recover with
        | None -> Error e
        | Some f -> ( match f t e with r -> Ok r | exception e2 -> Error e2))
  in
  let st =
    {
      heap = Heap.create ~capacity (fun a b -> compare a.task b.task);
      lock = Mutex.create ();
      wake = Condition.create ();
      in_flight = 0;
      results = [];
      dropped = [];
      stopped = false;
      failed = None;
    }
  in
  let self_id () = (Domain.self () :> int) in
  let caller = self_id () in
  let leftover =
    List.filter
      (fun t -> not (Heap.push st.heap { producer = caller; task = t }))
      init
  in
  Obs.Metrics.incr m_pushed (List.length init - List.length leftover);
  Obs.Metrics.gauge_set g_depth st.heap.Heap.size;
  (* Capacity-overflow fallback: process a task and its descendants locally,
     LIFO, without touching the shared heap. Priority order is lost for the
     overflow subtree but no work is; with the default capacity this path is
     never taken by realistic verification frontiers. *)
  let run_local t =
    let results = ref [] and dropped = ref [] in
    let rec go stack =
      match stack with
      | [] -> ()
      | t :: rest ->
          if stop () then begin
            Obs.Metrics.incr m_drained 1;
            dropped := t :: !dropped;
            go rest
          end
          else begin
            Obs.Metrics.incr m_tasks 1;
            Obs.Metrics.incr m_overflow 1;
            Obs.Progress.tick ();
            match protected t with
            | Error e -> raise e
            | Ok (r, children) ->
                results := r :: !results;
                go (List.rev_append children rest)
          end
    in
    go [ t ];
    (List.rev !results, List.rev !dropped)
  in
  let worker () =
    let me = self_id () in
    let running = ref true in
    while !running do
      Mutex.lock st.lock;
      let action =
        if st.failed <> None || st.stopped then `Quit
        else if stop () then begin
          st.stopped <- true;
          Condition.broadcast st.wake;
          `Quit
        end
        else
          match Heap.pop st.heap with
          | Some s ->
              st.in_flight <- st.in_flight + 1;
              Obs.Metrics.gauge_set g_depth st.heap.Heap.size;
              `Run s
          | None ->
              if st.in_flight = 0 then begin
                Condition.broadcast st.wake;
                `Quit
              end
              else `Wait
      in
      match action with
      | `Quit ->
          Mutex.unlock st.lock;
          running := false
      | `Wait ->
          Condition.wait st.wake st.lock;
          Mutex.unlock st.lock
      | `Run { producer; task = t } -> (
          Mutex.unlock st.lock;
          if producer <> me then Obs.Metrics.incr m_steals 1;
          Obs.Metrics.incr m_tasks 1;
          Obs.Progress.tick ();
          match protected t with
          | Error e ->
              Mutex.lock st.lock;
              if st.failed = None then st.failed <- Some e;
              st.in_flight <- st.in_flight - 1;
              Condition.broadcast st.wake;
              Mutex.unlock st.lock;
              running := false
          | Ok (r, children) -> (
              Mutex.lock st.lock;
              st.results <- r :: st.results;
              let overflow =
                List.filter
                  (fun c ->
                    not (Heap.push st.heap { producer = me; task = c }))
                  children
              in
              Obs.Metrics.incr m_pushed
                (List.length children - List.length overflow);
              Obs.Metrics.gauge_set g_depth st.heap.Heap.size;
              Mutex.unlock st.lock;
              (* handle overflow children outside the lock *)
              match
                match overflow with
                | [] -> ([], [])
                | _ ->
                    List.fold_left
                      (fun (rs, ds) c ->
                        let r, d = run_local c in
                        (List.rev_append r rs, List.rev_append d ds))
                      ([], []) overflow
              with
              | exception e ->
                  Mutex.lock st.lock;
                  if st.failed = None then st.failed <- Some e;
                  st.in_flight <- st.in_flight - 1;
                  Condition.broadcast st.wake;
                  Mutex.unlock st.lock;
                  running := false
              | extra_r, extra_d ->
                  Mutex.lock st.lock;
                  st.results <- List.rev_append extra_r st.results;
                  st.dropped <- List.rev_append extra_d st.dropped;
                  st.in_flight <- st.in_flight - 1;
                  Condition.broadcast st.wake;
                  Mutex.unlock st.lock))
    done
  in
  (* Initial tasks beyond capacity run locally on the caller. *)
  List.iter
    (fun t ->
      let r, d = run_local t in
      st.results <- List.rev_append r st.results;
      st.dropped <- List.rev_append d st.dropped)
    leftover;
  let domains =
    if workers <= 1 then []
    else List.init (workers - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains;
  (match st.failed with Some e -> raise e | None -> ());
  let leftover = List.map (fun s -> s.task) (Heap.drain st.heap) in
  Obs.Metrics.incr m_drained (List.length leftover);
  Obs.Metrics.gauge_set g_depth 0;
  { results = List.rev st.results; dropped = leftover @ st.dropped }
