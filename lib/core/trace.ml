type kind =
  | Contract of { revise_calls : int; sweeps : int }
  | Solve of { fuel : int; prunes : int }
  | Verdict of string
  | Split of int
  | Retry of { attempt : int; reason : string; fuel : int }

type event = { path : int list; depth : int; step : int; box : Box.t; kind : kind }

type t = { lock : Mutex.t; mutable events : event list }

let create () = { lock = Mutex.create (); events = [] }

let record r ev =
  Mutex.lock r.lock;
  r.events <- ev :: r.events;
  Mutex.unlock r.lock

let rec compare_path a b =
  match a, b with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys -> (
      match Int.compare x y with 0 -> compare_path xs ys | c -> c)

let compare_event a b =
  match compare_path a.path b.path with
  | 0 -> Int.compare a.step b.step
  | c -> c

let events r =
  Mutex.lock r.lock;
  let evs = r.events in
  Mutex.unlock r.lock;
  List.sort compare_event evs

let total_fuel evs =
  List.fold_left
    (fun acc ev ->
      match ev.kind with
      | Solve { fuel; _ } | Retry { fuel; _ } -> acc + fuel
      | _ -> acc)
    0 evs

let kind_name = function
  | Contract _ -> "contract"
  | Solve _ -> "solve"
  | Verdict _ -> "verdict"
  | Split _ -> "split"
  | Retry _ -> "retry"
