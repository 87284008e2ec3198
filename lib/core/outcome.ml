type status =
  | Verified
  | Counterexample of (string * float) list
  | Inconclusive of (string * float) list
  | Timeout
  | Error of string

type region = { box : Box.t; status : status; depth : int }

type stats = {
  solver_calls : int;
  total_expansions : int;
  total_prunes : int;
  total_revise_calls : int;
  retries : int;
  elapsed : float;
}

let zero_stats =
  {
    solver_calls = 0;
    total_expansions = 0;
    total_prunes = 0;
    total_revise_calls = 0;
    retries = 0;
    elapsed = 0.0;
  }

type t = {
  dfa : string;
  condition : string;
  domain : Box.t;
  regions : region list;
  stats : stats;
}

type classification = Full_verified | Partial_verified | Unknown | Refuted

let rasterize t ~xdim ~ydim ~nx ~ny =
  let dx = Box.get t.domain xdim and dy = Box.get t.domain ydim in
  let x0 = Interval.inf dx and x1 = Interval.sup dx in
  let y0 = Interval.inf dy and y1 = Interval.sup dy in
  let grid = Array.make_matrix ny nx Timeout in
  let cell_x j = x0 +. ((x1 -. x0) *. (float_of_int j +. 0.5) /. float_of_int nx) in
  let cell_y i = y0 +. ((y1 -. y0) *. (float_of_int i +. 0.5) /. float_of_int ny) in
  (* For 1-D outcomes the caller passes xdim = ydim; the row dimension is
     then a dummy and must not be containment-checked a second time. *)
  let one_dim = String.equal xdim ydim in
  List.iter
    (fun r ->
      let bx = Box.get r.box xdim and by = Box.get r.box ydim in
      for i = 0 to ny - 1 do
        if one_dim || Interval.mem (cell_y i) by then
          for j = 0 to nx - 1 do
            if Interval.mem (cell_x j) bx then grid.(i).(j) <- r.status
          done
      done)
    t.regions;
  grid

type coverage = {
  verified : float;
  counterexample : float;
  inconclusive : float;
  timeout : float;
  error : float;
}

(* Pick the plotting plane: (rs, s) when 2D+, rs alone for LDAs. *)
let plane t =
  match Box.vars t.domain with
  | [ only ] -> (only, only)
  | x :: y :: _ -> (x, y)
  | [] -> assert false

let coverage ?(resolution = 64) t =
  let xdim, ydim = plane t in
  let grid =
    if String.equal xdim ydim then
      rasterize t ~xdim ~ydim ~nx:resolution ~ny:1
    else rasterize t ~xdim ~ydim ~nx:resolution ~ny:resolution
  in
  let counts = [| 0; 0; 0; 0; 0 |] in
  Array.iter
    (Array.iter (fun s ->
         let k =
           match s with
           | Verified -> 0
           | Counterexample _ -> 1
           | Inconclusive _ -> 2
           | Timeout -> 3
           | Error _ -> 4
         in
         counts.(k) <- counts.(k) + 1))
    grid;
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  {
    verified = float_of_int counts.(0) /. total;
    counterexample = float_of_int counts.(1) /. total;
    inconclusive = float_of_int counts.(2) /. total;
    timeout = float_of_int counts.(3) /. total;
    error = float_of_int counts.(4) /. total;
  }

let has_counterexample t =
  List.exists
    (fun r -> match r.status with Counterexample _ -> true | _ -> false)
    t.regions

let classify ?(resolution = 64) t =
  if has_counterexample t then Refuted
  else begin
    let c = coverage ~resolution t in
    if c.verified >= 1.0 then Full_verified
    else if c.verified > 0.0 then Partial_verified
    else Unknown
  end

let first_counterexample t =
  List.find_map
    (fun r -> match r.status with Counterexample m -> Some m | _ -> None)
    t.regions

let classification_symbol = function
  | Full_verified -> "OK"
  | Partial_verified -> "OK*"
  | Unknown -> "?"
  | Refuted -> "X"

let status_name = function
  | Verified -> "verified"
  | Counterexample _ -> "counterexample"
  | Inconclusive _ -> "inconclusive"
  | Timeout -> "timeout"
  | Error _ -> "error"

let has_error t =
  List.exists
    (fun r -> match r.status with Error _ -> true | _ -> false)
    t.regions

let pp_summary ppf t =
  let c = coverage t in
  Format.fprintf ppf
    "%s / %s: %s  (verified %.1f%%, cex %.1f%%, inconclusive %.1f%%, timeout \
     %.1f%%; %d solver calls, %d expansions, %.2fs)"
    t.dfa t.condition
    (classification_symbol (classify t))
    (100. *. c.verified) (100. *. c.counterexample)
    (100. *. c.inconclusive) (100. *. c.timeout) t.stats.solver_calls
    t.stats.total_expansions t.stats.elapsed;
  if c.error > 0.0 || t.stats.retries > 0 then
    Format.fprintf ppf " [errors %.1f%%, %d retries]" (100. *. c.error)
      t.stats.retries
