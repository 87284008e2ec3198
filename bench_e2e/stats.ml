(* Timing and sample summaries for the benchmark.

   Every duration is read from the library's monotonic clock
   ([Obs.Clock.now_ns], CLOCK_MONOTONIC), never from the wall-clock
   [Unix.gettimeofday], which steps under NTP adjustment.

   Percentiles follow the rule the metrics are defined under: a tail
   percentile is reported only when at least [min_beyond] samples lie beyond
   it, otherwise it is refused ([None]) rather than read off one or two
   samples. The median is always defined for a non-empty sample. *)

let now_ns = Obs.Clock.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* CPU seconds (user + system) this process has used, all threads, from
   getrusage. The kernel leaves out the time a virtual CPU was held by the
   host (steal), so on a shared machine this is far steadier than elapsed
   time for single-threaded work. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The same, plus the CPU seconds of every child process waited for. *)
let cpu_with_children_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* [time_cpu f] runs [f] and returns its result with the elapsed and the
   CPU seconds it took. *)
let time_cpu f =
  let t0 = now_ns () and c0 = cpu_s () in
  let r = f () in
  let c = cpu_s () -. c0 in
  (r, secs_since t0, c)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> None
  | a ->
      let n = Array.length a in
      Some
        (if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

(* Nearest-rank percentile [p] in (0, 1): the value at rank ceil(p n);
   refused when fewer than [min_beyond] samples rank above it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  let k = max 1 (min n k) in
  if n = 0 || n - k < min_beyond then None else Some a.(k - 1)

let max_of xs = List.fold_left Float.max Float.neg_infinity xs

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [a / b], 0 when nothing was attempted *)
let ratio a b = if b = 0. then 0. else a /. b

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so the spreads printed here match
   the ones an outside script computes from the same values. Needs at
   least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then None
  else begin
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    Some (q 1, q 2, q 3)
  end

(* One line per sample set: n, then the median and the tail percentiles
   the sample supports. *)
let summary_line ~unit name xs =
  let n = List.length xs in
  let show p label =
    match percentile xs p with
    | Some v -> Printf.sprintf " %s %.3f" label v
    | None -> Printf.sprintf " %s refused" label
  in
  match median xs with
  | None -> Printf.sprintf "%-28s n=0" name
  | Some m ->
      Printf.sprintf "%-28s n=%d p50 %.3f%s%s (%s)" name n m (show 0.9 "p90")
        (show 0.99 "p99") unit
