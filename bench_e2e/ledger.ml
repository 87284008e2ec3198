(* Metric definitions, the per-run result record, the result line the
   benchmark ends with, the results files behind [--json], and [compare]. *)

module J = Serialize.Json

(* End-to-end metrics, reported on every workload by an untraced run. What
   each means on each workload is defined in README.md. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("cpu_s", "s");
    ("expansions_per_cpu_s", "1/s");
    ("peak_rss_mb", "MB");
    ("goodput_qps", "1/s");
  ]

(* Per-layer metrics, reported by a traced run. A layer a workload does not
   exercise reads 0 there. *)
let per_layer =
  [
    ("latency.p50_ms", "ms");
    ("latency.p90_ms", "ms");
    ("encoder.encode_ms", "ms");
    ("encoder.ops", "count");
    ("jit.compile_ms.p50", "ms");
    ("jit.compile_ms.max", "ms");
    ("jit.load_ms.p50", "ms");
    ("jit.compiles", "count");
    ("jit.cache_hits", "count");
    ("jit.batch_ns_per_box", "ns");
    ("jit.boxes_per_batch", "count");
    ("jit.batches", "count");
    ("itape.eval_ns", "ns");
    ("itape.revise_ns", "ns");
    ("itape.gradient_ns", "ns");
    ("itape.revise_calls", "count");
    ("itape.sweeps", "count");
    ("hc4.contract_tape_ns", "ns");
    ("hc4.mean_value_tape_ns", "ns");
    ("hc4.statuses_ns", "ns");
    ("hc4.contract_calls", "count");
    ("hc4.contract_s", "s");
    ("transcend.exp_ns", "ns");
    ("transcend.log_ns", "ns");
    ("transcend.pow_rat_ns", "ns");
    ("transcend.calls", "count");
    ("transcend.kernel_share", "ratio");
    ("interval.mul_ns", "ns");
    ("interval.div_rel_ns", "ns");
    ("icp.solve_ms.p50", "ms");
    ("icp.expansion_ns", "ns");
    ("icp.solves", "count");
    ("icp.expansions", "count");
    ("icp.prunes_per_expansion", "ratio");
    ("icp.unsat_share", "ratio");
    ("icp.timeout_share", "ratio");
    ("icp.solve_s", "s");
    ("worklist.tasks", "count");
    ("worklist.depth_max", "count");
    ("worklist.busy_share", "ratio");
    ("verify.dfa_s.pbe", "s");
    ("verify.dfa_s.scan", "s");
    ("verify.dfa_s.lyp", "s");
    ("verify.dfa_s.am05", "s");
    ("verify.dfa_s.vwn_rpa", "s");
    ("verify.pair_s.max", "s");
    ("verify.compile_s", "s");
    ("verify.split_s", "s");
    ("verify.paint_s", "s");
    ("verify.boxes", "count");
    ("verify.subthreshold", "count");
    ("verify.timeout_share", "ratio");
    ("service.hit_rate", "ratio");
    ("service.hit_ms.p50", "ms");
    ("service.miss_ms.p50", "ms");
    ("service.miss_ms.max", "ms");
    ("service.wait_ms.p50", "ms");
    ("service.wait_ms.p90", "ms");
    ("service.busy_share", "ratio");
    ("service.backlog_max", "count");
    ("service.cache_hits", "count");
    ("service.cache_misses", "count");
    ("cache.find_us", "us");
    ("cache.put_ms", "ms");
    ("protocol.ping_us", "us");
    ("serve.gen_lag_ms.p90", "ms");
    ("serve.gen_lag_ms.max", "ms");
    ("machine.speed", "ratio");
    ("trace.overhead_share", "ratio");
    ("trace.layer_share", "ratio");
    ("trace.spans", "count");
  ]

(* Every per-layer metric; a layer the workload does not exercise reads 0. *)
let layer_values own =
  List.map
    (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name own)))
    per_layer

(* The measured values; a refused percentile ([None]) is left out. *)
let defined values =
  List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) values

type run = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  skipped : string option;
  digest : string;  (** verdict digest the run checked *)
  values : (string * float) list;  (** measured; an absent name was refused *)
  samples : (string * float list) list;  (** latency samples (ms), printed with their count *)
}

let selected run = if run.traced then per_layer else end_to_end

let value_json = function
  | Some v when Float.is_finite v -> J.Num v
  | _ -> J.Null

let metrics_json run =
  J.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           J.Obj
             [
               ("value", value_json (List.assoc_opt name run.values));
               ("unit", J.Str unit);
             ] ))
       (if run.skipped <> None then [] else selected run))

(* The last line of standard output: exactly these four keys. *)
let result_line run =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool run.correct);
         ("attempted", J.Num (float_of_int run.attempted));
         ("failed", J.Num (float_of_int run.failed));
         ("metrics", metrics_json run);
       ])

let print run =
  Printf.printf "== %s  seed %d  %s\n" run.workload run.seed
    (if run.traced then "per-layer (traced run)" else "end-to-end");
  (match run.skipped with
  | Some reason -> Printf.printf "  skipped: %s\n" reason
  | None ->
      List.iter
        (fun (name, unit) ->
          match List.assoc_opt name run.values with
          | Some v -> Printf.printf "  %-26s %14.6g %s\n" name v unit
          | None -> Printf.printf "  %-26s %14s %s\n" name "refused" unit)
        (selected run);
      List.iter
        (fun (name, xs) -> Printf.printf "  %s\n" (Stats.summary_line ~unit:"ms" name xs))
        run.samples);
  Printf.printf "  digest %s  attempted %d  failed %d  %s\n%!" run.digest
    run.attempted run.failed
    (if run.correct then "correct" else "INCORRECT")

let run_json run =
  J.Obj
    ([
       ("workload", J.Str run.workload);
       ("seed", J.Num (float_of_int run.seed));
       ("trace", J.Bool run.traced);
       ("correct", J.Bool run.correct);
       ("attempted", J.Num (float_of_int run.attempted));
       ("failed", J.Num (float_of_int run.failed));
       ("digest", J.Str run.digest);
       ("metrics", metrics_json run);
     ]
    @ match run.skipped with Some r -> [ ("skipped", J.Str r) ] | None -> [])

(* ---- results files: {"runs": [...]} ------------------------------- *)

let member k = function J.Obj fs -> List.assoc_opt k fs | _ -> None

let num = function Some (J.Num f) -> Some f | _ -> None
let str = function Some (J.Str s) -> Some s | _ -> None

let load_runs path =
  match member "runs" (J.of_string (Proc.read_file path)) with
  | Some (J.Arr runs) -> runs
  | _ -> failwith (path ^ ": not a results file (no \"runs\" array)")

let append path run =
  let runs = if Sys.file_exists path then load_runs path else [] in
  Proc.write_file path
    (J.to_string (J.Obj [ ("runs", J.Arr (runs @ [ run_json run ])) ]) ^ "\n")

(* ---- compare ------------------------------------------------------- *)

type bound = { better_lower : bool; bound : float }

let load_bounds path =
  match member "end_to_end" (J.of_string (Proc.read_file path)) with
  | Some (J.Arr ms) ->
      List.filter_map
        (fun m ->
          match (str (member "name" m), str (member "better" m), num (member "bound" m)) with
          | Some name, Some better, Some bound ->
              Some (name, { better_lower = better = "lower"; bound })
          | _ -> None)
        ms
  | _ -> failwith (path ^ ": no end_to_end list")

let metric_values runs workload name =
  List.filter_map
    (fun r ->
      if str (member "workload" r) = Some workload
         && member "trace" r <> Some (J.Bool true)
      then num (member "value" (Option.value ~default:J.Null (member name (Option.value ~default:J.Null (member "metrics" r)))))
      else None)
    runs

let workloads_of runs =
  List.sort_uniq compare (List.filter_map (fun r -> str (member "workload" r)) runs)

let fail_frac runs workload =
  let att, fl =
    List.fold_left
      (fun (a, f) r ->
        if str (member "workload" r) = Some workload then
          ( a +. Option.value ~default:0. (num (member "attempted" r)),
            f +. Option.value ~default:0. (num (member "failed" r)) )
        else (a, f))
      (0., 0.) runs
  in
  if att = 0. then 0. else fl /. att

let digests runs workload =
  List.sort_uniq compare
    (List.filter_map
       (fun r ->
         if str (member "workload" r) = Some workload then str (member "digest" r)
         else None)
       runs)

(* One row per workload x end-to-end metric: each side's median and
   quartiles, the change, and a verdict. "unresolved" when either side's
   quartile spread exceeds the bound (unless every run of B beats every
   run of A). Returns the exit code: 1 on a digest change or a higher
   failure fraction. *)
let compare ~bounds_path a_path b_path =
  let bounds = load_bounds bounds_path in
  let a = load_runs a_path and b = load_runs b_path in
  let status = ref 0 in
  let fmt_side xs =
    match (Stats.quartiles xs, Stats.median xs) with
    | Some (q1, m, q3), _ -> Printf.sprintf "%11.5g [%9.4g %9.4g]" m q1 q3
    | None, Some m -> Printf.sprintf "%11.5g [%9s %9s]" m "-" "-"
    | None, None -> Printf.sprintf "%11s [%9s %9s]" "-" "-" "-"
  in
  Printf.printf "%-12s %-18s %-34s %-34s %8s  %s\n" "workload" "metric"
    "A median [q1 q3]" "B median [q1 q3]" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, _) ->
          let xa = metric_values a w name and xb = metric_values b w name in
          let verdict, change =
            match (Stats.median xa, Stats.median xb, List.assoc_opt name bounds) with
            | Some ma, Some mb, Some { better_lower; bound } when ma <> 0. ->
                let worse = (if better_lower then mb -. ma else ma -. mb) /. Float.abs ma in
                let spread xs m =
                  match Stats.quartiles xs with
                  | Some (q1, _, q3) when m <> 0. -> (q3 -. q1) /. Float.abs m
                  | _ -> 0.
                in
                let beats x y = if better_lower then x < y else x > y in
                let all_better =
                  xa <> [] && xb <> []
                  && List.for_all (fun y -> List.for_all (fun x -> beats y x) xa) xb
                in
                let v =
                  if all_better && worse < 0. then "better"
                  else if Float.max (spread xa ma) (spread xb mb) > bound then "unresolved"
                  else if worse > bound then "REGRESSION"
                  else if worse < -.bound then "better"
                  else "unchanged"
                in
                (v, Printf.sprintf "%+7.1f%%" (100. *. (mb -. ma) /. Float.abs ma))
            | _ -> ("n/a", "")
          in
          Printf.printf "%-12s %-18s %-34s %-34s %8s  %s\n" w name (fmt_side xa)
            (fmt_side xb) change verdict)
        end_to_end;
      let da = digests a w and db = digests b w in
      if da <> db then begin
        Printf.printf "%-12s DIGEST CHANGED: %s -> %s\n" w (String.concat "," da)
          (String.concat "," db);
        status := 1
      end;
      let fa = fail_frac a w and fb = fail_frac b w in
      if fb > fa then begin
        Printf.printf "%-12s fail fraction rose: %.4f -> %.4f\n" w fa fb;
        status := 1
      end)
    (List.filter (fun w -> List.mem w (workloads_of b)) (workloads_of a));
  !status
