(* The table1-* workloads: the paper's Table I campaign (29 DFA x condition
   pairs of Registry.paper_five), one pair at a time through Encoder.encode
   and Verify.run, at a fixed solver budget and no deadline, so every pass
   does exactly the same work and paints exactly the same regions.

   table1-tape  interpreted tape
   table1-jit   native kernels, compiled in set-up into a fresh directory;
                the timed passes must load all of them from that cache

   Both run one worker. Every time of the timed passes is process CPU time
   ([Stats.cpu_s], which leaves out time the host held the virtual CPU)
   read against the machine's speed (speed.ml), so it stays put while the
   shared machine speeds up and slows down. There is no parallel workload:
   two worker domains on the two cores of a shared machine measure the
   host's scheduler more than the worklist. *)

type workload = {
  name : string;
  jit : bool;
  pass_s : float;
      (** nominal seconds per pass on the reference machine: a run makes
          round(seconds / pass_s) passes, so the work per run is fixed *)
}

let tape = { name = "table1-tape"; jit = false; pass_s = 3.7 }
let jit = { name = "table1-jit"; jit = true; pass_s = 3.8 }
let all = [ tape; jit ]

let encode_pairs () =
  List.concat_map
    (fun dfa -> List.filter_map (Encoder.encode dfa) Conditions.all)
    Registry.paper_five

let pair_name (p : Encoder.problem) =
  p.Encoder.dfa.Registry.label ^ "/" ^ Conditions.name p.Encoder.condition

(* ---- Obs snapshot access ------------------------------------------- *)

let get l k = Option.value ~default:0 (List.assoc_opt k l)

let count (s : Obs.Metrics.snapshot) k =
  float_of_int (get s.Obs.Metrics.counters k + get s.Obs.Metrics.wall_counters k)

let timer_s (s : Obs.Metrics.snapshot) k =
  float_of_int (get s.Obs.Metrics.timers k) /. 1e9

let sum_counters (s : Obs.Metrics.snapshot) pred =
  List.fold_left
    (fun acc (k, v) -> if pred k then acc +. float_of_int v else acc)
    0. s.Obs.Metrics.counters

let transcend k = String.starts_with ~prefix:"transcend." k

(* certified dd-kernel calls over kernel + libm-fallback calls *)
let kernel_share s =
  let kernel = sum_counters s (fun k -> transcend k && String.ends_with ~suffix:".kernel" k)
  and fallback =
    sum_counters s (fun k -> transcend k && String.ends_with ~suffix:".fallback" k)
  in
  Stats.ratio kernel (kernel +. fallback)

(* ---- set-up ---------------------------------------------------------- *)

(* A cold start: a fresh process of this executable that encodes the 29
   pairs and exits — runtime and module initialisation plus encoding, what
   a campaign pays before its first solver call. A start takes about 12 ms,
   but the machine has spells of a few seconds in which it takes 15-20 ms
   (a fresh process faults in its heap, and page faults cost more then).
   The median of a run's starts lands in one spell or the other and jumps
   by half between runs; the mean of [cold_starts] starts spread over
   [cold_starts] x [cold_start_gap_s] seconds moves with the share of slow
   spells instead, and spread a third as much across runs. *)
let cold_starts = 21
let cold_start_gap_s = 0.15

let cold_start () =
  let t0 = Stats.now_ns () in
  let pid = Proc.spawn_self [ "cold-start" ] in
  match Proc.wait_exit pid with
  | Unix.WEXITED 0 -> Stats.secs_since t0
  | _ -> failwith "cold-start child failed"

type kernels = {
  plans : Jit.t array;
  compile_ms : float list;
  load_ms : float list;
  compile_cpu_s : float;  (** CPU seconds of the compile, compilers included *)
}

(* Compile every pair's kernel into [dir] (cold), split across up to two
   domains, then load each once more from the cache. The compile is
   measured in CPU time: the elapsed time of two compilers on a shared
   two-core machine spread 28% between runs, their CPU time 10-18%. It is
   not read against the machine's speed: read against probes taken before
   and after it, it spread 20-29%, and probes taken between the compiles,
   beside the other compiler, measure the compilers' contention with each
   other. Formulas are compiled to tapes on this domain first: expression
   construction is not thread-safe, kernel compilation only reads the
   tapes. *)
let compile_kernels ~(cfg : Verify.config) ~dir problems =
  let tapes =
    Array.map
      (fun (p : Encoder.problem) ->
        Hc4.compile ~vars:(Box.vars p.Encoder.domain) p.Encoder.negated)
      problems
  in
  let n = Array.length tapes in
  let plan i =
    Jit.plan ~cache_dir:dir ~mvf:cfg.Verify.use_taylor
      ~rounds:cfg.Verify.solver.Icp.contractor_rounds tapes.(i)
  in
  let compile_ms = Array.make n 0. and errors = Array.make n None in
  let lane k stride =
    let i = ref k in
    while !i < n do
      let r, s = Stats.time (fun () -> plan !i) in
      compile_ms.(!i) <- s *. 1000.;
      (match r with Error e -> errors.(!i) <- Some e | Ok _ -> ());
      i := !i + stride
    done
  in
  let lanes = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let c0 = Stats.cpu_with_children_s () in
  Spans.with_span "jit.compile" (fun () ->
      let others =
        List.init (lanes - 1) (fun k -> Domain.spawn (fun () -> lane (k + 1) lanes))
      in
      lane 0 lanes;
      List.iter Domain.join others);
  let compile_cpu_s = Stats.cpu_with_children_s () -. c0 in
  match Array.to_list errors |> List.find_map Fun.id with
  | Some e -> Error e
  | None ->
      let loads =
        Array.mapi
          (fun i p ->
            match
              Spans.with_span "jit.plan" ~args:[ ("pair", pair_name p) ] (fun () ->
                  Stats.time (fun () -> plan i))
            with
            | Ok plan, s -> (plan, s *. 1000.)
            | Error e, _ -> failwith e)
          problems
      in
      Ok
        {
          plans = Array.map fst loads;
          compile_ms = Array.to_list compile_ms;
          load_ms = Array.to_list (Array.map snd loads);
          compile_cpu_s;
        }

(* ---- measurement ----------------------------------------------------- *)

(* What the timed passes left behind. *)
type measured = {
  problems : Encoder.problem array;
  passes : int;
  wall : float array array;  (** pass x pair, elapsed seconds *)
  cpu : float array array;  (** pass x pair, CPU seconds *)
  probes : float array array;
      (** pass x pair, mean CPU seconds of the speed probes either side *)
  first : Outcome.t option array;  (** pass 1 outcomes, canonical order *)
  deltas : (Obs.Metrics.snapshot * Obs.Metrics.snapshot) option array;
      (** traced run: counters around each pair of pass 1 *)
  replays : Layers.t option array;  (** traced run: pass 1 layer replays *)
  snap : Obs.Metrics.snapshot;  (** counters of all passes *)
}

let sum = Array.fold_left ( +. ) 0.
let pass_seconds times = Array.to_list (Array.map sum times)

let first_stat m f =
  Array.map (Option.fold ~none:0. ~some:(fun (o : Outcome.t) -> float_of_int (f o.Outcome.stats))) m.first

let samples_ms times =
  Array.to_list times |> List.concat_map Array.to_list |> List.map (fun s -> s *. 1000.)

(* Each pair's median over the passes: a pair is timed once per pass at a
   different point of the run, so a short slow spell of the machine moves
   one of its samples, not its median. *)
let pair_medians m times =
  Array.init (Array.length m.problems) (fun i ->
      Option.get (Stats.median (List.init m.passes (fun k -> times.(k).(i)))))

(* pass x pair, reference CPU seconds: each pair's CPU time read against
   the speed probes either side of it (see speed.ml) *)
let ref_cpu m = Array.map2 (Array.map2 (fun c p -> c *. Speed.ref_s /. p)) m.cpu m.probes

(* reference CPU seconds of one pass: the sum of the pairs' medians *)
let cpu_s m = sum (pair_medians m (ref_cpu m))

let speed m = Speed.of_probes (List.concat_map Array.to_list (Array.to_list m.probes))

let end_to_end ~setup_s ~failed m =
  let expansions = sum (first_stat m (fun s -> s.Outcome.total_expansions)) in
  let attempted = m.passes * Array.length m.problems in
  [
    ("setup_s", Some setup_s);
    ("cpu_s", Some (cpu_s m));
    ("expansions_per_cpu_s", Some (expansions /. cpu_s m));
    ("peak_rss_mb", Proc.self_peak_rss_mb ());
    ( "goodput_qps",
      Some (float_of_int (attempted - failed) /. (float_of_int m.passes *. cpu_s m)) );
  ]

let per_layer ~encode_s ~kernels m =
  let s = m.snap in
  let pf = float_of_int m.passes in
  let per_pass k = count s k /. pf and phase k = timer_s s ("phase." ^ k) /. pf in
  let npairs = Array.length m.problems in
  let expansions = first_stat m (fun st -> st.Outcome.total_expansions) in
  let revises = first_stat m (fun st -> st.Outcome.total_revise_calls) in
  let delta name =
    Array.map (function Some (b, a) -> count a name -. count b name | None -> 0.) m.deltas
  in
  let calls names = List.fold_left (Array.map2 ( +. )) (Array.make npairs 0.) (List.map delta names) in
  (* replayed per-call cost, weighted over the pairs by their call counts *)
  let weighted weights get =
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun i r ->
        match Option.bind r get with
        | Some x ->
            num := !num +. (weights.(i) *. x);
            den := !den +. weights.(i)
        | None -> ())
      m.replays;
    Stats.ratio !num !den
  in
  let cost f = fun (r : Layers.t) -> Some (f r) in
  let pair_cpu = pair_medians m (ref_cpu m) in
  let dfa_s name =
    let t = ref 0. in
    Array.iteri
      (fun i p -> if p.Encoder.dfa.Registry.name = name then t := !t +. pair_cpu.(i))
      m.problems;
    !t
  in
  let kernel f = match kernels with Some k -> f k | None -> 0. in
  (* layer time of one pass: replayed Icp.solve cost per expansion times
     the pair's expansions, plus the verifier's own phases and, with the
     JIT, the per-pair kernel load *)
  let model_s =
    (Array.fold_left ( +. ) 0.
       (Array.mapi
          (fun i e ->
            e *. Option.fold ~none:0. ~some:(fun r -> r.Layers.expansion_ns) m.replays.(i))
          expansions)
    /. 1e9)
    +. phase "split" +. phase "paint" +. phase "encode"
    +. kernel (fun k -> List.fold_left ( +. ) 0. k.load_ms /. 1000.)
  in
  let timed_s = List.fold_left ( +. ) 0. (pass_seconds m.wall) in
  let wall_s = Option.get (Stats.median (pass_seconds m.wall)) in
  let busy_s =
    List.fold_left (fun a k -> a +. timer_s s ("phase." ^ k)) 0.
      [ "contract"; "solve"; "split"; "paint"; "encode" ]
  in
  let spans = float_of_int (Spans.count ()) in
  let solve_ms =
    Array.to_list m.replays
    |> List.concat_map (function Some r -> r.Layers.solve_ms | None -> [])
  in
  [
    ("latency.p50_ms", Option.get (Stats.median (Array.to_list pair_cpu)) *. 1000.);
    ("latency.p90_ms", Option.value ~default:0. (Stats.percentile (samples_ms (ref_cpu m)) 0.9));
    ("encoder.encode_ms", encode_s *. 1000.);
    ( "encoder.ops",
      Array.fold_left (fun a p -> a +. float_of_int (Encoder.operation_count p)) 0. m.problems );
    ("jit.compile_ms.p50", kernel (fun k -> Option.get (Stats.median k.compile_ms)));
    ("jit.compile_ms.max", kernel (fun k -> Stats.max_of k.compile_ms));
    ("jit.load_ms.p50", kernel (fun k -> Option.get (Stats.median k.load_ms)));
    ("jit.compiles", per_pass "jit.compiles");
    ("jit.cache_hits", per_pass "jit.cache_hits");
    ("jit.batch_ns_per_box", weighted expansions (fun r -> r.Layers.jit_ns_per_box));
    ("jit.boxes_per_batch", Stats.ratio (count s "icp.expansions") (count s "jit.batches"));
    ("jit.batches", per_pass "jit.batches");
    ("itape.eval_ns", weighted expansions (cost (fun r -> r.Layers.eval_ns)));
    ("itape.revise_ns", weighted revises (cost (fun r -> r.Layers.revise_ns)));
    ("itape.gradient_ns", weighted expansions (cost (fun r -> r.Layers.gradient_ns)));
    ("itape.revise_calls", per_pass "icp.revise_calls");
    ("itape.sweeps", per_pass "icp.sweeps");
    ("hc4.contract_tape_ns", weighted expansions (cost (fun r -> r.Layers.contract_tape_ns)));
    ("hc4.mean_value_tape_ns", weighted expansions (cost (fun r -> r.Layers.mean_value_tape_ns)));
    ("hc4.statuses_ns", weighted expansions (cost (fun r -> r.Layers.statuses_ns)));
    ("hc4.contract_calls", per_pass "hc4.contract_tape");
    ("hc4.contract_s", phase "contract");
    ( "transcend.exp_ns",
      weighted
        (calls [ "transcend.exp.kernel"; "transcend.exp.fallback" ])
        (cost (fun r -> r.Layers.exp_ns)) );
    ( "transcend.log_ns",
      weighted
        (calls [ "transcend.log.kernel"; "transcend.log.fallback" ])
        (cost (fun r -> r.Layers.log_ns)) );
    ( "transcend.pow_rat_ns",
      weighted
        (calls [ "transcend.pow_rat.kernel"; "transcend.pow_rat.int" ])
        (cost (fun r -> r.Layers.pow_rat_ns)) );
    ("transcend.calls", sum_counters s transcend /. pf);
    ("transcend.kernel_share", kernel_share s);
    ("interval.mul_ns", weighted expansions (cost (fun r -> r.Layers.mul_ns)));
    ("interval.div_rel_ns", weighted expansions (cost (fun r -> r.Layers.div_rel_ns)));
    ("icp.solve_ms.p50", Option.value ~default:0. (Stats.median solve_ms));
    ("icp.expansion_ns", weighted expansions (cost (fun r -> r.Layers.expansion_ns)));
    ("icp.solves", per_pass "icp.solves");
    ("icp.expansions", per_pass "icp.expansions");
    ("icp.prunes_per_expansion", Stats.ratio (count s "icp.prunes") (count s "icp.expansions"));
    ("icp.unsat_share", Stats.ratio (count s "icp.unsat") (count s "icp.solves"));
    ("icp.timeout_share", Stats.ratio (count s "icp.timeout") (count s "icp.solves"));
    ("icp.solve_s", phase "solve");
    ("worklist.tasks", per_pass "worklist.tasks");
    ("worklist.depth_max", float_of_int (get s.Obs.Metrics.gauges "worklist.depth"));
    ("worklist.busy_share", Stats.ratio busy_s timed_s);
    ("verify.dfa_s.pbe", dfa_s "pbe");
    ("verify.dfa_s.scan", dfa_s "scan");
    ("verify.dfa_s.lyp", dfa_s "lyp");
    ("verify.dfa_s.am05", dfa_s "am05");
    ("verify.dfa_s.vwn_rpa", dfa_s "vwn_rpa");
    ("verify.pair_s.max", Stats.max_of (Array.to_list pair_cpu));
    ("verify.compile_s", phase "encode");
    ("verify.split_s", phase "split");
    ("verify.paint_s", phase "paint");
    ("verify.boxes", per_pass "verify.boxes");
    ("verify.subthreshold", per_pass "verify.subthreshold");
    ("verify.timeout_share", Stats.ratio (count s "verify.boxes.timeout") (count s "verify.boxes"));
    ("machine.speed", speed m);
    ("trace.overhead_share", Stats.ratio (spans *. Spans.record_cost_ns () /. 1e9) timed_s);
    ("trace.layer_share", Stats.ratio model_s wall_s);
    ("trace.spans", spans);
  ]

(* ---- the run --------------------------------------------------------- *)

let skipped (ctx : Ctx.t) (w : workload) reason =
  {
    Ledger.workload = w.name;
    seed = ctx.Ctx.seed;
    traced = ctx.Ctx.traced;
    correct = true;
    attempted = 0;
    failed = 0;
    skipped = Some reason;
    digest = "-";
    values = [];
    samples = [];
  }

let run (ctx : Ctx.t) (w : workload) =
  let smoke = ctx.Ctx.smoke in
  let set = Ctx.set ctx "table1" in
  let kernel_dir = Filename.concat ctx.Ctx.work "kernels" in
  let cfg =
    Ctx.verify_config ~smoke ~jit:w.jit
      ~jit_cache:(if w.jit then Some kernel_dir else None)
  in
  Spans.with_span "workload" ~args:[ ("workload", w.name) ] @@ fun () ->
  (* set-up: cold starts (mean, each in reference seconds read against the
     speed just before it), in-process encoding (median), kernels *)
  let cold_s, encode_s, problems =
    Spans.with_span "setup" (fun () ->
        let cold =
          List.init (if smoke then 1 else cold_starts) (fun _ ->
              Unix.sleepf cold_start_gap_s;
              let speed = Speed.current () in
              cold_start () *. speed)
        in
        let encodes =
          List.init 5 (fun _ ->
              Stats.time (fun () ->
                  List.concat_map
                    (fun dfa ->
                      List.filter_map
                        (fun c -> Spans.with_span "encode" (fun () -> Encoder.encode dfa c))
                        Conditions.all)
                    Registry.paper_five))
        in
        ( Stats.mean cold,
          Option.get (Stats.median (List.map snd encodes)),
          Array.of_list (fst (List.hd encodes)) ))
  in
  let kernels =
    if not w.jit then Ok None
    else if not (Jit.available ()) then Error "no C compiler (XCV_CC, cc, gcc)"
    else Result.map Option.some (compile_kernels ~cfg ~dir:kernel_dir problems)
  in
  match kernels with
  | Error reason -> (skipped ctx w reason, None)
  | Ok kernels ->
      let setup_s = cold_s +. Option.fold ~none:0. ~some:(fun k -> k.compile_cpu_s) kernels in
      let npairs = Array.length problems in
      let passes =
        if smoke then 1 else max 1 (int_of_float (Float.round (ctx.Ctx.seconds /. w.pass_s)))
      in
      let order_rng = Ctx.rng ctx 1 and sample_rng = Ctx.rng ctx 2 in
      let wall = Array.make_matrix passes npairs 0. in
      let cpu = Array.make_matrix passes npairs 0. in
      let probes = Array.make_matrix passes npairs 0. in
      let outcomes = Array.make_matrix passes npairs None in
      let deltas = Array.make npairs None and replays = Array.make npairs None in
      let failed = ref 0 in
      let verify k i =
        let p = problems.(i) in
        let before = if ctx.Ctx.traced && k = 0 then Some (Obs.Metrics.snapshot ()) else None in
        let r, s, c =
          Spans.with_span ("pair:" ^ pair_name p)
            ~args:[ ("pair_id", string_of_int i); ("pass", string_of_int (k + 1)) ]
            (fun () ->
              Stats.time_cpu (fun () ->
                  Spans.with_span "verify.run" (fun () ->
                      try Ok (Verify.run ~config:cfg p) with e -> Error e)))
        in
        wall.(k).(i) <- s;
        cpu.(k).(i) <- c;
        match r with
        | Error e ->
            incr failed;
            Printf.eprintf "%s: %s raised %s\n%!" w.name (pair_name p) (Printexc.to_string e)
        | Ok o ->
            outcomes.(k).(i) <- Some o;
            if Outcome.has_error o || Ctx.pin_ok ctx set o = Some false then begin
              incr failed;
              Printf.eprintf "%s: %s painted differently from its pin\n%!" w.name (pair_name p)
            end;
            Option.iter
              (fun b ->
                deltas.(i) <- Some (b, Obs.Metrics.snapshot ());
                replays.(i) <-
                  Layers.replay ~rng:sample_rng ~config:cfg
                    ~plan:(Option.map (fun ks -> ks.plans.(i)) kernels)
                    p o)
              before
      in
      let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
      let snap =
        Fun.protect ~finally:(fun () -> ignore (Obs.Metrics.install prev)) (fun () ->
            for k = 0 to passes - 1 do
              Spans.with_span (Printf.sprintf "pass:%d" (k + 1)) (fun () ->
                  let before = ref (Speed.probe_cpu ()) in
                  Array.iter
                    (fun i ->
                      verify k i;
                      let after = Speed.probe_cpu () in
                      probes.(k).(i) <- (!before +. after) /. 2.;
                      before := after)
                    (Ctx.shuffle order_rng (Array.init npairs Fun.id)))
            done;
            Obs.Metrics.snapshot ())
      in
      let m =
        { problems; passes; wall; cpu; probes; first = outcomes.(0); deltas; replays; snap }
      in
      (* every pass must paint identically, and the pins must exist *)
      let digests =
        Array.map
          (fun row ->
            match Array.to_list row |> List.filter_map Fun.id with
            | outs when List.length outs = npairs -> Some (Digests.entries outs)
            | _ -> None)
          outcomes
      in
      let digest =
        Option.fold ~none:"incomplete" ~some:(List.assoc "all") digests.(0)
      in
      let consistent = Array.for_all (( = ) digests.(0)) digests in
      if not consistent then Printf.eprintf "%s: passes painted differently\n%!" w.name;
      let pinned = Digests.lookup ctx.Ctx.pinned set "all" <> None in
      if not pinned then Printf.eprintf "%s: digest set %S is not pinned\n%!" w.name set;
      (* the timed passes of the JIT workload must load every kernel from
         the set-up cache *)
      let jit_ok =
        (not w.jit)
        || count snap "jit.compiles" = 0.
           && count snap "jit.fallbacks" = 0.
           && count snap "jit.cache_hits" = float_of_int (passes * npairs)
      in
      if not jit_ok then
        Printf.eprintf "%s: timed passes compiled %g kernels, %g cache hits, %g fallbacks\n%!"
          w.name (count snap "jit.compiles") (count snap "jit.cache_hits")
          (count snap "jit.fallbacks");
      (* what the reference seconds were read from *)
      Printf.printf
        "  pass, sum of pair medians: %.4f reference CPU s; %.4f CPU s, %.4f s elapsed at speed %.3f\n"
        (cpu_s m) (sum (pair_medians m m.cpu)) (sum (pair_medians m m.wall)) (speed m);
      let values =
        if ctx.Ctx.traced then Ledger.layer_values (per_layer ~encode_s ~kernels m)
        else Ledger.defined (end_to_end ~setup_s ~failed:!failed m)
      in
      ( {
          Ledger.workload = w.name;
          seed = ctx.Ctx.seed;
          traced = ctx.Ctx.traced;
          correct = !failed = 0 && consistent && jit_ok && pinned;
          attempted = passes * npairs;
          failed = !failed;
          skipped = None;
          digest;
          values;
          samples =
            [ ("pair cpu", samples_ms m.cpu); ("pair elapsed", samples_ms m.wall) ];
        },
        Option.map (fun kv -> (set, kv)) digests.(0) )
