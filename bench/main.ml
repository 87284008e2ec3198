(* Benchmark & reproduction harness.

   One target per table/figure of the paper, plus ablations and Bechamel
   micro-benchmarks:

     dune exec bench/main.exe               -- everything below, in order
     dune exec bench/main.exe table1        -- Table I  (verification verdicts)
     dune exec bench/main.exe table2        -- Table II (consistency vs PB)
     dune exec bench/main.exe fig1          -- Figure 1 (PBE region maps)
     dune exec bench/main.exe fig2          -- Figure 2 (LYP region maps)
     dune exec bench/main.exe boundaries    -- Sec. IV-B violation boundaries
     dune exec bench/main.exe ablation      -- Sec. VI-A + design ablations
     dune exec bench/main.exe scheduler     -- worklist scaling + trace check
     dune exec bench/main.exe micro         -- Bechamel micro-benchmarks
     dune exec bench/main.exe hc4           -- compiled interval tape (HC4,
                                              mean-value, ICP) vs the native
                                              JIT kernel (jit.* metrics:
                                              single-box speedup, compile
                                              latency)

   Pass `--json` (anywhere in the argument list) to additionally write
   BENCH_<target>.json for every target run: the target name, its
   wall-clock, and every metric the target recorded (expansions, prunes,
   revise_calls, speedups, ...). `dune build @bench-smoke` runs the hc4
   target this way with tiny budgets as a harness smoke test.

   Environment knobs: XCV_BENCH_FUEL (campaign solver fuel per call,
   default 300), XCV_BENCH_DEADLINE (seconds per pair, default 15),
   XCV_BENCH_QUOTA (Bechamel seconds per micro-benchmark, default 0.5),
   XCV_BENCH_ICP_FUEL (fuel for the split-heuristic grid, default 20000).
   The absolute wall-clock numbers are machine-dependent; the *verdicts*
   and region shapes are the reproduction targets (see EXPERIMENTS.md). *)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string v with _ -> default)
  | None -> default

(* Interval timings read the monotonic clock: [t0 = Obs.Clock.now_ns ()],
   then [secs_since t0]. *)
let secs_since t0 = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some v -> (try float_of_string v with _ -> default)
  | None -> default

let bench_fuel = getenv_int "XCV_BENCH_FUEL" 300
let bench_deadline = getenv_float "XCV_BENCH_DEADLINE" 15.0
let bench_quota = getenv_float "XCV_BENCH_QUOTA" 0.5
let bench_icp_fuel = getenv_int "XCV_BENCH_ICP_FUEL" 20_000

(* --json: machine-readable results. Targets push (key, value) pairs while
   they run; the driver writes BENCH_<target>.json after each target. The
   format is a single flat object -- target, wall_clock_s, then the metrics
   in recording order -- so downstream tooling needs no schema. *)
let json_enabled = ref false
let json_metrics : (string * float) list ref = ref []

let record_metric key value =
  if !json_enabled then json_metrics := (key, value) :: !json_metrics

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_json target wall =
  let path = Printf.sprintf "BENCH_%s.json" target in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"target\": %S,\n  \"wall_clock_s\": %s" target
    (json_float wall);
  List.iter
    (fun (k, v) -> Printf.fprintf oc ",\n  %S: %s" k (json_float v))
    (List.rev !json_metrics);
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "(wrote %s)\n%!" path

let campaign_config =
  {
    Verify.threshold = 0.15625;
    solver =
      {
        Icp.default_config with
        fuel = bench_fuel;
        delta = 1e-3;
        contractor_rounds = 2;
      };
    deadline_seconds = Some bench_deadline;
    workers = 1;
    use_taylor = false;
    use_tape = true;
    split_heuristic = `Widest;
    retry = Verify.no_retry;
    jit = false;
    jit_cache = None;
  }

let section title =
  Printf.printf "\n################ %s ################\n\n%!" title

(* Campaign outcomes are shared between table1/table2/figures when running
   `all`, so the 29 pairs are verified once. *)
let campaign_cache : Outcome.t list option ref = ref None

let campaign () =
  match !campaign_cache with
  | Some o -> o
  | None ->
      let t0 = Obs.Clock.now_ns () in
      let outcomes =
        List.map fst
          (fst (Verify.campaign ~config:campaign_config Registry.paper_five))
      in
      Printf.printf "(campaign: %d pairs in %.1fs)\n\n" (List.length outcomes)
        (secs_since t0);
      campaign_cache := Some outcomes;
      outcomes

let pb_cache : Pbcheck.result list option ref = ref None

let pb_results () =
  match !pb_cache with
  | Some r -> r
  | None ->
      let t0 = Obs.Clock.now_ns () in
      let results = Pbcheck.check_all ~n:80 ~n_alpha:12 Registry.paper_five in
      Printf.printf "(PB baseline: %d pairs in %.1fs)\n\n" (List.length results)
        (secs_since t0);
      pb_cache := Some results;
      results

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table I: verifying local conditions (XCVerifier)";
  let outcomes = campaign () in
  List.iter
    (fun o -> Format.printf "%a@." Outcome.pp_summary o)
    outcomes;
  print_newline ();
  print_string (Report.table1 outcomes);
  print_newline ();
  (* side-by-side with the paper's verdicts *)
  print_endline "Paper's Table I for comparison:";
  let cell dfa cond =
    match List.assoc_opt (dfa, cond) Report.paper_table1 with
    | Some s -> s
    | None -> "-"
  in
  Printf.printf "%-32s" "Local condition";
  List.iter
    (fun (f : Registry.t) -> Printf.printf "%-9s" f.Registry.label)
    Registry.paper_five;
  print_newline ();
  List.iter
    (fun c ->
      Printf.printf "%-32s" (Conditions.label c);
      List.iter
        (fun (f : Registry.t) ->
          Printf.printf "%-9s" (cell f.Registry.label (Conditions.name c)))
        Registry.paper_five;
      print_newline ())
    Conditions.all;
  print_newline ();
  (* agreement accounting *)
  let agree = ref 0 and total = ref 0 and stronger = ref 0 in
  List.iter
    (fun (o : Outcome.t) ->
      let ours = Outcome.classification_symbol (Outcome.classify o) in
      let paper = cell o.Outcome.dfa o.Outcome.condition in
      incr total;
      if String.equal ours paper then incr agree
      else if
        (* we count "verified more than the paper" separately: OK where the
           paper had OK*/?, OK* where the paper had ? *)
        (ours = "OK" && (paper = "OK*" || paper = "?"))
        || (ours = "OK*" && paper = "?")
      then incr stronger)
    outcomes;
  Printf.printf
    "verdict agreement with the paper: %d/%d exact, %d stronger (more \
     verified), %d other\n"
    !agree !total !stronger (!total - !agree - !stronger)

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table II: consistency of XCVerifier vs the PB baseline";
  let outcomes = campaign () in
  let pbs = pb_results () in
  List.iter (fun r -> Format.printf "%a@." Pbcheck.pp_summary r) pbs;
  print_newline ();
  print_string (Report.table2 outcomes pbs)

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figure_for dfa_name =
  let dfa = Registry.find dfa_name in
  let outcomes = campaign () in
  let pbs = pb_results () in
  List.iter
    (fun cond ->
      let cname = Conditions.name cond in
      match
        List.find_opt
          (fun (o : Outcome.t) ->
            String.equal o.Outcome.dfa dfa.Registry.label
            && String.equal o.Outcome.condition cname)
          outcomes
      with
      | None -> ()
      | Some o ->
          let pb =
            List.find_opt
              (fun (r : Pbcheck.result) ->
                String.equal r.Pbcheck.dfa dfa.Registry.label
                && r.Pbcheck.condition = cond)
              pbs
          in
          let title =
            Printf.sprintf "%s / %s (Eq. %d)" dfa.Registry.label
              (Conditions.label cond) (Conditions.equation cond)
          in
          print_string (Render.figure ~title ~pb o);
          print_newline ())
    Conditions.all

let fig1 () =
  section "Figure 1: PBE region maps, PB (top) vs XCVerifier (bottom)";
  figure_for "pbe"

let fig2 () =
  section "Figure 2: LYP region maps, PB (top) vs XCVerifier (bottom)";
  figure_for "lyp"

(* ------------------------------------------------------------------ *)
(* Section IV-B violation boundaries                                   *)
(* ------------------------------------------------------------------ *)

let boundaries () =
  section "Section IV-B: violation-region boundaries";
  let report dfa cond paper_desc =
    match
      Pbcheck.check ~n:160 (Registry.find dfa) (Conditions.of_name cond)
    with
    | Some r ->
        let b =
          match Pbcheck.violation_boundary_s r with
          | Some s -> Printf.sprintf "violations start at s = %.4f" s
          | None -> "no violations on the grid"
        in
        Printf.printf "%-4s %-4s: %-38s (paper: %s)\n" dfa cond b paper_desc
    | None -> ()
  in
  report "lyp" "ec1" "s > 1.6563";
  report "lyp" "ec2" "rs < 2.5 and s > 1.4844";
  report "lyp" "ec3" "s > 1.4844 and rs < 1.4062";
  report "lyp" "ec6" "rs > 4.8437 and s > 2.4219";
  report "lyp" "ec7" "rs > 0.625 and s > 1.3281";
  report "pbe" "ec7" "upper-left diagonal region";
  print_newline ();
  (* the analytic crossing for LYP EC1 *)
  Printf.printf "LYP eps_c sign change (bisection): ";
  List.iter
    (fun rs -> Printf.printf "rs=%g -> s*=%.4f  " rs (Gga_lyp.s_crossing ~rs))
    [ 0.5; 1.0; 2.0; 5.0 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation 1 (Sec. VI-A): SCAN hardness vs solver fuel";
  let scan = Registry.find "scan" in
  let problem = Option.get (Encoder.encode scan Conditions.Ec1) in
  List.iter
    (fun fuel ->
      let cfg = { Icp.default_config with fuel; delta = 1e-3 } in
      let t0 = Obs.Clock.now_ns () in
      let verdict, stats =
        Icp.solve cfg problem.Encoder.domain problem.Encoder.negated
      in
      Format.printf
        "fuel %6d: %a  (%d expansions, %d prunes, depth %d, %.2fs)@." fuel
        Icp.pp_verdict verdict stats.Icp.expansions stats.Icp.prunes
        stats.Icp.max_depth
        (secs_since t0))
    [ 10; 100; 1000; 10000 ];
  print_newline ();

  section "Ablation 2: domain splitting (Algorithm 1) on/off";
  let pbe = Registry.find "pbe" in
  List.iter
    (fun (label, threshold) ->
      let config =
        { campaign_config with threshold; deadline_seconds = Some 20.0 }
      in
      match Verify.run_pair ~config pbe Conditions.Ec1 with
      | Some o ->
          let c = Outcome.coverage o in
          Printf.printf "%-28s verified %5.1f%%  timeout %5.1f%%  (%d calls)\n"
            label (100. *. c.Outcome.verified) (100. *. c.Outcome.timeout)
            o.Outcome.stats.Outcome.solver_calls
      | None -> ())
    [
      ("no splitting (t = domain)", 5.0);
      ("shallow (t = 1.25)", 1.25);
      ("paper-like (t = 0.156)", 0.15625);
    ];
  print_newline ();

  section "Ablation 3: HC4 contraction rounds";
  List.iter
    (fun rounds ->
      let config =
        {
          campaign_config with
          solver = { campaign_config.solver with contractor_rounds = rounds };
          deadline_seconds = Some 20.0;
        }
      in
      match Verify.run_pair ~config pbe Conditions.Ec1 with
      | Some o ->
          let c = Outcome.coverage o in
          Printf.printf
            "contractor rounds = %d: verified %5.1f%%  timeout %5.1f%%  \
             (%d expansions, %.1fs)\n"
            rounds (100. *. c.Outcome.verified) (100. *. c.Outcome.timeout)
            o.Outcome.stats.Outcome.total_expansions
            o.Outcome.stats.Outcome.elapsed
      | None -> ())
    [ 0; 1; 2; 4 ];
  print_newline ();

  section "Ablation 4: delta and the inconclusive band (PBE / EC7)";
  List.iter
    (fun delta ->
      let config =
        {
          campaign_config with
          solver = { campaign_config.solver with delta };
          deadline_seconds = Some 20.0;
        }
      in
      match Verify.run_pair ~config pbe Conditions.Ec7 with
      | Some o ->
          let c = Outcome.coverage o in
          Printf.printf
            "delta = %.0e: cex %5.1f%%  inconclusive %5.1f%%  verified %5.1f%%\n"
            delta
            (100. *. c.Outcome.counterexample)
            (100. *. c.Outcome.inconclusive)
            (100. *. c.Outcome.verified)
      | None -> ())
    [ 1e-1; 1e-2; 1e-3 ];
  print_newline ();

  section "Ablation 5: SCAN vs rSCAN (Sec. VI-A outlook)";
  List.iter
    (fun name ->
      let dfa = Registry.find name in
      List.iter
        (fun cond ->
          let config =
            (* coarser threshold: 3D recursion at t = 0.156 would need
               32^3 leaves, far beyond any per-pair budget *)
            {
              campaign_config with
              threshold = 0.7;
              deadline_seconds = Some 20.0;
            }
          in
          match Verify.run_pair ~config dfa cond with
          | Some o ->
              let c = Outcome.coverage o in
              Printf.printf
                "%-6s %s: %-4s verified %5.1f%%  timeout+inconcl %5.1f%%\n"
                dfa.Registry.label (Conditions.name cond)
                (Outcome.classification_symbol (Outcome.classify o))
                (100. *. c.Outcome.verified)
                (100. *. (c.Outcome.timeout +. c.Outcome.inconclusive))
          | None -> ())
        [ Conditions.Ec1; Conditions.Ec2 ])
    [ "scan"; "rscan" ]

(* ------------------------------------------------------------------ *)
(* Extension conditions (Sec. VI-B direction)                          *)
(* ------------------------------------------------------------------ *)

let extensions () =
  section
    "Extension: exchange conditions X1 (E_x <= 0) and X2 (F_x <= 1.804)";
  let config =
    { campaign_config with threshold = 0.3; deadline_seconds = Some 15.0 }
  in
  List.iter
    (fun (dfa : Registry.t) ->
      List.iter
        (fun cond ->
          match Extra_conditions.local_condition cond dfa with
          | None -> ()
          | Some psi ->
              let o =
                Verify.run_custom ~config ~dfa_label:dfa.Registry.label
                  ~condition_label:(Extra_conditions.name cond)
                  ~domain:(Domain_spec.box_for dfa) ~psi ()
              in
              Printf.printf "%-11s %-3s (%s): %-4s" dfa.Registry.label
                (Extra_conditions.name cond)
                (Extra_conditions.label cond)
                (Outcome.classification_symbol (Outcome.classify o));
              (match Outcome.first_counterexample o with
              | Some m ->
                  Printf.printf "  counterexample at";
                  List.iter (fun (v, x) -> Printf.printf " %s=%.4f" v x) m
              | None -> ());
              print_newline ())
        Extra_conditions.all)
    (Extra_conditions.exchange_functionals ());
  print_endline
    "(Every non-empirical exchange verifies instantly; the empirical B88 \n\
    \ exchange [and hence BLYP] is refuted on the exchange Lieb-Oxford \n\
    \ bound at s ~ 3.7 -- its well-known large-gradient defect, here with \n\
    \ a formal counterexample.)"

(* ------------------------------------------------------------------ *)
(* Ablation 6: mean-value-form contractor                              *)
(* ------------------------------------------------------------------ *)

let ablation_taylor () =
  section "Ablation 6: mean-value-form (Taylor) contractor";
  List.iter
    (fun (dfa, cond) ->
      List.iter
        (fun use_taylor ->
          let config =
            { campaign_config with use_taylor; deadline_seconds = Some 20.0 }
          in
          match
            Verify.run_pair ~config (Registry.find dfa)
              (Conditions.of_name cond)
          with
          | Some o ->
              let c = Outcome.coverage o in
              Printf.printf
                "%-4s %s taylor=%-5b verified %5.1f%%  timeout %5.1f%%                   (%d expansions, %.1fs)
"
                dfa cond use_taylor
                (100. *. c.Outcome.verified)
                (100. *. c.Outcome.timeout)
                o.Outcome.stats.Outcome.total_expansions
                o.Outcome.stats.Outcome.elapsed
          | None -> ())
        [ false; true ])
    [ ("pbe", "ec1"); ("pbe", "ec2") ];
  print_endline
    "(EC1 gains ~30 points of verified coverage: the linear form defeats\n\
    \ the dependency problem on F_c itself. EC2's psi is already a\n\
    \ derivative, so the contractor must evaluate interval *second*\n\
    \ derivatives; whether that pays for itself is budget-dependent and\n\
    \ measured standalone it does not.)"

(* ------------------------------------------------------------------ *)
(* Scheduler: worklist scaling + trace telemetry consistency           *)
(* ------------------------------------------------------------------ *)

let scheduler () =
  section "Worklist scheduler: PBE campaign at 1 vs default_workers domains";
  let pbe = Registry.find "pbe" in
  let time_campaign workers =
    let config = { campaign_config with workers } in
    let t0 = Obs.Clock.now_ns () in
    let outcomes = List.map fst (fst (Verify.campaign ~config [ pbe ])) in
    (outcomes, secs_since t0)
  in
  let seq, t_seq = time_campaign 1 in
  let workers = Worklist.default_workers () in
  let par, t_par = time_campaign workers in
  Printf.printf "workers=1:  %.2fs over %d pairs\n" t_seq (List.length seq);
  Printf.printf "workers=%d:  %.2fs over %d pairs  (speedup %.2fx)\n" workers
    t_par (List.length par) (t_seq /. t_par);
  List.iter2
    (fun a b ->
      let sym o = Outcome.classification_symbol (Outcome.classify o) in
      Printf.printf "  %-6s %-4s: %-3s vs %-3s %s  (%d vs %d solver calls)\n"
        a.Outcome.dfa a.Outcome.condition (sym a) (sym b)
        (if sym a = sym b then "agree" else "DISAGREE")
        a.Outcome.stats.Outcome.solver_calls b.Outcome.stats.Outcome.solver_calls)
    seq par;
  print_newline ();
  (* telemetry consistency: the per-box solve events must account for every
     unit of fuel the aggregate reports *)
  let recorder = Trace.create () in
  let config = { campaign_config with workers } in
  (match Verify.run_pair ~config ~recorder pbe Conditions.Ec1 with
  | None -> ()
  | Some o ->
      let events = Trace.events recorder in
      let fuel = Trace.total_fuel events in
      Printf.printf
        "trace: %d events for pbe/ec1; solve fuel sum %d vs \
         stats.total_expansions %d  (%s)\n"
        (List.length events) fuel o.Outcome.stats.Outcome.total_expansions
        (if fuel = o.Outcome.stats.Outcome.total_expansions then "consistent"
         else "INCONSISTENT"));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let pbe = Registry.find "pbe" in
  let f_c = Enhancement.f_of (Option.get pbe.Registry.eps_c) in
  let vars = Registry.variables pbe in
  let tape = Compile.compile ~vars f_c in
  let env = [ (Dft_vars.rs_name, 1.3); (Dft_vars.s_name, 2.1) ] in
  let args = [| 1.3; 2.1 |] in
  let dfc = Simplify.simplify (Deriv.diff ~wrt:Dft_vars.rs_name f_c) in
  let ienv =
    [
      (Dft_vars.rs_name, Interval.make 1.0 1.5);
      (Dft_vars.s_name, Interval.make 2.0 2.2);
    ]
  in
  let box =
    Box.make
      [
        (Dft_vars.rs_name, Interval.make 1.0 1.5);
        (Dft_vars.s_name, Interval.make 2.0 2.2);
      ]
  in
  let prog = Itape.compile ~vars:(Box.vars box) (Form.ge f_c) in
  let ec1 = Option.get (Encoder.encode pbe Conditions.Ec1) in
  let small_solver =
    {
      Icp.default_config with
      fuel = 50;
      tape =
        Some
          (Hc4.compile ~vars:(Box.vars ec1.Encoder.domain) ec1.Encoder.negated);
    }
  in
  let tests =
    [
      Test.make ~name:"eval: PBE F_c (tree walk)"
        (Staged.stage (fun () -> Eval.eval env f_c));
      Test.make ~name:"eval: PBE F_c (compiled tape)"
        (Staged.stage (fun () -> Compile.run tape args));
      Test.make ~name:"eval: PBE dF_c/drs (tree walk)"
        (Staged.stage (fun () -> Eval.eval env dfc));
      Test.make ~name:"interval: PBE F_c over box"
        (Staged.stage (fun () -> Ieval.eval ienv f_c));
      Test.make ~name:"hc4: revise PBE EC1 atom"
        (Staged.stage (fun () -> Itape.revise prog box));
      Test.make ~name:"icp: 50-expansion budget on EC1"
        (Staged.stage (fun () ->
             Icp.solve small_solver ec1.Encoder.domain ec1.Encoder.negated));
      Test.make ~name:"symbolic: diff PBE F_c"
        (Staged.stage (fun () -> Deriv.diff ~wrt:Dft_vars.rs_name f_c));
      Test.make ~name:"lambert: W0(1.0)"
        (Staged.stage (fun () -> Lambert.w0 1.0));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second bench_quota) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ x ] -> x
            | _ -> Float.nan
          in
          let r2 =
            match Analyze.OLS.r_square est with
            | Some r -> r
            | None -> Float.nan
          in
          Printf.printf "%-36s %12.1f ns/run  (r2 = %.4f)\n%!"
            (Test.Elt.name elt) ns r2)
        (Test.elements test))
    tests;
  print_newline ();
  (* grid-evaluation throughput: the number that makes the PB baseline
     feasible at the paper's 1e5-sample scale *)
  let n = 200 in
  let mesh =
    Mesh.make
      [
        (Dft_vars.rs_name, Mesh.linspace 0.0001 5.0 n);
        (Dft_vars.s_name, Mesh.linspace 0.0 5.0 n);
      ]
  in
  let t0 = Obs.Clock.now_ns () in
  let acc = ref 0.0 in
  for i = 0 to Mesh.size mesh - 1 do
    acc := !acc +. Compile.run tape (Mesh.values mesh i)
  done;
  let dt = secs_since t0 in
  Printf.printf
    "PB grid throughput (pointwise): %d PBE F_c evaluations in %.3fs \
     (%.2f Mevals/s; checksum %.6f)\n"
    (n * n) dt
    (float_of_int (n * n) /. dt /. 1e6)
    !acc;
  (* columnwise batch evaluation *)
  let total = Mesh.size mesh in
  let cols = Array.init 2 (fun _ -> Array.make total 0.0) in
  for i = 0 to total - 1 do
    let v = Mesh.values mesh i in
    cols.(0).(i) <- v.(0);
    cols.(1).(i) <- v.(1)
  done;
  let out = Array.make total 0.0 in
  let t0 = Obs.Clock.now_ns () in
  Compile.run_batch tape cols out;
  let dt_b = secs_since t0 in
  let acc_b = Array.fold_left ( +. ) 0.0 out in
  Printf.printf
    "PB grid throughput (batch):     %d PBE F_c evaluations in %.3fs \
     (%.2f Mevals/s; checksum %.6f, speedup %.1fx)\n"
    total dt_b
    (float_of_int total /. dt_b /. 1e6)
    acc_b (dt /. dt_b)

(* ------------------------------------------------------------------ *)
(* HC4 contraction on the compiled interval tape, and the JIT kernel   *)
(* ------------------------------------------------------------------ *)

let hc4_bench () =
  section "HC4: compiled interval tape";
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second bench_quota) ~kde:None
      ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let measure test =
    List.map
      (fun elt ->
        let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
        let est = Analyze.one ols Instance.monotonic_clock raw in
        let ns =
          match Analyze.OLS.estimates est with
          | Some [ x ] -> x
          | _ -> Float.nan
        in
        Printf.printf "%-40s %12.1f ns/run\n%!" (Test.Elt.name elt) ns;
        ns)
      (Test.elements test)
    |> List.hd
  in
  let speedup ~pair label base fast =
    Printf.printf "%-40s %12.2fx\n\n%!" (label ^ " speedup") (base /. fast);
    record_metric (Printf.sprintf "%s_%s_speedup" pair label) (base /. fast)
  in
  (* a measured row whose ns/run also goes into the JSON as [pair_key_ns] *)
  let row ~pair key name f =
    record_metric
      (Printf.sprintf "%s_%s_ns" pair key)
      (measure (Test.make ~name (Staged.stage f)))
  in
  List.iter
    (fun (dfa_name, cond) ->
      let dfa = Registry.find dfa_name in
      let problem = Option.get (Encoder.encode dfa cond) in
      let formula = problem.Encoder.negated in
      let domain = problem.Encoder.domain in
      let compiled = Hc4.compile ~vars:(Box.vars domain) formula in
      let atom = List.hd formula in
      let prog = Itape.compile ~vars:(Box.vars domain) atom in
      let pair = dfa_name ^ "_" ^ Conditions.name cond in
      (* a mid-search box: narrow enough that the atom is undecided, so the
         backward pass and read-off actually run *)
      let box = fst (Box.split (fst (Box.split domain))) in
      Printf.printf "--- %s / %s (%d tape registers) ---\n" dfa_name
        (Conditions.name cond) (Itape.length prog);
      row ~pair "revise" "revise (interval tape)" (fun () ->
          Itape.revise prog box);
      row ~pair "contract" "contract x4 (tape + agenda)" (fun () ->
          Hc4.contract_tape compiled box ~rounds:4);
      let solver =
        {
          Icp.default_config with
          fuel = 50;
          faults = None;
          tape = Some compiled;
        }
      in
      row ~pair "solve" "icp 50-expansion (interval tape)" (fun () ->
          Icp.solve solver domain formula);
      print_newline ())
    [
      ("pbe", Conditions.Ec1);
      ("pbe", Conditions.Ec7);
      ("lyp", Conditions.Ec1);
      ("scan", Conditions.Ec1);
    ];

  (* -- mean-value contractor: one adjoint sweep per atom -- *)
  section "Mean-value contractor: adjoint tape";
  List.iter
    (fun (dfa_name, cond, clamps) ->
      let dfa = Registry.find dfa_name in
      let problem = Option.get (Encoder.encode dfa cond) in
      let domain = problem.Encoder.domain in
      let compiled =
        Hc4.compile ~vars:(Box.vars domain) problem.Encoder.negated
      in
      let pair = dfa_name ^ "_" ^ Conditions.name cond in
      (* a mid-search box: atoms undecided, so the linear solve actually
         runs. Piecewise DFAs (SCAN) get explicit clamps away from the
         guard seams — on an undecided-guard box the contractor is a no-op
         and the row would only measure how fast it notices. *)
      let box =
        match clamps with
        | [] -> fst (Box.split (fst (Box.split domain)))
        | _ ->
            List.fold_left
              (fun b (v, lo, hi) -> Box.set b v (Interval.make lo hi))
              domain clamps
      in
      Printf.printf "--- %s / %s ---\n" dfa_name (Conditions.name cond);
      row ~pair "mvf" "mvf contract (adjoint tape)" (fun () ->
          Hc4.mean_value_tape compiled box);
      print_newline ())
    [
      ("pbe", Conditions.Ec1, []);
      ("pbe", Conditions.Ec7, []);
      ("lyp", Conditions.Ec1, []);
      ("scan", Conditions.Ec1,
       [
         (Dft_vars.rs_name, 1.0, 1.3);
         (Dft_vars.s_name, 1.0, 1.3);
         (Dft_vars.alpha_name, 1.2, 1.5);
       ]);
    ];

  (* -- JIT: the interpreted tape pipeline vs the native kernel, one box
     per call as the solver makes it -- *)
  section "JIT: interpreted tape vs native C kernel";
  (if not (Jit.available ()) then begin
     Printf.printf "no C compiler found (XCV_CC/cc/gcc) -- skipping\n\n";
     record_metric "jit_available" 0.0
   end
   else begin
     record_metric "jit_available" 1.0;
     let cache = Filename.temp_file "xcvjit-bench" "" in
     Sys.remove cache;
     Unix.mkdir cache 0o700;
     List.iter
       (fun (dfa_name, cond) ->
         let dfa = Registry.find dfa_name in
         let problem = Option.get (Encoder.encode dfa cond) in
         let formula = problem.Encoder.negated in
         let domain = problem.Encoder.domain in
         let compiled = Hc4.compile ~vars:(Box.vars domain) formula in
         let pair = dfa_name ^ "_" ^ Conditions.name cond in
         let box = fst (Box.split (fst (Box.split domain))) in
         Printf.printf "--- %s / %s ---\n" dfa_name (Conditions.name cond);
         let t0 = Obs.Clock.now_ns () in
         match Jit.plan ~cache_dir:cache ~mvf:true ~rounds:4 compiled with
         | Error e ->
             Printf.printf "jit plan failed (%s) -- interpreted fallback\n\n" e
         | Ok plan ->
             let compile_ms = secs_since t0 *. 1000.0 in
             Printf.printf "%-40s %12.1f ms\n%!" "compile + dlopen" compile_ms;
             record_metric (pair ^ "_jit_compile_ms") compile_ms;
             (* the interpreted side of the comparison is the full per-call
                pipeline the default solver config runs on a box: HC4
                contraction, the mean-value-form stage, and the status
                read-off *)
             let interp b =
               let r =
                 match Hc4.contract_tape compiled b ~rounds:4 with
                 | Hc4.Infeasible -> Hc4.Infeasible
                 | Hc4.Contracted b' -> Hc4.mean_value_tape compiled b'
               in
               match r with
               | Hc4.Infeasible -> 0
               | Hc4.Contracted b' -> List.length (Hc4.statuses_on compiled b')
             in
             let t_tape =
               measure
                 (Test.make ~name:"contract+statuses (tape)"
                    (Staged.stage (fun () -> interp box)))
             in
             let t_jit =
               measure
                 (Test.make ~name:"contract+statuses (jit)"
                    (Staged.stage (fun () -> Jit.native_batch plan box)))
             in
             speedup ~pair "jit" t_tape t_jit)
       [
         ("pbe", Conditions.Ec1);
         ("pbe", Conditions.Ec7);
         ("lyp", Conditions.Ec1);
         ("scan", Conditions.Ec1);
       ]
   end);

  (* -- split heuristic x contractor grid: fuel spent to a verdict -- *)
  section "Split heuristic: widest vs smear (expansions to verdict)";
  Printf.printf "fuel budget %d per solve (XCV_BENCH_ICP_FUEL)\n\n"
    bench_icp_fuel;
  (* The workloads are Unsat proofs: sub-boxes on which the condition holds,
     clamped away from the rs -> 0 singular corner and the violation /
     delta-sat bands. Splitting order is irrelevant for SAT instances (the
     midpoint sampler finds violation models in a handful of expansions
     either way); it is the price of an Unsat proof that the smear rule is
     meant to cut. *)
  let tot_exp = ref 0 and tot_prunes = ref 0 and tot_revise = ref 0 in
  List.iter
    (fun (dfa_name, cond, clamps) ->
      let dfa = Registry.find dfa_name in
      let problem = Option.get (Encoder.encode dfa cond) in
      let formula = problem.Encoder.negated in
      let domain = problem.Encoder.domain in
      let vars = Box.vars domain in
      let compiled = Hc4.compile ~vars formula in
      let box =
        List.fold_left
          (fun b (v, lo, hi) -> Box.set b v (Interval.make lo hi))
          domain clamps
      in
      let cname = Conditions.name cond in
      let pair = dfa_name ^ "_" ^ cname in
      Printf.printf "--- %s / %s on " dfa_name cname;
      List.iter (fun (v, lo, hi) -> Printf.printf "%s:[%g,%g] " v lo hi) clamps;
      Printf.printf "---\n";
      let results = ref [] in
      List.iter
        (fun (mode_label, contractors) ->
          List.iter
            (fun (split_label, split) ->
              let cfg =
                {
                  Icp.default_config with
                  fuel = bench_icp_fuel;
                  faults = None;
                  tape = Some compiled;
                  split_heuristic = split;
                }
              in
              let t0 = Obs.Clock.now_ns () in
              let verdict, stats = Icp.solve ~contractors cfg box formula in
              let dt = secs_since t0 in
              results := ((mode_label, split_label), stats.Icp.expansions)
                         :: !results;
              tot_exp := !tot_exp + stats.Icp.expansions;
              tot_prunes := !tot_prunes + stats.Icp.prunes;
              tot_revise := !tot_revise + stats.Icp.revise_calls;
              record_metric
                (Printf.sprintf "%s_%s_%s_expansions" pair mode_label
                   split_label)
                (float_of_int stats.Icp.expansions);
              let verdict_s = Format.asprintf "%a" Icp.pp_verdict verdict in
              Printf.printf
                "%-12s %-7s %-24s %6d expansions  %6d prunes  %.3fs\n%!"
                mode_label split_label verdict_s stats.Icp.expansions
                stats.Icp.prunes dt)
            [ ("widest", `Widest); ("smear", `Smear) ])
        [
          ("taylor-off", []);
          ("taylor-tape", [ Hc4.mean_value_tape compiled ]);
        ];
      (match
         ( List.assoc_opt ("taylor-tape", "widest") !results,
           List.assoc_opt ("taylor-tape", "smear") !results )
       with
      | Some w, Some s when w > 0 ->
          let red = 1.0 -. (float_of_int s /. float_of_int w) in
          Printf.printf
            "smear expansion reduction (taylor-tape): %.1f%%\n\n" (100. *. red);
          record_metric (Printf.sprintf "%s_smear_reduction" pair) red
      | _ -> ()))
    [
      ("pbe", Conditions.Ec1,
       [ (Dft_vars.rs_name, 0.5, 5.0); (Dft_vars.s_name, 0.0, 2.0) ]);
      ("pbe", Conditions.Ec2,
       [ (Dft_vars.rs_name, 0.5, 5.0); (Dft_vars.s_name, 0.0, 2.0) ]);
      ("lyp", Conditions.Ec1,
       [ (Dft_vars.rs_name, 0.5, 5.0); (Dft_vars.s_name, 0.0, 1.5) ]);
      ("lyp", Conditions.Ec2,
       [ (Dft_vars.rs_name, 0.5, 5.0); (Dft_vars.s_name, 0.0, 1.4) ]);
      ("pbe", Conditions.Ec7,
       [ (Dft_vars.rs_name, 0.5, 5.0); (Dft_vars.s_name, 0.0, 1.0) ]);
    ];
  record_metric "expansions" (float_of_int !tot_exp);
  record_metric "prunes" (float_of_int !tot_prunes);
  record_metric "revise_calls" (float_of_int !tot_revise)

(* ------------------------------------------------------------------ *)

(* The verification service, measured at the engine layer (no socket, so
   numbers isolate admission + cache + solve): a fixed query mix submitted
   three times over — the second and third waves should be pure cache
   hits. Reports throughput, the mean per-query latency (percentiles only
   where the sample supports them) and the cache hit rate read back from
   the service counters. *)
let bench_service_fuel = getenv_int "XCV_BENCH_SERVICE_FUEL" 60

(* Nearest-rank percentile [p] of an ascending array, reported only when
   at least [min_beyond] samples rank above it: a tail read off one or two
   samples is noise, not a percentile. *)
let min_beyond = 10

let percentile sorted p =
  let n = Array.length sorted in
  let k = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n)))) in
  if n - k < min_beyond then None else Some sorted.(k - 1)

let service_bench () =
  section "verification service: engine throughput and verdict cache";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xcv-bench-service-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  let verify =
    {
      campaign_config with
      Verify.threshold = 0.25;
      solver = { campaign_config.Verify.solver with Icp.fuel = bench_service_fuel };
      deadline_seconds = None;
    }
  in
  let engine_cfg =
    { Engine.default_config with Engine.cache_dir = dir; max_inflight = 64; verify }
  in
  let t = Engine.create engine_cfg in
  let client = Engine.new_client t in
  let mix =
    [ ("pbe", "ec1"); ("pbe", "ec2"); ("lyp", "ec1"); ("vwn_rpa", "ec6") ]
  in
  let latencies = ref [] in
  let failures = ref 0 in
  let t0 = Obs.Clock.now_ns () in
  let id = ref 0 in
  for _wave = 1 to 3 do
    List.iter
      (fun (dfa, condition) ->
        incr id;
        let q0 = Obs.Clock.now_ns () in
        (match
           Engine.submit t client
             (Protocol.Verify
                { id = !id; dfa; condition; opts = Protocol.no_opts })
         with
        | None ->
            let ok = ref false in
            Engine.drain t () ~on_response:(fun _ resp ->
                match resp with
                | Protocol.Result _ -> ok := true
                | _ -> ());
            if not !ok then incr failures
        | Some _ -> incr failures);
        latencies := secs_since q0 :: !latencies)
      mix
  done;
  let wall = secs_since t0 in
  let sorted = List.sort compare !latencies |> Array.of_list in
  let n = Array.length sorted in
  let hits = Obs.Metrics.read (Obs.Metrics.counter "service.cache.hits") in
  let misses = Obs.Metrics.read (Obs.Metrics.counter "service.cache.misses") in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  Printf.printf "queries %d  failures %d  wall %.2fs  (%.1f q/s)\n" n !failures
    wall
    (float_of_int n /. wall);
  let mean = Array.fold_left ( +. ) 0.0 sorted /. float_of_int n in
  Printf.printf "latency mean %.1f ms (n=%d)\n" (1000. *. mean) n;
  record_metric "latency_mean_ms" (1000. *. mean);
  List.iter
    (fun (label, p) ->
      match percentile sorted p with
      | Some v ->
          Printf.printf "latency %s %.1f ms (n=%d)\n" label (1000. *. v) n;
          record_metric ("latency_" ^ label ^ "_ms") (1000. *. v)
      | None ->
          Printf.printf
            "latency %s not reported (n=%d: fewer than %d samples beyond)\n"
            label n min_beyond)
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ];
  Printf.printf "cache: %d hits / %d misses (hit rate %.2f)\n%!" hits misses
    hit_rate;
  record_metric "queries" (float_of_int n);
  record_metric "failures" (float_of_int !failures);
  record_metric "throughput_qps" (float_of_int n /. wall);
  record_metric "cache_hit_rate" hit_rate;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Certified transcendental kernels                                    *)
(* ------------------------------------------------------------------ *)

(* Enclosure widths of the libm-only enclosures ([Transcend.Legacy]:
   2^20 trig collapse, Lambert-W +inf certification escape, blanket 2-ulp
   outward rounding) against the exported enclosures that meet them with
   the certified dd kernels, measured at the escape points; then the fuel
   ICP spends on pointwise-trivial conditions at those points. *)
let transcend_bench () =
  section "Certified transcendental kernels: enclosure widths";
  let ulps_of i x = Interval.width i /. (Float.succ x -. x) in
  let width_row label legacy certified =
    Printf.printf "%-26s legacy %-14g certified %-14g ratio %g\n" label
      legacy certified
      (if certified > 0.0 then legacy /. certified else Float.infinity);
    record_metric (label ^ "_legacy") legacy;
    record_metric (label ^ "_certified") certified;
    if certified > 0.0 && Float.is_finite legacy then
      record_metric (label ^ "_ratio") (legacy /. certified)
  in
  (* sin beyond the retired 2^20 cutoff: legacy collapses to [-1, 1]. *)
  let big = Float.ldexp 1.0 21 in
  let sin_arg = Interval.make big (big +. 0.125) in
  width_row "width.sin_beyond_cutoff"
    (Interval.width (Transcend.Legacy.sin sin_arg))
    (Interval.width (Transcend.sin sin_arg));
  let big_c = 3.0 *. Float.ldexp 1.0 20 in
  let cos_arg = Interval.make big_c (big_c +. 0.125) in
  width_row "width.cos_beyond_cutoff"
    (Interval.width (Transcend.Legacy.cos cos_arg))
    (Interval.width (Transcend.cos cos_arg));
  (* Lambert W hugging the -1/e branch point: a no-regression guard.
     The repair of the legacy +inf escape only fires on platforms where
     the float kernel NaNs at the branch; everywhere the certified
     enclosure must be no wider than the legacy one (ratio >= 1). *)
  let branch = -.exp (-1.0) in
  let w_arg = Interval.make branch (branch +. 1e-10) in
  width_row "width.w_branch_point"
    (Interval.width (Transcend.Legacy.lambert_w w_arg))
    (Interval.width (Transcend.lambert_w w_arg));
  (* Point enclosures, in ulps of the true result: the legacy blanket
     outward rounding is 4 ulps; the dd kernels carry derived bounds. *)
  let e1 = exp 1.0 in
  width_row "width.exp_point_ulps"
    (ulps_of (Transcend.Legacy.exp (Interval.point 1.0)) e1)
    (ulps_of (Transcend.exp (Interval.point 1.0)) e1);
  let l2 = log 2.0 in
  width_row "width.log_point_ulps"
    (ulps_of (Transcend.Legacy.log (Interval.point 2.0)) l2)
    (ulps_of (Transcend.log (Interval.point 2.0)) l2);
  (* The float-exponent pow is 1 ulp narrower here, but it encloses
     x^fl(2/3), not x^(2/3); the certified row is the sound one and stays
     ulp-scale. *)
  let cbrt4 = Float.cbrt 4.0 in
  width_row "width.pow_2_3_point_ulps"
    (ulps_of
       (Interval.pow (Interval.point 2.0) (Rat.to_float (Rat.make 2 3)))
       cbrt4)
    (ulps_of (Transcend.pow_rat (Interval.point 2.0) (Rat.make 2 3)) cbrt4);
  print_newline ();

  section "Expansions per solve at the escape points";
  let cfg = { Icp.default_config with fuel = 400; delta = 1e-9 } in
  let solve_row ?(cfg = cfg) label domain formula =
    let v, stats = Icp.solve cfg domain formula in
    Format.printf "%-20s %a (%d expansions)@." label Icp.pp_verdict v
      stats.Icp.expansions;
    record_metric (label ^ "_expansions") (float_of_int stats.Icp.expansions)
  in
  (* Escape rows: pointwise-trivial conditions the libm-only enclosures
     can never refute, so a solver on them would burn fuel splitting an
     enclosure that no split can narrow. *)
  let x = Expr.var "x" in
  let refute atom = [ Form.negate_atom atom ] in
  solve_row "sin_escape"
    (Box.make [ ("x", sin_arg) ])
    (refute (Form.le (Expr.sub (Expr.sin x) (Expr.const 0.9))));
  solve_row "cos_escape"
    (Box.make [ ("x", cos_arg) ])
    (refute (Form.le (Expr.sub (Expr.cos x) (Expr.const 0.9))));
  (* No-regression row: the W box hugs the branch point (delta finer
     than the box so the solver would be forced to split if the
     enclosure escaped). *)
  solve_row ~cfg:{ cfg with delta = 1e-13 } "w_branch"
    (Box.make [ ("x", w_arg) ])
    (refute (Form.le (Expr.lambert_w x)))

let () =
  let targets =
    [
      ("table1", table1); ("table2", table2); ("fig1", fig1); ("fig2", fig2);
      ("boundaries", boundaries); ("ablation", ablation);
      ("taylor", ablation_taylor); ("extensions", extensions);
      ("scheduler", scheduler); ("micro", micro); ("hc4", hc4_bench);
      ("service", service_bench); ("transcend", transcend_bench);
    ]
  in
  let args = Array.to_list Sys.argv |> List.tl in
  json_enabled := List.mem "--json" args;
  let names = List.filter (fun a -> not (String.equal a "--json")) args in
  (* Each target runs against a fresh metrics instance so its BENCH json
     carries only its own counters; the snapshot is folded flat under an
     "obs." prefix (timers in seconds, histograms as observation counts).
     Keys that never moved during the target (value 0) are left out. *)
  let run_target (name, f) =
    json_metrics := [];
    let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
    let t0 = Obs.Clock.now_ns () in
    f ();
    let wall = secs_since t0 in
    if !json_enabled then begin
      let s = Obs.Metrics.snapshot () in
      let record_obs key v =
        if v <> 0.0 then record_metric ("obs." ^ key) v
      in
      List.iter
        (fun (k, v) -> record_obs k (float_of_int v))
        (s.Obs.Metrics.counters @ s.Obs.Metrics.wall_counters);
      List.iter
        (fun (k, buckets) ->
          let count = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
          record_obs (k ^ ".count") (float_of_int count))
        s.Obs.Metrics.histograms;
      List.iter
        (fun (k, v) -> record_obs (k ^ ".max") (float_of_int v))
        s.Obs.Metrics.gauges;
      List.iter
        (fun (k, ns) -> record_obs (k ^ ".s") (float_of_int ns /. 1e9))
        s.Obs.Metrics.timers;
      write_json name wall
    end;
    ignore (Obs.Metrics.install prev)
  in
  match names with
  | [] -> List.iter run_target targets
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> run_target (name, f)
          | None ->
              Printf.eprintf "unknown bench target %S; known: %s\n" name
                (String.concat " " (List.map fst targets));
              exit 2)
        names
