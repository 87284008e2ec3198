(* Reproduction harness: one target per table/figure of the paper, plus
   the ablations and the split-heuristic grid.

     dune exec bench/main.exe               -- everything below, in order
     dune exec bench/main.exe table1        -- Table I  (verification verdicts)
     dune exec bench/main.exe table2        -- Table II (consistency vs PB)
     dune exec bench/main.exe fig1          -- Figure 1 (PBE region maps)
     dune exec bench/main.exe fig2          -- Figure 2 (LYP region maps)
     dune exec bench/main.exe boundaries    -- Sec. IV-B violation boundaries
     dune exec bench/main.exe ablation      -- Sec. VI-A + design ablations
     dune exec bench/main.exe taylor        -- mean-value contractor on/off
     dune exec bench/main.exe extensions    -- exchange conditions X1/X2
     dune exec bench/main.exe split         -- widest vs smear splitting,
                                              expansions to an Unsat proof

   Environment knobs: XCV_BENCH_FUEL (campaign solver fuel per call,
   default 300), XCV_BENCH_DEADLINE (seconds per pair, default 15),
   XCV_BENCH_ICP_FUEL (fuel for the split-heuristic grid, default 20000).
   The absolute wall-clock numbers are machine-dependent; the *verdicts*
   and region shapes are the reproduction targets (see EXPERIMENTS.md).
   Performance is measured end to end by bench_e2e/. *)

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
let bench_icp_fuel = getenv_int "XCV_BENCH_ICP_FUEL" 20_000

let campaign_config =
  {
    Verify.default_config with
    threshold = 0.15625;
    solver =
      {
        Icp.default_config with
        fuel = bench_fuel;
        delta = 1e-3;
        contractor_rounds = 2;
      };
    deadline_seconds = Some bench_deadline;
    use_taylor = false;
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
(* Split heuristic x contractor grid: fuel spent to a verdict          *)
(* ------------------------------------------------------------------ *)

let split_grid () =
  section "Split heuristic: widest vs smear (expansions to verdict)";
  Printf.printf "fuel budget %d per solve (XCV_BENCH_ICP_FUEL)\n\n"
    bench_icp_fuel;
  (* The workloads are Unsat proofs: sub-boxes on which the condition holds,
     clamped away from the rs -> 0 singular corner and the violation /
     delta-sat bands. Splitting order is irrelevant for SAT instances (the
     midpoint sampler finds violation models in a handful of expansions
     either way); it is the price of an Unsat proof that the smear rule is
     meant to cut. *)
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
            "smear expansion reduction (taylor-tape): %.1f%%\n\n" (100. *. red)
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
    ]

let () =
  let targets =
    [
      ("table1", table1); ("table2", table2); ("fig1", fig1); ("fig2", fig2);
      ("boundaries", boundaries); ("ablation", ablation);
      ("taylor", ablation_taylor); ("extensions", extensions);
      ("split", split_grid);
    ]
  in
  match Array.to_list Sys.argv |> List.tl with
  | [] -> List.iter (fun (_, f) -> f ()) targets
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown bench target %S; known: %s\n" name
                (String.concat " " (List.map fst targets));
              exit 2)
        names
