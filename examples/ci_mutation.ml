(* XCVerifier as continuous integration — the paper's Section VI-B vision.

   "Future work will ... aim to integrate our verification tool into LibXC,
   e.g., as part of the continuous integration (CI) for LibXC."

   What does a CI failure look like? A regression in a functional's
   implementation: a transcribed constant goes wrong, a correction term is
   applied twice, a sign flips. This example *injects* exactly such bugs
   into PBE and shows that the exact-condition verifier flips from verified
   to refuted — with a concrete counterexample a developer could paste into
   a bug report. It also shows the limits: a small parameter perturbation
   that happens to respect all exact conditions stays green (the conditions
   are necessary, not sufficient, for correctness).

   Run with:  dune exec examples/ci_mutation.exe *)

let config =
  {
    Verify.default_config with
    threshold = 0.3;
    solver =
      { Icp.default_config with fuel = 400; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 20.0;
    use_taylor = false;
  }

let gate label (dfa : Registry.t) cond =
  match Verify.run_pair ~config dfa cond with
  | None -> ()
  | Some o ->
      let verdict = Outcome.classification_symbol (Outcome.classify o) in
      Format.printf "  %-16s %-4s: %-4s" label (Conditions.name cond) verdict;
      (match Outcome.first_counterexample o with
      | Some m ->
          Format.printf " counterexample:";
          List.iter (fun (v, x) -> Format.printf " %s=%.4g" v x) m
      | None -> ());
      Format.printf "@."

let () =
  let pbe = Registry.find "pbe" in

  print_endline "=== Gate 1: pristine PBE (expected: no X verdicts) ===";
  List.iter (gate "pbe" pbe) [ Conditions.Ec1; Conditions.Ec5 ];
  print_newline ();

  (* Mutant A: kappa transcribed as 2.004 instead of 0.804 (digit slip).
     kappa = 0.804 is precisely the value that keeps F_x <= 1.804 and hence
     F_xc within the Lieb-Oxford extension (EC5); with 2.004 the exchange
     enhancement tops 2.46 inside the domain and EC5 must be refuted. *)
  print_endline "=== Gate 2: mutant kappa = 2.004 (digit slip; breaks EC5) ===";
  let mutant_kappa =
    {
      pbe with
      Registry.name = "pbe-kappa2";
      label = "pbe-kappa2";
      eps_x =
        Some
          (Expr.mul Uniform.eps_x
             (Gga_pbe.f_x_with ~kappa:2.004 ~mu:Gga_pbe.mu));
      description = "mutant of pbe";
    }
  in
  List.iter (gate "pbe-kappa2" mutant_kappa) [ Conditions.Ec1; Conditions.Ec5 ];
  print_newline ();

  (* Mutant B: the gradient correction H applied twice (a classic
     double-counting bug). Since H -> -eps_c^PW92 at large reduced
     gradients, eps_c = PW92 + 2H tends to -eps_c^PW92 > 0 there: EC1 must
     be refuted at high s. *)
  print_endline "=== Gate 3: mutant with H applied twice (breaks EC1) ===";
  let mutant_2h =
    {
      pbe with
      Registry.name = "pbe-2h";
      label = "pbe-2h";
      eps_c =
        Some
          (Expr.add Lda_pw92.eps_c
             (Expr.mul Expr.two Gga_pbe.h_term));
      description = "mutant of pbe";
    }
  in
  List.iter (gate "pbe-2h" mutant_2h) [ Conditions.Ec1 ];
  print_newline ();

  (* Mutant C: a transcription bug in the PW92 substrate that PBE
     correlation is built on — alpha_1 = 0.2137 typed as 0.2237. The Mutate
     module rewrites the literal constant inside the hash-consed
     implementation DAG. No exact condition flips: the perturbed PW92 is
     still negative and monotone, so the verifier correctly keeps the build
     green even though the mutant is numerically wrong everywhere. *)
  print_endline "=== Gate 4: mutant PW92 alpha1 +0.01 (stays green: conditions";
  print_endline "    are necessary, not sufficient, for correctness) ===";
  let mutant_a1 =
    Mutate.mutant_of pbe ~name:"pbe-a1typo" ~mutate:(fun e ->
        let e', n =
          Mutate.tweak_constant ~from_const:0.2137 ~to_const:0.2237 e
        in
        if n > 0 then Format.printf "  (rewrote %d constant site(s))@." n;
        e')
  in
  (* the mutant really is a different function *)
  let delta_at_1 =
    Eval.eval
      [ (Dft_vars.rs_name, 1.0); (Dft_vars.s_name, 0.0) ]
      (Option.get mutant_a1.Registry.eps_c)
    -. Gga_pbe.eps_c_at ~rs:1.0 ~s:0.0
  in
  Format.printf "  (mutant shifts eps_c(1, 0) by %+.2e Ha)@." delta_at_1;
  List.iter (gate "pbe-a1typo" mutant_a1) [ Conditions.Ec1; Conditions.Ec5 ];
  print_newline ();

  print_endline
    "A CI hook would run the applicable conditions for each changed\n\
     functional and fail the build on any new X verdict, attaching the\n\
     certified counterexample from the Witness module."
