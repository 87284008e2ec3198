(* Hunting the LYP violations (the paper's Figure 2 scenario).

   LYP is the one empirical functional in the paper's evaluation, and the
   only DFA for which XCVerifier finds counterexamples to *every* applicable
   exact condition. This example reproduces that result:

   - runs Algorithm 1 for each of LYP's five applicable conditions,
   - extracts a concrete counterexample point per condition,
   - re-checks each counterexample independently in float arithmetic,
   - compares the violation boundary against the PB grid baseline and the
     paper's reported numbers (e.g. EC1 violated for s > 1.6563).

   Run with:  dune exec examples/lyp_counterexamples.exe *)

let config =
  {
    Verify.default_config with
    threshold = 0.15625;
    solver =
      { Icp.default_config with fuel = 300; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 30.0;
    use_taylor = false;
  }

let () =
  let lyp = Registry.find "lyp" in
  Format.printf "Functional: %a@.@." Registry.pp lyp;
  List.iter
    (fun cond ->
      let outcome = Option.get (Verify.run_pair ~config lyp cond) in
      Format.printf "== %s (Eq. %d) ==@." (Conditions.label cond)
        (Conditions.equation cond);
      Format.printf "%a@." Outcome.pp_summary outcome;
      (match Outcome.first_counterexample outcome with
      | Some model ->
          Format.printf "counterexample at:";
          List.iter (fun (v, x) -> Format.printf " %s = %.6g" v x) model;
          Format.printf "@.";
          (* independent recheck *)
          let atom = Option.get (Conditions.local_condition cond lyp) in
          Format.printf "float recheck: psi(%s) = %s@."
            (String.concat ", " (List.map fst model))
            (if Form.holds_at model atom then
               "HOLDS (not a real violation?)"
             else "violated, as claimed")
      | None -> Format.printf "no counterexample found@.");
      (* PB baseline comparison *)
      (match Pbcheck.check ~n:80 lyp cond with
      | Some pb ->
          Format.printf "PB baseline: %.2f%% of grid points violate%s@."
            (100.0 *. pb.Pbcheck.violation_fraction)
            (match Pbcheck.violation_boundary_s pb with
            | Some s -> Printf.sprintf " (first at s = %.4f)" s
            | None -> "")
      | None -> ());
      print_string (Render.outcome_map ~nx:40 ~ny:12 outcome);
      print_newline ())
    (Conditions.applicable lyp);
  print_endline
    "Paper reference (Table I): LYP = X for all five conditions, with the\n\
     EC1 violation region at s > 1.6563 (Fig. 2d) and the EC2 region at\n\
     rs < 2.5, s > 1.4844 (Fig. 2e)."
