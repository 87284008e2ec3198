(* Spin-polarized verification — extension beyond the paper's zeta = 0 slice.

   LibXC functionals are spin-resolved; the paper (following Pederson &
   Burke) verifies the spin-unpolarized slice. This example uses the full
   spin machinery of the [Spin] module to check the correlation
   non-positivity condition EC1 for the spin-resolved PBE over the
   three-dimensional (rs, s, zeta) domain, and the exchange non-positivity
   over the same space — demonstrating that Algorithm 1 is agnostic to
   where the condition comes from (via Verify.run_custom).

   Run with:  dune exec examples/spin_polarized.exe *)

let rs_n = Dft_vars.rs_name
let s_n = Dft_vars.s_name

let () =
  print_endline "=== Spin-resolved PBE: reduction checks ===";
  List.iter
    (fun (rs, s) ->
      Printf.printf
        "  eps_c(rs=%g, s=%g): zeta=0 %+0.6f (unpolarized %+0.6f) | \
         zeta=0.7 %+0.6f | zeta=1 %+0.6f\n"
        rs s
        (Spin.eval3 ~rs ~s ~zeta:0.0 Spin.eps_c_pbe_spin)
        (Gga_pbe.eps_c_at ~rs ~s)
        (Spin.eval3 ~rs ~s ~zeta:0.7 Spin.eps_c_pbe_spin)
        (Spin.eval3 ~rs ~s ~zeta:0.9999 Spin.eps_c_pbe_spin))
    [ (0.5, 0.5); (1.0, 1.0); (3.0, 2.0) ];
  print_newline ();

  let nonneg_vars = [ rs_n; s_n; Spin.zeta_name ] in
  let domain =
    Box.make
      [
        (rs_n, Interval.make 0.0001 5.0);
        (s_n, Interval.make 0.0 5.0);
        (* zeta in [0, 0.95]: the zeta -> 1 edge needs ferromagnetic-limit
           care (log of vanishing channel densities) and is excluded as in
           standard practice *)
        (Spin.zeta_name, Interval.make 0.0 0.95);
      ]
  in
  let config =
    {
      Verify.default_config with
      threshold = 0.4;
      solver =
        { Icp.default_config with fuel = 400; delta = 1e-3; contractor_rounds = 2 };
      deadline_seconds = Some 60.0;
      use_taylor = false;
    }
  in

  print_endline "=== EC1 (eps_c <= 0) for spin-resolved PBE over (rs, s, zeta) ===";
  let f_c = Enhancement.f_of Spin.eps_c_pbe_spin in
  let psi = Form.ge (Simplify.with_nonneg nonneg_vars f_c) in
  let outcome =
    Verify.run_custom ~config ~dfa_label:"PBE(zeta)" ~condition_label:"ec1"
      ~domain ~psi ()
  in
  Format.printf "%a@." Outcome.pp_summary outcome;
  print_string (Render.outcome_map ~nx:40 ~ny:12 outcome);
  print_newline ();

  print_endline "=== Exchange non-positivity (eps_x <= 0 <=> F_x >= 0) ===";
  let f_x_spin =
    Simplify.with_nonneg nonneg_vars
      (Expr.div Spin.eps_x_pbe_spin Uniform.eps_x)
  in
  let outcome_x =
    Verify.run_custom ~config ~dfa_label:"PBE(zeta)" ~condition_label:"x-nonpos"
      ~domain ~psi:(Form.ge f_x_spin) ()
  in
  Format.printf "%a@." Outcome.pp_summary outcome_x;
  print_newline ();
  print_endline
    "Spin scaling and the PW92 three-channel interpolation are validated\n\
     against their unpolarized limits in the test suite (test_spin.ml)."
