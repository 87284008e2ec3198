open Testutil

(* Killed-mutant regression suite — the paper's Section VI-B CI vision as
   executable tests. For each functional a small implementation bug (sign
   flip, wrong prefactor, mistyped constant) is injected with [Mutate]; the
   verifier must flip the pair from not-refuted to refuted (the mutant is
   "killed"), while the pristine implementation stays clean on the very same
   configuration (zero false kills). *)

let config =
  {
    Verify.default_config with
    threshold = 0.3;
    solver =
      { Icp.default_config with fuel = 400; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 30.0;
    workers = test_workers;
    use_taylor = false;
    retry = { Verify.max_retries = 2; fuel_growth = 2 };
  }

let refuted o = Outcome.classify o = Outcome.Refuted

let check_kill ~pristine ~mutant cond =
  (match Verify.run_pair ~config pristine cond with
  | None -> Alcotest.failf "%s does not apply to %s" (Conditions.name cond) pristine.Registry.name
  | Some o ->
      check_false
        (Printf.sprintf "pristine %s not refuted on %s (false kill)"
           pristine.Registry.name (Conditions.name cond))
        (refuted o));
  match Verify.run_pair ~config mutant cond with
  | None -> Alcotest.failf "%s does not apply to mutant" (Conditions.name cond)
  | Some o ->
      check_true
        (Printf.sprintf "mutant %s refuted on %s" mutant.Registry.name
           (Conditions.name cond))
        (refuted o)

(* PZ81 with the gamma prefactor's sign flipped: eps_c becomes positive on
   the whole rs >= 1 branch, violating correlation non-positivity (EC1).
   One-dimensional, so fast enough for the quick tier. *)
let test_pz81_sign_flip () =
  let pz81 = Registry.find "pz81" in
  let mutant =
    Mutate.mutant_of pz81 ~name:"pz81-gamma-sign" ~mutate:(fun e ->
        let e', n =
          Mutate.tweak_constant ~from_const:(-0.1423) ~to_const:0.1423 e
        in
        check_true "gamma site found" (n > 0);
        e')
  in
  check_kill ~pristine:pz81 ~mutant Conditions.Ec1

(* PBE with the gradient correction applied twice (every additive term of
   eps_c mentioning s doubled): at large reduced gradient eps_c tends to
   -eps_c^PW92 > 0, breaking EC1 — the ci_mutation example's "2H" bug. *)
let test_pbe_double_gradient_term () =
  let pbe = Registry.find "pbe" in
  let mutant =
    Mutate.mutant_of pbe ~name:"pbe-2h" ~mutate:(fun e ->
        Mutate.scale_term ~factor:2.0 ~containing:Dft_vars.s_name e)
  in
  check_kill ~pristine:pbe ~mutant Conditions.Ec1

(* LYP is refuted on EC1 over the paper's full domain (Table I), so the
   full-domain kill check cannot distinguish mutant from pristine. Restrict
   to rs in [0.5, 3], s in [0, 1] — safely below the s ~ 1.66 violation
   onset — where pristine LYP verifies; flipping the sign of the a = 0.04918
   prefactor makes eps_c positive everywhere, so the mutant is refuted even
   there. *)
let lyp_subdomain =
  Box.make
    [
      (Dft_vars.rs_name, Interval.make 0.5 3.0);
      (Dft_vars.s_name, Interval.make 0.0 1.0);
    ]

let run_lyp_on_subdomain (dfa : Registry.t) =
  match Encoder.encode dfa Conditions.Ec1 with
  | None -> Alcotest.fail "EC1 applies to LYP"
  | Some p ->
      Verify.run_custom ~config ~dfa_label:dfa.Registry.label
        ~condition_label:(Conditions.name Conditions.Ec1)
        ~domain:lyp_subdomain ~psi:p.Encoder.psi ()

let test_lyp_prefactor_sign_flip () =
  let lyp = Registry.find "lyp" in
  let mutant =
    Mutate.mutant_of lyp ~name:"lyp-a-sign" ~mutate:(fun e ->
        (* the smart constructors may have folded [neg (a / denom)] into a
           negative literal, so try the constant under either sign *)
        let e', n = Mutate.flip_constant_sign 0.04918 e in
        let e', n =
          if n > 0 then (e', n) else Mutate.flip_constant_sign (-0.04918) e
        in
        check_true "a site found" (n > 0);
        e')
  in
  check_false "pristine LYP not refuted on subdomain (false kill)"
    (refuted (run_lyp_on_subdomain lyp));
  check_true "LYP sign mutant refuted on subdomain"
    (refuted (run_lyp_on_subdomain mutant))

(* VWN-RPA with the overall prefactor a = 0.0310907 sign-flipped: eps_c is
   a times a bracket that is negative on the whole rs domain, so the mutant
   is positive everywhere and EC1 refutes it at once. One-dimensional, so
   quick-tier like the PZ81 case. *)
let test_vwn_rpa_prefactor_sign_flip () =
  let vwn = Registry.find "vwn_rpa" in
  let mutant =
    Mutate.mutant_of vwn ~name:"vwn-rpa-a-sign" ~mutate:(fun e ->
        let e', n = Mutate.flip_constant_sign 0.0310907 e in
        let e', n =
          if n > 0 then (e', n) else Mutate.flip_constant_sign (-0.0310907) e
        in
        check_true "a site found" (n > 0);
        e')
  in
  check_kill ~pristine:vwn ~mutant Conditions.Ec1

(* AM05 with the correlation mixing constant gamma_c = 0.8098 sign-flipped:
   the interpolation factor X + gamma_c (1 - X) drops from [gamma_c, 1]
   to negative values once X = 1/(1 + 2.804 s^2) < 0.45, i.e. for
   s >~ 0.66 — multiplying the negative PW92 eps_c into positive territory
   over most of the (rs, s) domain, which EC1 refutes quickly. *)
let test_am05_gamma_sign_flip () =
  let am05 = Registry.find "am05" in
  let mutant =
    Mutate.mutant_of am05 ~name:"am05-gamma-sign" ~mutate:(fun e ->
        let e', n = Mutate.flip_constant_sign 0.8098 e in
        check_true "gamma_c site found" (n > 0);
        e')
  in
  check_kill ~pristine:am05 ~mutant Conditions.Ec1

(* SCAN with b1c = 0.0285764 sign-flipped (all three literal sites, i.e.
   the consistent b1c := -b1c typo): the single-orbital limit eps_lda0
   becomes +b1c/(1 + b2c sqrt(rs) + b3c rs) > 0, and at small alpha the
   interpolation eps_c1 + f_c(alpha) (eps_c0 - eps_c1) is dominated by the
   now-positive eps_c0, so eps_c > 0 in the alpha -> 0 pocket. Three
   dimensions are expensive, so the check runs on a subdomain around that
   pocket with a coarse threshold; pristine SCAN stays unrefuted there
   (boxes the solver cannot prove in budget time out, which classifies as
   unknown, never as a kill). *)
let scan_config = { config with Verify.threshold = 1.0 }

let scan_subdomain =
  Box.make
    [
      (Dft_vars.rs_name, Interval.make 0.5 3.0);
      (Dft_vars.s_name, Interval.make 0.0 2.0);
      (Dft_vars.alpha_name, Interval.make 0.0 2.0);
    ]

let run_scan_on_subdomain (dfa : Registry.t) =
  match Encoder.encode dfa Conditions.Ec1 with
  | None -> Alcotest.fail "EC1 applies to SCAN"
  | Some p ->
      Verify.run_custom ~config:scan_config ~dfa_label:dfa.Registry.label
        ~condition_label:(Conditions.name Conditions.Ec1)
        ~domain:scan_subdomain ~psi:p.Encoder.psi ()

let test_scan_b1c_sign_flip () =
  let scan = Registry.find "scan" in
  (* [mutant_of] runs the mutation over eps_c and eps_x alike; b1c lives
     only in the correlation part, so count sites across both passes. *)
  let sites = ref 0 in
  let mutant =
    Mutate.mutant_of scan ~name:"scan-b1c-sign" ~mutate:(fun e ->
        (* the smart constructors folded one site's negation into the
           literal, so the expression holds both +b1c and -b1c; flip by
           magnitude to apply the consistent b1c := -b1c typo *)
        let e', n = Mutate.flip_constant_magnitude 0.0285764 e in
        sites := !sites + n;
        e')
  in
  check_true "b1c sites found" (!sites > 0);
  check_false "pristine SCAN not refuted on subdomain (false kill)"
    (refuted (run_scan_on_subdomain scan));
  check_true "SCAN b1c sign mutant refuted on subdomain"
    (refuted (run_scan_on_subdomain mutant))

let suite =
  [
    case "PZ81 gamma sign flip killed on EC1" test_pz81_sign_flip;
    case "VWN-RPA prefactor sign flip killed on EC1"
      test_vwn_rpa_prefactor_sign_flip;
    slow_case "PBE doubled gradient term killed on EC1"
      test_pbe_double_gradient_term;
    slow_case "LYP prefactor sign flip killed on EC1"
      test_lyp_prefactor_sign_flip;
    slow_case "AM05 gamma_c sign flip killed on EC1"
      test_am05_gamma_sign_flip;
    slow_case "SCAN b1c sign flip killed on EC1" test_scan_b1c_sign_flip;
  ]
