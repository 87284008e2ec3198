(* Numerical issues in DFA implementations (paper Section VI-C).

   The discussion section singles out the Perdew-Zunger 1981 LDA
   parametrization: its two independently fitted pieces meet at rs = 1 with
   "potentially inaccurate numerical constants that lead to discontinuities
   of the exchange-correlation energy at a given matching point".

   This example quantifies that defect with the tools of this library:

   1. symbolic one-sided derivatives at the matching point,
   2. an interval enclosure of the jump (proving it is nonzero — a formal
      certificate that the implementation is not C^1),
   3. the effect on the exact-condition checks: EC2 needs dF_c/drs, and a
      derivative discontinuity shows up in the solver's behaviour on boxes
      straddling rs = 1.

   Run with:  dune exec examples/pz81_discontinuity.exe *)

let rs_n = Dft_vars.rs_name

let () =
  print_endline "=== PZ81 at the rs = 1 matching point ===";
  Format.printf "eps_c(1 - 1e-7) = %.10f@." (Lda_pz81.eps_c_at 0.9999999);
  Format.printf "eps_c(1 + 1e-7) = %.10f@." (Lda_pz81.eps_c_at 1.0000001);
  Format.printf "value jump      ~ %.3e Ha (nearly continuous)@."
    (Float.abs (Lda_pz81.eps_c_at 0.9999999 -. Lda_pz81.eps_c_at 1.0000001));
  Format.printf "derivative jump = %.6e Ha/bohr (NOT C^1)@.@."
    (Lda_pz81.derivative_jump_at_matching_point ());

  (* Interval certificate: enclose d eps/d rs on a shrinking box around 1
     from each side; the enclosures separate, proving the jump. *)
  print_endline "=== Interval certificate of the derivative jump ===";
  let d = Deriv.diff ~wrt:rs_n Lda_pz81.eps_c in
  let enclose lo hi = Ieval.eval [ (rs_n, Interval.make lo hi) ] d in
  let eps = 1e-6 in
  let left = enclose (1.0 -. eps) (1.0 -. (eps /. 2.0)) in
  let right = enclose (1.0 +. (eps /. 2.0)) (1.0 +. eps) in
  Format.printf "d/drs over [1-1e-6, 1-5e-7]: %a@." Interval.pp left;
  Format.printf "d/drs over [1+5e-7, 1+1e-6]: %a@." Interval.pp right;
  if Interval.sup right < Interval.inf left then
    Format.printf
      "certified: the one-sided derivatives are separated by >= %.3e@.@."
      (Interval.inf left -. Interval.sup right)
  else Format.printf "enclosures overlap at this radius@.@.";

  (* Contrast with PW92, which was *designed* to interpolate smoothly. *)
  print_endline "=== PW92 has no such seam ===";
  let d92 = Deriv.diff ~wrt:rs_n Lda_pw92.eps_c in
  let e92 lo hi = Ieval.eval [ (rs_n, Interval.make lo hi) ] d92 in
  let l92 = e92 (1.0 -. eps) (1.0 -. (eps /. 2.0)) in
  let r92 = e92 (1.0 +. (eps /. 2.0)) (1.0 +. eps) in
  Format.printf "PW92 d/drs left : %a@." Interval.pp l92;
  Format.printf "PW92 d/drs right: %a@." Interval.pp r92;
  Format.printf "overlap: %b (smooth)@.@."
    (not (Interval.is_empty (Interval.meet l92 r92)));

  (* Condition checks still pass for PZ81 despite the seam. *)
  print_endline "=== Exact conditions for PZ81 ===";
  let pz = Registry.find "pz81" in
  let config =
    {
      Verify.default_config with
      threshold = 0.15625;
      solver = { Icp.default_config with fuel = 500; contractor_rounds = 3 };
      deadline_seconds = Some 10.0;
      use_taylor = false;
    }
  in
  List.iter
    (fun cond ->
      match Verify.run_pair ~config pz cond with
      | Some o -> Format.printf "%a@." Outcome.pp_summary o
      | None -> ())
    (Conditions.applicable pz)
