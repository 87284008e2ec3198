open Testutil

let rs_n = Dft_vars.rs_name
let s_n = Dft_vars.s_name
let a_n = Dft_vars.alpha_name

let test_metadata () =
  Alcotest.(check int) "seven conditions" 7 (List.length Conditions.all);
  List.iter
    (fun c ->
      check_true "name round-trips"
        (Conditions.of_name (Conditions.name c) = c))
    Conditions.all;
  Alcotest.check_raises "unknown name" Not_found (fun () ->
      ignore (Conditions.of_name "ec9"));
  Alcotest.(check int) "EC1 is equation 4" 4 (Conditions.equation Conditions.Ec1);
  Alcotest.(check int) "EC7 is equation 10" 10 (Conditions.equation Conditions.Ec7)

let test_applicability () =
  let pbe = Registry.find "pbe" and lyp = Registry.find "lyp" in
  let scan = Registry.find "scan" and vwn = Registry.find "vwn_rpa" in
  let am05 = Registry.find "am05" in
  check_true "LO applies to PBE" (Conditions.applies Conditions.Ec4 pbe);
  check_true "LO applies to SCAN" (Conditions.applies Conditions.Ec5 scan);
  check_false "LO not for LYP" (Conditions.applies Conditions.Ec4 lyp);
  check_false "LO not for AM05" (Conditions.applies Conditions.Ec5 am05);
  check_false "LO not for VWN" (Conditions.applies Conditions.Ec4 vwn);
  Alcotest.(check int) "PBE gets all 7" 7
    (List.length (Conditions.applicable pbe));
  Alcotest.(check int) "LYP gets 5" 5 (List.length (Conditions.applicable lyp));
  (* The paper's 29 applicable pairs over the five DFAs. *)
  Alcotest.(check int) "29 pairs" 29
    (Conditions.count_pairs Registry.paper_five)

(* The local-condition encodings must agree with direct numeric evaluation
   of the defining formulas (using dual-number derivatives as the
   independent oracle). *)
let check_encoding_at dfa cond env =
  match Conditions.local_condition cond dfa with
  | None -> ()
  | Some atom ->
      let encoded = Eval.eval env atom.Form.expr in
      let f_c = Enhancement.f_of (Option.get dfa.Registry.eps_c) in
      let rs = List.assoc rs_n env in
      let fc = Eval.eval env f_c in
      let dfc = (Dual.eval env ~wrt:rs_n f_c).Dual.d in
      let d2fc =
        let d1 = Deriv.diff ~wrt:rs_n f_c in
        (Dual.eval env ~wrt:rs_n d1).Dual.d
      in
      let reference =
        match cond with
        | Conditions.Ec1 -> fc
        | Conditions.Ec2 -> dfc
        | Conditions.Ec3 -> (rs *. d2fc) +. (2.0 *. dfc)
        | Conditions.Ec4 ->
            let fxc =
              Eval.eval env
                (Enhancement.f_of (Option.get (Registry.eps_xc dfa)))
            in
            2.27 -. fxc -. (rs *. dfc)
        | Conditions.Ec5 ->
            let fxc =
              Eval.eval env
                (Enhancement.f_of (Option.get (Registry.eps_xc dfa)))
            in
            2.27 -. fxc
        | Conditions.Ec6 ->
            let fc_inf =
              Eval.eval
                ((rs_n, Enhancement.rs_infinity)
                :: List.remove_assoc rs_n env)
                f_c
            in
            fc_inf -. fc -. (rs *. dfc)
        | Conditions.Ec7 -> fc -. (rs *. dfc)
      in
      check_close ~tol:1e-6
        (Printf.sprintf "%s/%s at rs=%g" dfa.Registry.label
           (Conditions.name cond) rs)
        reference encoded

let encoding_cases =
  let envs_2d =
    [
      [ (rs_n, 0.5); (s_n, 0.3) ];
      [ (rs_n, 1.0); (s_n, 2.0) ];
      [ (rs_n, 4.0); (s_n, 4.5) ];
    ]
  in
  let envs_3d =
    List.map (fun e -> (a_n, 0.7) :: e) envs_2d
    @ [ [ (rs_n, 1.5); (s_n, 1.0); (a_n, 2.5) ] ]
  in
  List.map
    (fun name ->
      let dfa = Registry.find name in
      let envs =
        match dfa.Registry.family with
        | Registry.Mgga -> envs_3d
        | _ -> envs_2d
      in
      case (Printf.sprintf "%s encodings match numeric oracle" name)
        (fun () ->
          List.iter
            (fun cond ->
              List.iter (fun env -> check_encoding_at dfa cond env) envs)
            (Conditions.applicable dfa)))
    [ "pbe"; "lyp"; "am05"; "vwn_rpa"; "scan" ]

let test_known_satisfaction () =
  (* Spot checks the paper's qualitative findings at concrete points. *)
  let holds dfa cond env =
    let atom = Option.get (Conditions.local_condition cond (Registry.find dfa)) in
    Form.holds_at env atom
  in
  (* LYP violates EC1 at high s, satisfies at low s *)
  check_true "LYP EC1 ok at s=0.5" (holds "lyp" Conditions.Ec1 [ (rs_n, 1.0); (s_n, 0.5) ]);
  check_false "LYP EC1 violated at s=3" (holds "lyp" Conditions.Ec1 [ (rs_n, 1.0); (s_n, 3.0) ]);
  (* PBE satisfies EC1 everywhere *)
  check_true "PBE EC1 at s=4" (holds "pbe" Conditions.Ec1 [ (rs_n, 0.5); (s_n, 4.0) ]);
  (* PBE violates the conjectured Tc bound (EC7) in the upper-left *)
  check_false "PBE EC7 violated at small rs, high s"
    (holds "pbe" Conditions.Ec7 [ (rs_n, 0.05); (s_n, 4.0) ]);
  check_true "PBE EC7 ok at large rs, small s"
    (holds "pbe" Conditions.Ec7 [ (rs_n, 4.0); (s_n, 0.2) ]);
  (* VWN RPA satisfies all its conditions at a generic point *)
  List.iter
    (fun cond ->
      check_true
        (Printf.sprintf "VWN %s at rs=2" (Conditions.name cond))
        (holds "vwn_rpa" cond [ (rs_n, 2.0) ]))
    (Conditions.applicable (Registry.find "vwn_rpa"))

let test_domain_spec () =
  let pbe_box = Domain_spec.box_for (Registry.find "pbe") in
  Alcotest.(check int) "PBE domain is 2D" 2 (Box.dim pbe_box);
  check_close "rs lower" 0.0001 (Interval.inf (Box.get pbe_box rs_n));
  check_close "s upper" 5.0 (Interval.sup (Box.get pbe_box s_n));
  let scan_box = Domain_spec.box_for (Registry.find "scan") in
  Alcotest.(check int) "SCAN domain is 3D" 3 (Box.dim scan_box);
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Domain_spec: unknown variable \"q\"") (fun () ->
      ignore (Domain_spec.box_for_vars [ "q" ]))

let test_encoder () =
  let pbe = Registry.find "pbe" in
  let p = Option.get (Encoder.encode pbe Conditions.Ec1) in
  check_true "psi is a >= atom" (p.Encoder.psi.Form.rel = Form.Ge0);
  (match p.Encoder.negated with
  | [ a ] -> check_true "negation is <" (a.Form.rel = Form.Lt0)
  | _ -> Alcotest.fail "single negated atom");
  check_true "operation count positive" (Encoder.operation_count p > 10);
  Alcotest.(check (option reject)) "EC4 not for LYP" None
    (Encoder.encode (Registry.find "lyp") Conditions.Ec4);
  Alcotest.(check int) "29 problems for paper five" 29
    (List.length (Encoder.encode_all Registry.paper_five))

let test_extra_conditions () =
  Alcotest.(check int) "two extension conditions" 2
    (List.length Extra_conditions.all);
  check_true "x1 round-trips"
    (Extra_conditions.of_name "x1" = Extra_conditions.X_nonpos);
  Alcotest.check_raises "unknown extra" Not_found (fun () ->
      ignore (Extra_conditions.of_name "x9"));
  (* applicability: exchange-carrying functionals only *)
  check_true "applies to PBE"
    (Extra_conditions.applies Extra_conditions.X_lo (Registry.find "pbe"));
  check_false "not to LYP"
    (Extra_conditions.applies Extra_conditions.X_lo (Registry.find "lyp"));
  Alcotest.(check int) "six exchange functionals" 6
    (List.length (Extra_conditions.exchange_functionals ()));
  (* encodings evaluate to the expected margins *)
  let pbe = Registry.find "pbe" in
  let x2 =
    Option.get (Extra_conditions.local_condition Extra_conditions.X_lo pbe)
  in
  let margin s =
    Eval.eval [ (rs_n, 1.0); (s_n, s) ] x2.Form.expr
  in
  (* PBE F_x(0) = 1 -> margin 0.804; F_x(inf) -> 1.804 -> margin -> 0+ *)
  check_close ~tol:1e-6 "margin at s=0" 0.804 (margin 0.0);
  check_true "margin stays positive" (margin 5.0 > 0.0);
  (* B88 violates X2 at large s *)
  let b88 = Registry.find "b88" in
  let x2b =
    Option.get (Extra_conditions.local_condition Extra_conditions.X_lo b88)
  in
  check_true "B88 margin positive at s=1"
    (Eval.eval [ (rs_n, 1.0); (s_n, 1.0) ] x2b.Form.expr > 0.0);
  check_true "B88 violates at s=4.5"
    (Eval.eval [ (rs_n, 1.0); (s_n, 4.5) ] x2b.Form.expr < 0.0)

let test_extra_verification () =
  let config =
    {
      Verify.default_config with
      threshold = 0.5;
      solver =
        { Icp.default_config with fuel = 200; delta = 1e-3; contractor_rounds = 2 };
      deadline_seconds = Some 10.0;
      use_taylor = false;
    }
  in
  let run dfa cond =
    let dfa = Registry.find dfa in
    let psi = Option.get (Extra_conditions.local_condition cond dfa) in
    Verify.run_custom ~config ~dfa_label:dfa.Registry.label
      ~condition_label:(Extra_conditions.name cond)
      ~domain:(Domain_spec.box_for dfa) ~psi ()
  in
  check_true "PBE passes the exchange LO bound"
    (Outcome.classify (run "pbe" Extra_conditions.X_lo)
    = Outcome.Full_verified);
  check_true "SCAN exchange non-positive"
    (Outcome.classify (run "scan" Extra_conditions.X_nonpos)
    = Outcome.Full_verified);
  let b88 = run "b88" Extra_conditions.X_lo in
  check_true "B88 refuted on the exchange LO bound"
    (Outcome.classify b88 = Outcome.Refuted);
  match Outcome.first_counterexample b88 with
  | Some m -> check_true "violation at high s" (List.assoc s_n m > 3.0)
  | None -> Alcotest.fail "counterexample expected"

let suite =
  [
    case "metadata" test_metadata;
    case "extension conditions (X1/X2)" test_extra_conditions;
    case "extension verification incl. B88 refutation" test_extra_verification;
    case "applicability (Table I dashes)" test_applicability;
    case "known satisfaction pattern" test_known_satisfaction;
    case "domain specification" test_domain_spec;
    case "encoder" test_encoder;
  ]
  @ encoding_cases
