open Testutil

let config =
  {
    Verify.default_config with
    threshold = 0.3;
    solver =
      { Icp.default_config with fuel = 300; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 15.0;
    use_taylor = false;
  }

let lyp_ec1 () =
  let lyp = Registry.find "lyp" in
  let p = Option.get (Encoder.encode lyp Conditions.Ec1) in
  let o = Verify.run ~config p in
  (p, o)

let test_extract_certified () =
  let p, o = lyp_ec1 () in
  let cert, dropped = Witness.extract p o in
  check_true "witnesses found" (cert.Witness.witnesses <> []);
  Alcotest.(check int) "none dropped" 0 dropped;
  List.iter
    (fun (w : Witness.witness) ->
      check_true "psi negative at witness" (w.Witness.psi_value < 0.0);
      check_true "enclosure contains float value"
        (Interval.mem w.Witness.psi_value w.Witness.enclosure
        || Float.abs
             (w.Witness.psi_value -. Interval.midpoint w.Witness.enclosure)
           < 1e-9);
      (* LYP EC1 violations are O(0.01) — far from rounding noise, so every
         witness should be interval-certified *)
      check_true "certified" (w.Witness.strength = Witness.Certified);
      (* the witness must lie in the domain *)
      check_true "inside domain" (Box.mem w.Witness.point p.Encoder.domain))
    cert.Witness.witnesses

let test_recheck () =
  let p, o = lyp_ec1 () in
  let cert, _ = Witness.extract p o in
  check_true "recheck passes" (Witness.recheck cert p);
  (* a tampered witness must fail recheck *)
  let tampered =
    {
      cert with
      Witness.witnesses =
        List.map
          (fun (w : Witness.witness) ->
            { w with Witness.point = [ ("rs", 1.0); ("s", 0.1) ] })
          cert.Witness.witnesses;
    }
  in
  check_false "tampered witness rejected" (Witness.recheck tampered p)

let test_no_witness_for_verified () =
  let vwn = Registry.find "vwn_rpa" in
  let p = Option.get (Encoder.encode vwn Conditions.Ec1) in
  let o = Verify.run ~config p in
  let cert, dropped = Witness.extract p o in
  Alcotest.(check int) "no witnesses" 0 (List.length cert.Witness.witnesses);
  Alcotest.(check int) "none dropped" 0 dropped;
  check_false "empty certificate does not recheck" (Witness.recheck cert p)

let test_pp () =
  let p, o = lyp_ec1 () in
  let cert, _ = Witness.extract p o in
  let s = Format.asprintf "%a" Witness.pp cert in
  check_true "mentions dfa" (contains_sub s "LYP");
  check_true "mentions certification" (contains_sub s "certified")

let suite =
  [
    case "extract certified witnesses (LYP EC1)" test_extract_certified;
    case "recheck accepts genuine, rejects tampered" test_recheck;
    case "verified outcome yields empty certificate" test_no_witness_for_verified;
    case "pretty printing" test_pp;
  ]
