open Testutil

let fast_config =
  {
    Verify.default_config with
    threshold = 0.7;
    solver =
      { Icp.default_config with fuel = 300; delta = 1e-3; contractor_rounds = 2 };
    deadline_seconds = Some 15.0;
    use_taylor = false;
  }

let outcome dfa cond =
  Option.get (Xcverifier.verify ~config:fast_config ~dfa ~condition:cond ())

let pb dfa cond =
  Option.get (Pbcheck.check ~n:40 (Registry.find dfa) (Conditions.of_name cond))

let test_consistent_refutation () =
  (* LYP EC1: both methods find violations in the same region. *)
  let o = outcome "lyp" "ec1" and p = pb "lyp" "ec1" in
  let c, overlap = Report.consistency_of o p in
  check_true "consistent" (c = Report.Consistent);
  check_true
    (Printf.sprintf "PB violations inside flagged regions (%.2f)" overlap)
    (overlap > 0.9)

let test_not_inconsistent () =
  (* VWN EC1: verifier proves it, PB sees no violations. *)
  let o = outcome "vwn_rpa" "ec1" and p = pb "vwn_rpa" "ec1" in
  let c, _ = Report.consistency_of o p in
  check_true "not inconsistent" (c = Report.Not_inconsistent)

let test_undecidable () =
  let o =
    let base = outcome "pbe" "ec2" in
    (* Fabricate an all-timeout outcome to exercise the ? symbol. *)
    {
      base with
      Outcome.regions =
        [
          {
            Outcome.box = base.Outcome.domain;
            status = Outcome.Timeout;
            depth = 0;
          };
        ];
    }
  in
  let p = pb "pbe" "ec2" in
  let c, _ = Report.consistency_of o p in
  check_true "undecidable" (c = Report.Undecidable)

let test_table1_layout () =
  let outcomes = [ outcome "lyp" "ec1"; outcome "vwn_rpa" "ec1" ] in
  let t = Report.table1 outcomes in
  check_true "has header" (String.length t > 200);
  (* LYP column carries an X on the EC1 row; missing pairs are dashes *)
  let lines = String.split_on_char '\n' t in
  let ec1_row =
    List.find
      (fun l ->
        String.length l > 10 && String.sub l 0 10 = "E_c non-po")
      lines
  in
  check_true "X in EC1 row" (String.contains ec1_row 'X');
  let ec3_row =
    List.find
      (fun l -> String.length l > 10 && String.sub l 0 6 = "U_c mo")
      lines
  in
  check_true "dashes for unrun pairs" (String.contains ec3_row '-')

let test_table2_layout () =
  let outcomes = [ outcome "lyp" "ec1" ] in
  let pbs = [ pb "lyp" "ec1" ] in
  let t = Report.table2 outcomes pbs in
  check_true "has content" (String.length t > 200);
  check_true "contains consistency symbol" (String.contains t 'C')

let test_paper_reference_table () =
  (* the reference data encodes all 29 applicable pairs + 6 dashes *)
  Alcotest.(check int) "35 cells" 35 (List.length Report.paper_table1);
  let dashes =
    List.length (List.filter (fun (_, c) -> c = "-") Report.paper_table1)
  in
  Alcotest.(check int) "6 not-applicable" 6 dashes;
  (* the paper's headline numbers: 13 decided, 7 partial, 9 timeouts *)
  let count sym =
    List.length (List.filter (fun (_, c) -> c = sym) Report.paper_table1)
  in
  Alcotest.(check int) "9 timeouts" 9 (count "?");
  Alcotest.(check int) "7 partials" 7 (count "OK*");
  Alcotest.(check int) "13 decided" 13 (count "OK" + count "X")

let test_symbols () =
  Alcotest.(check string) "consistent" "C"
    (Report.consistency_symbol Report.Consistent);
  Alcotest.(check string) "not inconsistent" "C*"
    (Report.consistency_symbol Report.Not_inconsistent);
  Alcotest.(check string) "undecidable" "?"
    (Report.consistency_symbol Report.Undecidable);
  Alcotest.(check string) "inconsistent" "!"
    (Report.consistency_symbol Report.Inconsistent)

let test_pb_map_render () =
  let p = pb "lyp" "ec1" in
  let map = Render.pb_map ~nx:24 ~ny:8 p in
  check_true "violations rendered" (String.contains map '#');
  check_true "passes rendered" (String.contains map '.')

let test_figure_layout () =
  let o = outcome "lyp" "ec1" and p = pb "lyp" "ec1" in
  let fig = Render.figure ~title:"LYP / ec1" ~pb:(Some p) o in
  check_true "mentions PB section"
    (String.length fig > 0
    && contains_sub fig "PB grid search");
  check_true "mentions verifier section"
    (contains_sub fig "XCVerifier")

let suite =
  [
    case "consistent refutation (LYP)" test_consistent_refutation;
    case "not-inconsistent (VWN)" test_not_inconsistent;
    case "undecidable symbol" test_undecidable;
    case "Table I layout" test_table1_layout;
    case "Table II layout" test_table2_layout;
    case "paper reference cells" test_paper_reference_table;
    case "consistency symbols" test_symbols;
    case "PB map rendering" test_pb_map_render;
    case "figure layout" test_figure_layout;
  ]
