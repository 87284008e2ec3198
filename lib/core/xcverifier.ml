let verify ?config ~dfa ~condition () =
  let f = Registry.find dfa in
  let c = Conditions.of_name condition in
  Verify.run_pair ?config f c

let verify_all ?config ?checkpoint ?resume () =
  List.map fst
    (fst (Verify.campaign ?config ?checkpoint ?resume Registry.paper_five))

let baseline ?n ~dfa ~condition () =
  let f = Registry.find dfa in
  let c = Conditions.of_name condition in
  Pbcheck.check ?n f c

let table1 = Report.table1
let table2 = Report.table2

let figure outcome pb =
  let title =
    Printf.sprintf "%s / %s" outcome.Outcome.dfa outcome.Outcome.condition
  in
  Render.figure ~title ~pb outcome

let version = "0.1.0"
