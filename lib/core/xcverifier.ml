let verify ?config ~dfa ~condition () =
  let f = Registry.find dfa in
  let c = Conditions.of_name condition in
  Verify.run_pair ?config f c

let figure outcome pb =
  let title =
    Printf.sprintf "%s / %s" outcome.Outcome.dfa outcome.Outcome.condition
  in
  Render.figure ~title ~pb outcome

let version = "0.1.0"
