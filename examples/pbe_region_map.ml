(* PBE region maps — the paper's Figure 1 scenario.

   PBE is a non-empirical GGA and mostly satisfies the exact conditions it
   was constructed around, with one famous exception: the conjectured T_c
   upper bound (EC7), violated over a large upper-left region of the
   (rs, s) plane (Figure 1f). This example renders the PB-vs-XCVerifier
   figure for every applicable PBE condition.

   Run with:  dune exec examples/pbe_region_map.exe
   (set XCV_FAST=1 to use a coarser, faster configuration) *)

let fast = Sys.getenv_opt "XCV_FAST" <> None

let config =
  if fast then Verify.quick_config
  else
    {
      Verify.default_config with
      threshold = 0.15625;
      solver =
        {
          Icp.default_config with
          fuel = 800;
          delta = 1e-3;
          contractor_rounds = 3;
        };
      deadline_seconds = Some 45.0;
      use_taylor = false;
    }

let () =
  let pbe = Registry.find "pbe" in
  Format.printf "Functional: %a@.@." Registry.pp pbe;
  List.iter
    (fun cond ->
      let outcome = Option.get (Verify.run_pair ~config pbe cond) in
      let pb = Pbcheck.check ~n:80 pbe cond in
      let title =
        Printf.sprintf "PBE / %s (Eq. %d)" (Conditions.label cond)
          (Conditions.equation cond)
      in
      print_string (Render.figure ~title ~pb outcome);
      (match pb with
      | Some pb ->
          let c, overlap = Report.consistency_of outcome pb in
          Format.printf "consistency with PB: %s (overlap %.0f%%)@.@."
            (Report.consistency_symbol c)
            (100.0 *. overlap)
      | None -> ());
      print_newline ())
    (Conditions.applicable pbe);
  print_endline
    "Paper reference (Table I, PBE column): EC1 OK*, EC2 OK*, EC3 ?,\n\
     EC6 OK*, EC7 X (large upper-left counterexample region), LO OK*,\n\
     LO-extension OK."
