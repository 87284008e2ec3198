(* End-to-end and per-layer benchmark of the verifier. See README.md.

     main.exe e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--trace-file FILE] [--json FILE] [--write-digests]
     main.exe e2e --smoke          every workload with tiny budgets
     main.exe compare A.json B.json [--benchmark BENCHMARK.json]

   The last line of an e2e run's standard output is its result object:
   {"correct", "attempted", "failed", "metrics"}. *)

let workload_names =
  List.map (fun w -> w.Campaign_load.name) Campaign_load.all @ [ Serve_load.name ]

let run_workload ctx name =
  match List.find_opt (fun w -> w.Campaign_load.name = name) Campaign_load.all with
  | Some w -> Campaign_load.run ctx w
  | None -> Serve_load.run ctx

let usage () =
  prerr_endline
    "usage: main.exe e2e --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file FILE] [--json FILE] [--write-digests] [--dir D]\n\
    \       main.exe e2e --smoke [--workload W] [--dir D]\n\
    \       main.exe compare A.json B.json [--benchmark FILE]";
  exit 2

let e2e args =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and trace_file = ref None and json = ref None in
  let smoke = ref false and write_digests = ref false and dir = ref "bench_e2e" in
  let specs =
    [
      ( "--workload",
        Arg.String
          (fun w ->
            if not (List.mem w workload_names) then
              raise (Arg.Bad ("unknown workload " ^ w ^ "; known: " ^ String.concat " " workload_names));
            workload := Some w),
        "W workload to run (default: every workload, one process each)" );
      ("--seed", Arg.Set_int seed, "N input seed (1 default, 2 holdout)");
      ("--seconds", Arg.Set_float seconds, "S measurement length");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s),
        " 1: traced run reporting the per-layer metrics" );
      ("--trace-file", Arg.String (fun f -> trace_file := Some f), "FILE where the traced run writes its spans");
      ("--json", Arg.String (fun f -> json := Some f), "FILE results file to append this run to");
      ("--smoke", Arg.Set smoke, " every workload with tiny budgets");
      ("--write-digests", Arg.Set write_digests, " re-pin the digests this run computed");
      ("--dir", Arg.Set_string dir, "D the benchmark directory (default bench_e2e)");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) (Array.of_list ("e2e" :: args)) specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "e2e"
   with Arg.Bad msg | Arg.Help msg ->
     prerr_endline msg;
     usage ());
  if !seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
  if not (Sys.file_exists (Filename.concat !dir "digests.json")) then begin
    Printf.eprintf "%s/digests.json not found: run from the repository root or pass --dir\n" !dir;
    exit 2
  end;
  match (!workload, !smoke) with
  | None, false ->
      (* every workload, each in its own process *)
      List.iter
        (fun w ->
          let pid =
            Unix.create_process Sys.executable_name
              (Array.of_list (Sys.executable_name :: "e2e" :: args @ [ "--workload"; w ]))
              Unix.stdin Unix.stdout Unix.stderr
          in
          ignore (Proc.wait_pid ~timeout_s:900. pid))
        workload_names
  | _ ->
      let work =
        Filename.concat (Filename.concat !dir "tmp") (string_of_int (Unix.getpid ()))
      in
      Proc.rm_rf work;
      Proc.mkdir_p work;
      at_exit (fun () -> try Proc.rm_rf work with _ -> ());
      (* nothing the library writes lands outside the work directory *)
      Filename.set_temp_dir_name work;
      let digests_path = Filename.concat !dir "digests.json" in
      let ctx =
        {
          Ctx.seed = !seed;
          seconds = (if !smoke then 3. else !seconds);
          traced = !trace = 1;
          smoke = !smoke;
          dir = !dir;
          work;
          pinned = Digests.load digests_path;
        }
      in
      if ctx.Ctx.traced then Spans.enable ();
      let names = match !workload with Some w -> [ w ] | None -> workload_names in
      let results =
        List.map
          (fun name ->
            let run, computed = run_workload ctx name in
            Ledger.print run;
            if ctx.Ctx.traced then begin
              let path =
                match !trace_file with
                | Some f -> f
                | None ->
                    let results = Filename.concat !dir "results" in
                    Proc.mkdir_p results;
                    Filename.concat results
                      (Printf.sprintf "%s-s%d.trace.json" name ctx.Ctx.seed)
              in
              Spans.write path;
              List.iter
                (fun (layer, s) -> Printf.printf "  self time %-22s %12.6f s\n" layer s)
                (Spans.self_seconds ());
              Printf.printf "  trace written to %s\n" path
            end;
            Option.iter (fun f -> Ledger.append f run) !json;
            (run, computed))
          names
      in
      if !write_digests then begin
        let pinned =
          List.fold_left
            (fun acc (_, computed) ->
              match computed with Some (set, kv) -> Digests.update acc set kv | None -> acc)
            (Digests.load digests_path) results
        in
        Digests.save digests_path pinned;
        Printf.printf "pinned digests written to %s\n" digests_path
      end;
      let runs = List.map fst results in
      if !smoke then begin
        (* the campaign workloads must paint identically *)
        let table1 =
          List.sort_uniq compare
            (List.filter_map
               (fun r ->
                 if r.Ledger.skipped = None && r.Ledger.workload <> Serve_load.name
                 then Some r.Ledger.digest
                 else None)
               runs)
        in
        let ok =
          List.length table1 <= 1 && List.for_all (fun r -> r.Ledger.correct) runs
        in
        Printf.printf "smoke: %s\n%!" (if ok then "ok" else "FAILED");
        if not ok then exit 1
      end
      else print_endline (Ledger.result_line (List.nth runs (List.length runs - 1)))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "e2e" :: args -> e2e args
  | [ "compare"; a; b ] -> exit (Ledger.compare ~bounds_path:"BENCHMARK.json" a b)
  | [ "compare"; a; b; "--benchmark"; bounds ] -> exit (Ledger.compare ~bounds_path:bounds a b)
  | "serve-child" :: socket :: cache_dir :: rest ->
      Serve_load.serve_child ~socket ~cache_dir ~smoke:(rest = [ "--smoke" ])
  | [ "cold-start" ] -> ignore (Campaign_load.encode_pairs ())
  | _ -> usage ()
