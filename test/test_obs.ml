open Testutil

(* The observability layer: the snapshot/merge algebra (QCheck — merge must
   be exactly associative and commutative, since shard snapshots are folded
   in whatever order domains registered), the determinism contract (the
   deterministic section of a campaign snapshot is byte-identical at any
   worker count), and a golden file pinning the --metrics JSON layout under
   a frozen clock. *)

(* ------------------------------------------------------------------ *)
(* Generators: random snapshots over a small key pool, so merges collide *)

let assoc_gen keys value_gen =
  QCheck2.Gen.(
    map
      (List.filter_map (fun (k, ov) -> Option.map (fun v -> (k, v)) ov))
      (flatten_l
         (List.map (fun k -> map (fun v -> (k, v)) (opt value_gen)) keys)))

let counter_keys = [ "alpha"; "beta"; "gamma"; "icp.prunes" ]
let hist_keys = [ "h.depth"; "h.ratio" ]

let hist_value_gen =
  assoc_gen [ 0; 1; 2; 5; 10 ] QCheck2.Gen.(int_range 0 1000)
  |> QCheck2.Gen.map
       (List.map (fun (b, c) -> (b, c)))

let snapshot_gen =
  QCheck2.Gen.(
    map
      (fun ((c, h), (w, (g, (t, e)))) ->
        {
          Obs.Metrics.counters = c;
          histograms = h;
          wall_counters = w;
          gauges = g;
          timers = t;
          elapsed_ns = e;
        })
      (pair
         (pair
            (assoc_gen counter_keys (int_range 0 10000))
            (assoc_gen hist_keys hist_value_gen))
         (pair
            (assoc_gen [ "steals"; "pushed" ] (int_range 0 10000))
            (pair
               (assoc_gen [ "depth"; "frontier" ] (int_range 0 500))
               (pair
                  (assoc_gen [ "phase.solve"; "phase.split" ]
                     (int_range 0 1_000_000))
                  (int_range 0 1_000_000))))))

(* ------------------------------------------------------------------ *)
(* The merge algebra *)

let prop_merge_commutative =
  qcheck ~count:300 "merge is commutative"
    QCheck2.Gen.(pair snapshot_gen snapshot_gen)
    (fun (a, b) -> Obs.Metrics.merge a b = Obs.Metrics.merge b a)

let prop_merge_associative =
  qcheck ~count:300 "merge is associative"
    QCheck2.Gen.(triple snapshot_gen snapshot_gen snapshot_gen)
    (fun (a, b, c) ->
      Obs.Metrics.(merge a (merge b c) = merge (merge a b) c))

let prop_merge_identity =
  qcheck ~count:200 "empty snapshot is a merge identity" snapshot_gen
    (fun a ->
      Obs.Metrics.(merge a empty_snapshot = a && merge empty_snapshot a = a))

(* ------------------------------------------------------------------ *)
(* The JSON codec: what Serialize prints, it reads back *)

let prop_json_roundtrip =
  qcheck ~count:300 "metrics JSON print/parse round-trip" snapshot_gen
    (fun s ->
      Serialize.metrics_of_string (Serialize.metrics_to_string s) = s)

(* Empty sections, sparse buckets and integers beyond 1e15 (which a
   float-valued printer would render as "1e+15"), byte for byte. *)
let test_json_edges () =
  let s =
    {
      Obs.Metrics.empty_snapshot with
      histograms = [ ("h", [ (0, 1); (63, 7) ]); ("h.empty", []) ];
      timers = [ ("phase.solve", (1 lsl 52) + 1) ];
      elapsed_ns = 1_000_000_000_000_000;
    }
  in
  Alcotest.(check string) "layout"
    {|{
  "version": 1,
  "deterministic": {
    "counters": {},
    "histograms": {
      "h": {
        "0": 1,
        "63": 7
      },
      "h.empty": {}
    }
  },
  "wall": {
    "counters": {},
    "elapsed_ns": 1000000000000000,
    "gauges": {},
    "timers_ns": {
      "phase.solve": 4503599627370497
    }
  }
}
|}
    (Serialize.metrics_to_string s);
  check_true "round-trip"
    (Serialize.metrics_of_string (Serialize.metrics_to_string s) = s);
  check_true "empty snapshot round-trip"
    (Serialize.metrics_of_string
       (Serialize.metrics_to_string Obs.Metrics.empty_snapshot)
    = Obs.Metrics.empty_snapshot)

(* ------------------------------------------------------------------ *)
(* The same algebra over real shards of a real campaign *)

let det_config ?(retry = Verify.no_retry) workers =
  {
    Verify.default_config with
    threshold = 0.3;
    solver =
      {
        Icp.default_config with
        fuel = 400;
        delta = 1e-3;
        contractor_rounds = 2;
        (* the ambient XCV_FAULT_RATE hook must not leak into snapshots the
           tests compare byte for byte *)
        faults = None;
      };
    workers;
    use_taylor = false;
    retry;
  }

(* Run pz81/EC1 under a private instance and hand back its snapshots. *)
let with_fresh_instance f =
  let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Metrics.install prev))
    f

let run_campaign workers =
  match
    Verify.run_pair ~config:(det_config workers) (Registry.find "pz81")
      Conditions.Ec1
  with
  | Some o -> o
  | None -> Alcotest.fail "pz81/EC1 must be applicable"

let test_shard_fold_order_irrelevant () =
  with_fresh_instance @@ fun () ->
  ignore (run_campaign test_workers);
  let shards = Obs.Metrics.shard_snapshots () in
  check_true "at least one shard" (List.length shards >= 1);
  let fold l =
    List.fold_left Obs.Metrics.merge Obs.Metrics.empty_snapshot l
  in
  check_true "forward and reverse folds agree"
    (fold shards = fold (List.rev shards));
  (* the full snapshot is the shard fold over the zero baseline: every
     shard-counted value must reappear verbatim *)
  let full = Obs.Metrics.snapshot () in
  let folded = fold shards in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k full.Obs.Metrics.counters with
      | Some v' ->
          Alcotest.(check int) (Printf.sprintf "counter %s" k) v v'
      | None -> Alcotest.failf "counter %s missing from snapshot" k)
    folded.Obs.Metrics.counters

(* ------------------------------------------------------------------ *)
(* Determinism contract: workers=1 vs workers=4 *)

let campaign_snapshot workers =
  with_fresh_instance @@ fun () ->
  ignore (run_campaign workers);
  Obs.Metrics.snapshot ()

let test_campaign_deterministic_section () =
  let s1 = campaign_snapshot 1 and s4 = campaign_snapshot 4 in
  Alcotest.(check string)
    "deterministic section byte-identical at workers=1 and workers=4"
    (Serialize.deterministic_metrics_to_string s1)
    (Serialize.deterministic_metrics_to_string s4);
  (* sanity: the campaign actually counted work *)
  check_true "boxes were counted"
    (match List.assoc_opt "verify.boxes" s1.Obs.Metrics.counters with
    | Some n -> n > 0
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Golden file: the full --metrics JSON under a frozen clock *)

let golden_path = "fixtures/metrics_golden.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A fixed custom problem (the trace suite's circle), so the golden file
   does not move when registry constants are tuned. Frozen clock: every
   timer and the elapsed field render as 0, leaving only work counts. *)
let golden_run () =
  let psi =
    Form.ge
      (Expr.sub
         (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
         (Expr.int 1))
  in
  let domain =
    Box.make
      [ ("x", Interval.make (-2.0) 2.0); ("y", Interval.make (-2.0) 2.0) ]
  in
  let config =
    { (det_config 1) with Verify.threshold = 1.0;
      solver = { (det_config 1).Verify.solver with fuel = 40; delta = 1e-2 } }
  in
  Obs.Clock.with_frozen 0 @@ fun () ->
  with_fresh_instance @@ fun () ->
  ignore
    (Verify.run_custom ~config ~dfa_label:"obs-golden" ~condition_label:"circle"
       ~domain ~psi ());
  Serialize.metrics_to_string (Obs.Metrics.snapshot ())

let test_metrics_golden () =
  let json = golden_run () in
  (* Regenerate with:
     XCV_WRITE_METRICS_GOLDEN=test/fixtures/metrics_golden.json \
       dune exec test/main.exe -- test obs *)
  match Sys.getenv_opt "XCV_WRITE_METRICS_GOLDEN" with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc json;
          output_char oc '\n');
      Printf.printf "golden metrics rewritten: %s\n" path
  | None ->
      let golden = String.trim (read_file golden_path) in
      Alcotest.(check string) "metrics JSON matches golden file" golden
        (String.trim json)

(* The golden run is also a fixed point: two runs in a row are identical
   (shard reuse, histogram state and zero baseline do not bleed between
   installed instances). *)
let test_golden_run_reproducible () =
  Alcotest.(check string) "golden run reproducible" (golden_run ())
    (golden_run ())

(* ------------------------------------------------------------------ *)
(* Path validation (the CLI's up-front --metrics/--checkpoint check) *)

let test_validate_output_path () =
  check_true "stdout sentinel accepted"
    (Obs.validate_output_path "-" = Ok ());
  check_true "plain file in cwd accepted"
    (Obs.validate_output_path "metrics_out.json" = Ok ());
  (match Obs.validate_output_path "/nonexistent-dir-xyz/m.json" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing parent directory must be rejected");
  (match Obs.validate_output_path "." with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a directory must be rejected as an output file");
  (* output files are replaced by a rename, which must never land on a
     device *)
  (match Obs.validate_output_path "/dev/null" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a device must be rejected as an output file");
  (* nor on a symbolic link: the rename would replace the link itself, not
     write through it to its target *)
  let target = Filename.temp_file "xcv_target" ".json" in
  let link = target ^ ".link" in
  Unix.symlink target link;
  Fun.protect
    ~finally:(fun () -> Sys.remove link; Sys.remove target)
    (fun () ->
      check_true "the link's regular target accepted"
        (Obs.validate_output_path target = Ok ());
      match Obs.validate_output_path link with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "a symbolic link must be rejected as an output file")

let suite =
  [
    prop_merge_commutative;
    prop_merge_associative;
    prop_merge_identity;
    prop_json_roundtrip;
    case "metrics JSON edge cases" test_json_edges;
    case "shard fold order irrelevant" test_shard_fold_order_irrelevant;
    case "campaign deterministic section at 1 and 4 workers"
      test_campaign_deterministic_section;
    case "metrics JSON golden file" test_metrics_golden;
    case "golden run reproducible" test_golden_run_reproducible;
    case "output path validation" test_validate_output_path;
  ]
