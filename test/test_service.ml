open Testutil

(* The verification service: crash-safe verdict cache, wire protocol,
   admission control, quota degradation, cooperative cancellation, journal
   replay — and the daemon end to end, including SIGKILL mid-commit with a
   byte-identity check across the restart. *)

(* ---- fixtures -------------------------------------------------------- *)

let temp_dir () =
  let d = Filename.temp_file "xcvservice" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_fresh_instance f =
  let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
  Fun.protect ~finally:(fun () -> ignore (Obs.Metrics.install prev)) f

(* counter aliases (registration is idempotent by name) *)
let c_solver_calls = Obs.Metrics.counter "verify.solver_calls"
let c_hits = Obs.Metrics.counter "service.cache.hits"
let c_misses = Obs.Metrics.counter "service.cache.misses"

let c_replays =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.journal_replays"

let c_pairs_encoded =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "service.pairs_encoded"

let box2 ?(x = Interval.make 0.0 1.0) ?(y = Interval.make 0.0 1.0) () =
  Box.make [ ("x", x); ("y", y) ]

let outcome ?(dfa = "pbe") ?(condition = "ec1") ?(status = Outcome.Verified)
    ?(box = box2 ()) () =
  {
    Outcome.dfa;
    condition;
    domain = box;
    regions = [ { Outcome.box; status; depth = 0 } ];
    stats = Outcome.zero_stats;
  }

let bytes_of = Serialize.to_string

(* verdict bytes modulo wall time, for comparing two independent solves *)
let strip_elapsed o =
  { o with Outcome.stats = { o.Outcome.stats with Outcome.elapsed = 0.0 } }

(* a fast real configuration for engine-level tests: coarse grid, small
   fuel, ambient faults inherited (decisions are deterministic) *)
let quick_verify ?(threshold = 0.3) ?(fuel = 25) () =
  {
    Verify.default_config with
    threshold;
    solver =
      {
        Icp.default_config with
        Icp.fuel;
        delta = 1e-2;
        contractor_rounds = 2;
        faults = Fault.of_env ();
      };
    workers = test_workers;
    use_taylor = false;
  }

let engine_config ?(max_inflight = 8) ?fuel_quota ?default_deadline_ms
    ?kill_after ?io_faults ?verify cache_dir =
  {
    Engine.cache_dir;
    max_inflight;
    default_deadline_ms;
    fuel_quota;
    verify = (match verify with Some v -> v | None -> quick_verify ());
    io_faults;
    kill_after;
  }

(* what [Engine.submit] answered at admission, as a response *)
let submitted t client req =
  Option.map (fun r -> r.Protocol.response) (Engine.submit t client req)

(* submit one request and drain the engine, returning the non-progress
   replies in emission order *)
let run_one_replies t client req =
  let acc = ref [] in
  (match Engine.submit t client req with
  | Some r -> acc := [ r ]
  | None ->
      Engine.drain t () ~on_response:(fun _ r ->
          match r.Protocol.response with
          | Protocol.Progress _ -> ()
          | _ -> acc := r :: !acc);
      acc := List.rev !acc);
  !acc

(* the same, as responses *)
let run_one t client req =
  List.map (fun r -> r.Protocol.response) (run_one_replies t client req)

let verify_req ?(id = 1) ?(opts = Protocol.no_opts) ?(dfa = "pbe")
    ?(condition = "ec1") () =
  Protocol.Verify { id; dfa; condition; opts }

(* ---- verdict cache --------------------------------------------------- *)

let test_cache_roundtrip () =
  let dir = temp_dir () in
  let cache = Verdict_cache.open_dir dir in
  let o = outcome () in
  Verdict_cache.put cache ~config_hash:"c1" ~formula_hash:"f1" o;
  (match Verdict_cache.find cache ~config_hash:"c1" ~formula_hash:"f1"
           ~box:(box2 ())
   with
  | Some got ->
      Alcotest.(check string) "cache hit byte-identical" (bytes_of o)
        (bytes_of got)
  | _ -> Alcotest.fail "expected exact hit");
  (* a different key misses *)
  check_true "other key misses"
    (Verdict_cache.find cache ~config_hash:"c2" ~formula_hash:"f1"
       ~box:(box2 ())
    = None);
  (* a cold handle reads the same bytes back from disk *)
  let cold = Verdict_cache.open_dir dir in
  match Verdict_cache.entries cold ~config_hash:"c1" ~formula_hash:"f1" with
  | [ got ] ->
      Alcotest.(check string) "persisted bytes" (bytes_of o) (bytes_of got)
  | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es)

let interval_gen =
  QCheck2.Gen.(
    map2
      (fun a w -> Interval.make a (a +. w))
      (float_range (-4.0) 4.0) (float_range 0.25 4.0))

let qcheck_cache_hit_identity =
  qcheck ~count:20 "cache hit is byte-identical to what was stored"
    QCheck2.Gen.(map2 (fun x y -> (x, y)) interval_gen interval_gen)
    (fun (x, y) ->
      let dir = temp_dir () in
      let cache = Verdict_cache.open_dir dir in
      let o = outcome ~box:(box2 ~x ~y ()) () in
      Verdict_cache.put cache ~config_hash:"c" ~formula_hash:"f" o;
      let cold = Verdict_cache.open_dir dir in
      match
        Verdict_cache.find cold ~config_hash:"c" ~formula_hash:"f"
          ~box:(box2 ~x ~y ())
      with
      | Some got -> bytes_of got = bytes_of o
      | _ -> false)

(* two handles on the same directory — the in-process model of two daemon
   processes sharing a cache: O_APPEND keeps whole lines intact, and both
   writers' entries survive *)
let test_cache_concurrent_writers () =
  let dir = temp_dir () in
  let a = Verdict_cache.open_dir dir in
  let b = Verdict_cache.open_dir dir in
  let o1 = outcome ~box:(box2 ~x:(Interval.make 0.0 1.0) ()) () in
  let o2 = outcome ~box:(box2 ~x:(Interval.make 2.0 3.0) ()) () in
  Verdict_cache.put a ~config_hash:"c" ~formula_hash:"f" o1;
  (* b opened before a's write; its append must not clobber a's entry *)
  Verdict_cache.put b ~config_hash:"c" ~formula_hash:"f" o2;
  let cold = Verdict_cache.open_dir dir in
  let entries =
    Verdict_cache.entries cold ~config_hash:"c" ~formula_hash:"f"
  in
  Alcotest.(check int) "both writers' entries survive" 2 (List.length entries);
  (match
     Verdict_cache.find cold ~config_hash:"c" ~formula_hash:"f"
       ~box:o1.Outcome.domain
   with
  | Some got ->
      Alcotest.(check string) "writer A's verdict" (bytes_of o1) (bytes_of got)
  | _ -> Alcotest.fail "writer A's entry lost");
  (* re-committing an already-stored verdict is skipped, and a refresh
     folds the other writer's entry into this handle's view *)
  Verdict_cache.put a ~config_hash:"c" ~formula_hash:"f" o1;
  Verdict_cache.refresh a;
  Alcotest.(check int) "duplicate put skipped" 2
    (List.length (Verdict_cache.entries a ~config_hash:"c" ~formula_hash:"f"))

let io_plan ?(seed = 42) ?(rate = 1.0) kinds =
  Fault.make_io ~kinds ~seed ~rate ()

let test_cache_kill_mid_commit () =
  let dir = temp_dir () in
  (* commit one good entry first *)
  let clean = Verdict_cache.open_dir dir in
  let o1 = outcome ~box:(box2 ~x:(Interval.make 0.0 1.0) ()) () in
  Verdict_cache.put clean ~config_hash:"c" ~formula_hash:"f" o1;
  (* then a commit dies mid-write, leaving a torn tail *)
  let faulty =
    Verdict_cache.open_dir ~io_faults:(io_plan [ Fault.Short_write ]) dir
  in
  let o2 = outcome ~box:(box2 ~x:(Interval.make 2.0 3.0) ()) () in
  (match Verdict_cache.put faulty ~config_hash:"c" ~formula_hash:"f" o2 with
  | () -> Alcotest.fail "expected injected short write"
  | exception Fault.Io_injected (Fault.Short_write, _) -> ());
  let group = Verdict_cache.group_file clean ~config_hash:"c" ~formula_hash:"f" in
  check_true "the file has a torn tail"
    (Serialize.read_checkpoint group).Serialize.truncated;
  (* recovery: a fresh open repairs the tear; the good entry survives, the
     torn one is gone, and new commits land cleanly after it *)
  let recovered = Verdict_cache.open_dir dir in
  (match
     Verdict_cache.find recovered ~config_hash:"c" ~formula_hash:"f"
       ~box:o1.Outcome.domain
   with
  | Some got ->
      Alcotest.(check string) "pre-crash verdict survives" (bytes_of o1)
        (bytes_of got)
  | _ -> Alcotest.fail "pre-crash verdict lost");
  check_true "torn entry is not served"
    (Verdict_cache.find recovered ~config_hash:"c" ~formula_hash:"f"
       ~box:o2.Outcome.domain
    = None);
  Verdict_cache.put recovered ~config_hash:"c" ~formula_hash:"f" o2;
  let ck = Serialize.read_checkpoint group in
  check_false "clean after repair + append" ck.Serialize.truncated;
  Alcotest.(check int) "both entries on disk" 2
    (List.length ck.Serialize.entries)

let test_cache_enospc_and_eintr () =
  let dir = temp_dir () in
  (* the group exists before the faulted commits, so their faults land on
     the fsynced entry append, not on the group's creation *)
  let clean = Verdict_cache.open_dir dir in
  let o0 = outcome ~box:(box2 ~x:(Interval.make 2.0 3.0) ()) () in
  Verdict_cache.put clean ~config_hash:"c" ~formula_hash:"f" o0;
  let group =
    Verdict_cache.group_file clean ~config_hash:"c" ~formula_hash:"f"
  in
  let before = In_channel.with_open_bin group In_channel.input_all in
  let unchanged what =
    check_true (what ^ " leaves the group file as it was")
      (Sys.file_exists group
      && String.equal before
           (In_channel.with_open_bin group In_channel.input_all))
  in
  let o = outcome () in
  (* ENOSPC: the write fails cleanly, no bytes land *)
  let enospc = Verdict_cache.open_dir ~io_faults:(io_plan [ Fault.Enospc ]) dir in
  (match Verdict_cache.put enospc ~config_hash:"c" ~formula_hash:"f" o with
  | () -> Alcotest.fail "expected injected ENOSPC"
  | exception Fault.Io_injected (Fault.Enospc, _) -> ());
  unchanged "ENOSPC";
  (* a permanent EINTR storm gives up after bounded retries — also clean *)
  let eintr = Verdict_cache.open_dir ~io_faults:(io_plan [ Fault.Eintr ]) dir in
  (match Verdict_cache.put eintr ~config_hash:"c" ~formula_hash:"f" o with
  | () -> Alcotest.fail "expected EINTR storm to give up"
  | exception Fault.Io_injected (Fault.Eintr, _) -> ());
  unchanged "EINTR";
  (* a transient EINTR (faulted attempt 0, clean attempt 1) is absorbed:
     hunt for a seed whose decisions have exactly that shape. It commits
     into a fresh directory, so the group is created through the plan too *)
  let dir = temp_dir () in
  let line =
    Serialize.entry_to_string
      Serialize.{ outcome = o; metrics_json = None }
  in
  let key = Fault.key_of_string (line ^ "\n") in
  (* the group file is created through the same plan: its header write
     must get through at once *)
  let header_key =
    Fault.key_of_string
      (Serialize.header_to_string
         Serialize.{ config_hash = "c"; formula_hash = "f" }
      ^ "\n")
  in
  let rec hunt seed =
    if seed > 100_000 then None
    else
      let plan = io_plan ~seed ~rate:0.7 [ Fault.Eintr ] in
      if
        Fault.io_decide plan ~attempt:0 ~key:header_key = None
        && Fault.io_decide plan ~attempt:0 ~key = Some Fault.Eintr
        && Fault.io_decide plan ~attempt:1 ~key = None
      then Some plan
      else hunt (seed + 1)
  in
  match hunt 0 with
  | None -> Alcotest.fail "no seed with the transient-EINTR shape"
  | Some plan ->
      let transient = Verdict_cache.open_dir ~io_faults:plan dir in
      Verdict_cache.put transient ~config_hash:"c" ~formula_hash:"f" o;
      let group =
        Verdict_cache.group_file transient ~config_hash:"c" ~formula_hash:"f"
      in
      (match
         Verdict_cache.find transient ~config_hash:"c" ~formula_hash:"f"
           ~box:o.Outcome.domain
       with
      | Some _ -> ()
      | _ -> Alcotest.fail "retried write not committed");
      check_false "retried write is clean"
        (Serialize.read_checkpoint group).Serialize.truncated

(* Creating a group file draws from the I/O plan like any commit: a fault
   on the header write leaves neither the group file nor a tmp file. *)
let test_cache_group_creation_faults () =
  List.iter
    (fun kind ->
      let dir = temp_dir () in
      let cache = Verdict_cache.open_dir ~io_faults:(io_plan [ kind ]) dir in
      (match Verdict_cache.put cache ~config_hash:"c" ~formula_hash:"f" (outcome ()) with
      | () -> Alcotest.failf "expected injected %s" (Fault.io_kind_name kind)
      | exception Fault.Io_injected (k, _) when k = kind -> ());
      let name = Fault.io_kind_name kind in
      check_false (name ^ ": no group file")
        (Sys.file_exists
           (Verdict_cache.group_file cache ~config_hash:"c" ~formula_hash:"f"));
      check_false (name ^ ": no tmp file")
        (Array.exists (fun f -> contains_sub f ".tmp.") (Sys.readdir dir)))
    [ Fault.Enospc; Fault.Short_write; Fault.Eintr ]

(* ---- wire protocol --------------------------------------------------- *)

let small_string_gen = QCheck2.Gen.(string_size ~gen:printable (int_range 0 12))
let nat_gen = QCheck2.Gen.(int_range 0 10_000)

let opts_gen =
  QCheck2.Gen.(
    map3
      (fun d f t -> Protocol.{ deadline_ms = d; fuel = f; threshold = t })
      (opt nat_gen) (opt nat_gen)
      (opt (float_range 1e-6 10.0)))

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Ping;
        map (fun id -> Protocol.Stats id) nat_gen;
        map (fun id -> Protocol.Cancel id) nat_gen;
        map3
          (fun id (dfa, condition) opts ->
            Protocol.Verify { id; dfa; condition; opts })
          nat_gen
          (map2 (fun a b -> (a, b)) small_string_gen small_string_gen)
          opts_gen;
        map3
          (fun id dfa opts -> Protocol.Campaign { id; dfa; opts })
          nat_gen small_string_gen opts_gen;
      ])

let qcheck_request_roundtrip =
  qcheck ~count:300 "protocol request roundtrip" request_gen (fun req ->
      Protocol.request_of_string (Protocol.request_to_string req) = req)

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Pong;
        map3
          (fun id label (boxes, solver_calls) ->
            Protocol.Progress { id; label; boxes; solver_calls })
          nat_gen small_string_gen
          (map2 (fun a b -> (a, b)) nat_gen nat_gen);
        map2
          (fun id count -> Protocol.Done { id; count })
          nat_gen nat_gen;
        map3
          (fun id inflight max_inflight ->
            Protocol.Overloaded { id; inflight; max_inflight })
          nat_gen nat_gen nat_gen;
        map2
          (fun id reason -> Protocol.Refused { id; reason })
          nat_gen small_string_gen;
        map2
          (fun id message -> Protocol.Failed { id; message })
          nat_gen small_string_gen;
        map2
          (fun id (h, m, s, p, q) ->
            Protocol.Stats_reply
              {
                id;
                stats =
                  Protocol.
                    {
                      cache_hits = h;
                      cache_misses = m;
                      solver_calls = s;
                      pending = p;
                      quota_remaining = q;
                    };
              })
          nat_gen
          (map3
             (fun h m (s, p, q) -> (h, m, s, p, q))
             nat_gen nat_gen
             (map3 (fun s p q -> (s, p, q)) nat_gen nat_gen (opt nat_gen)));
      ])

let qcheck_response_roundtrip =
  qcheck ~count:300 "protocol response roundtrip" response_gen (fun resp ->
      Protocol.response_of_string (Protocol.response_to_string resp) = resp)

let test_result_roundtrip () =
  let o = outcome () in
  let r =
    Protocol.Result { id = 7; cached = true; degraded = 1; partial = false;
                      outcome = o }
  in
  match Protocol.response_of_string (Protocol.response_to_string r) with
  | Protocol.Result got ->
      Alcotest.(check int) "id" 7 got.id;
      check_true "cached" got.cached;
      Alcotest.(check int) "degraded" 1 got.degraded;
      check_false "partial" got.partial;
      Alcotest.(check string) "outcome bytes" (bytes_of o)
        (bytes_of got.outcome)
  | _ -> Alcotest.fail "expected Result"

(* The Result frame as it was built before the outcome tree was spliced in
   directly: the outcome printed, parsed back and printed again inside the
   frame. It is the oracle the splice must match byte for byte. *)
let result_frame_by_reparse ~id ~cached ~degraded ~partial o =
  let module S = Parser.Sexp in
  let field name v = S.List [ S.Atom name; v ] in
  let int n = S.Atom (string_of_int n) in
  let bool b = S.Atom (if b then "1" else "0") in
  let buf = Buffer.create 256 in
  S.print buf
    (S.List
       [
         S.Atom "result"; field "id" (int id); field "cached" (bool cached);
         field "degraded" (int degraded); field "partial" (bool partial);
         S.parse (Serialize.to_string o);
       ]);
  Buffer.contents buf

(* Free text for labels and error messages: quotes, parentheses, blanks,
   newlines, '%', backslashes and multi-byte UTF-8. Never empty: Serialize
   writes an empty label or message as an empty atom, which neither its
   own reader nor the re-parse above keeps. *)
let text_gen =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 1 8)
         (oneofl
            [ "a"; "Z"; "0"; "_"; "\""; "'"; "("; ")"; " "; "\n"; "\t"; "%";
              "%2"; "\\"; "\xc3\xa9"; "\xce\xbb"; "\xe2\x88\x9e" ])))

(* finite floats and the bounds a paint log can hold: infinities, signed
   zeros, subnormals *)
let coord_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> if Float.is_nan f then 0.5 else f) float;
        oneofl
          [ 0.0; -0.0; infinity; neg_infinity; 5e-324; -5e-324;
            Float.max_float; 1e-300 ];
      ])

let grid_vars = [ "rs"; "s"; "zeta" ]

let model_gen =
  QCheck2.Gen.(
    map (List.combine grid_vars) (list_repeat (List.length grid_vars) coord_gen))

let region_box_gen =
  QCheck2.Gen.(
    map
      (fun bounds ->
        Box.make
          (List.map2
             (fun v (a, b) -> (v, Interval.make (Float.min a b) (Float.max a b)))
             grid_vars bounds))
      (list_repeat (List.length grid_vars) (pair coord_gen coord_gen)))

let status_gen =
  QCheck2.Gen.(
    oneof
      [
        return Outcome.Verified;
        return Outcome.Timeout;
        map (fun m -> Outcome.Counterexample m) model_gen;
        map (fun m -> Outcome.Inconclusive m) model_gen;
        map (fun msg -> Outcome.Error msg) text_gen;
      ])

let outcome_gen =
  QCheck2.Gen.(
    let region =
      map3
        (fun box status depth -> { Outcome.box; status; depth })
        region_box_gen status_gen (int_range 0 40)
    in
    let stats =
      map3
        (fun (solver_calls, total_expansions) (total_prunes, total_revise_calls)
             (retries, elapsed) ->
          { Outcome.solver_calls; total_expansions; total_prunes;
            total_revise_calls; retries; elapsed })
        (pair nat_gen nat_gen) (pair nat_gen nat_gen)
        (pair nat_gen (float_range 0.0 100.0))
    in
    map3
      (fun (dfa, condition) (domain, regions) stats ->
        { Outcome.dfa; condition; domain; regions; stats })
      (pair text_gen text_gen)
      (* zero regions included *)
      (pair region_box_gen (list_size (int_range 0 4) region))
      stats)

let qcheck_result_splice =
  qcheck ~count:300 "result frame: splice matches print-parse-print"
    QCheck2.Gen.(
      pair (pair nat_gen (int_range 0 2)) (pair (pair bool bool) outcome_gen))
    (fun ((id, degraded), ((cached, partial), o)) ->
      let frame =
        Protocol.response_to_string
          (Protocol.Result { id; cached; degraded; partial; outcome = o })
      in
      String.equal frame
        (result_frame_by_reparse ~id ~cached ~degraded ~partial o)
      (* the reply spliced from stored bytes is that same frame *)
      && String.equal frame
           (Protocol.result ~id ~cached ~degraded ~partial o (bytes_of o))
             .Protocol.payload
      &&
      match Protocol.response_of_string frame with
      | Protocol.Result got ->
          got.id = id && got.cached = cached && got.degraded = degraded
          && got.partial = partial
          && String.equal (bytes_of got.outcome) (bytes_of o)
      | _ -> false)

(* The cache writes each entry line around the outcome's printed bytes; the
   line must be the one Serialize writes for the entry, so every checkpoint
   loader reads cache files unchanged. *)
let qcheck_cache_entry_line =
  let dir = temp_dir () and n = ref 0 in
  let cache = Verdict_cache.open_dir dir in
  qcheck ~count:100 "cache entry line is Serialize's entry line" outcome_gen
    (fun o ->
      incr n;
      let formula_hash = string_of_int !n in
      Verdict_cache.put cache ~config_hash:"c" ~formula_hash o;
      let file = Verdict_cache.group_file cache ~config_hash:"c" ~formula_hash in
      match String.split_on_char '\n' (read_file file) with
      | [ _header; line; "" ] ->
          String.equal line
            (Serialize.entry_to_string
               Serialize.{ outcome = o; metrics_json = None })
      | _ -> false)

let test_frame_roundtrip () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () ->
      let payloads = [ ""; "(ping)"; String.make 4096 'x' ] in
      List.iter (fun p -> Protocol.write_frame w p) payloads;
      List.iter
        (fun p ->
          match Protocol.read_frame r with
          | Some got -> Alcotest.(check string) "frame payload" p got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      Unix.close w;
      check_true "EOF at frame boundary" (Protocol.read_frame r = None))

let test_frame_torn_write () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () ->
      (match
         Protocol.write_frame ~io_faults:(io_plan [ Fault.Short_write ]) w
           "(ping)(ping)(ping)"
       with
      | () -> Alcotest.fail "expected injected short write"
      | exception Fault.Io_injected (Fault.Short_write, _) -> ());
      Unix.close w;
      (* the reader detects the tear instead of hanging or misparsing *)
      match Protocol.read_frame r with
      | exception Failure _ -> ()
      | None -> ()
      | Some _ -> Alcotest.fail "torn frame parsed as complete")

(* An EINTR storm on a frame gives up before any byte reaches the peer. *)
let test_frame_eintr_storm () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () ->
      (match
         Protocol.write_frame ~io_faults:(io_plan [ Fault.Eintr ]) w "(ping)"
       with
      | () -> Alcotest.fail "expected the EINTR storm to give up"
      | exception Fault.Io_injected (Fault.Eintr, _) -> ());
      Unix.close w;
      Alcotest.(check int) "no byte written" 0
        (Unix.read r (Bytes.create 1) 0 1))

(* ---- engine: cache integration --------------------------------------- *)

(* the acceptance criterion: a repeated identical query is served from the
   cache with zero additional solver calls, byte-identically *)
let test_engine_cache_hit_zero_solver_calls () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config (temp_dir ())) in
  let client = Engine.new_client t in
  let first = run_one t client (verify_req ()) in
  let calls_after_first = Obs.Metrics.read c_solver_calls in
  check_true "fresh solve used the solver" (calls_after_first > 0);
  let second = run_one t client (verify_req ~id:2 ()) in
  Alcotest.(check int) "zero additional solver calls" calls_after_first
    (Obs.Metrics.read c_solver_calls);
  match (first, second) with
  | [ Protocol.Result r1 ], [ Protocol.Result r2 ] ->
      check_false "first from solver" r1.cached;
      check_true "second from cache" r2.cached;
      Alcotest.(check string) "byte-identical verdict"
        (bytes_of r1.outcome)
        (bytes_of r2.outcome);
      check_true "cache counters moved"
        (Obs.Metrics.read c_hits >= 1 && Obs.Metrics.read c_misses >= 1)
  | _ -> Alcotest.fail "expected two Result responses"

let test_engine_cache_survives_reopen () =
  with_fresh_instance @@ fun () ->
  let dir = temp_dir () in
  let t1 = Engine.create (engine_config dir) in
  let c1 = Engine.new_client t1 in
  let r1 = run_one t1 c1 (verify_req ()) in
  (* a second engine on the same cache dir — the restarted daemon *)
  let t2 = Engine.create (engine_config dir) in
  let c2 = Engine.new_client t2 in
  let r2 = run_one t2 c2 (verify_req ()) in
  match (r1, r2) with
  | [ Protocol.Result a ], [ Protocol.Result b ] ->
      check_true "served from cache after restart" b.cached;
      Alcotest.(check string) "byte-identical across restart"
        (bytes_of a.outcome)
        (bytes_of b.outcome)
  | _ -> Alcotest.fail "expected Result responses"

(* ---- engine: robustness ---------------------------------------------- *)

let test_engine_deadline_partial () =
  with_fresh_instance @@ fun () ->
  let verify = quick_verify ~threshold:0.02 ~fuel:300 () in
  let t = Engine.create (engine_config ~verify (temp_dir ())) in
  let client = Engine.new_client t in
  let opts = Protocol.{ no_opts with deadline_ms = Some 1 } in
  match run_one t client (verify_req ~opts ()) with
  | [ Protocol.Result r ] ->
      check_true "deadline-expired query is partial" r.partial;
      check_true "the remainder is painted timeout"
        (List.exists
           (fun reg -> reg.Outcome.status = Outcome.Timeout)
           r.outcome.Outcome.regions);
      (* partial maps are deadline-shaped and must not poison the cache *)
      (match run_one t client (verify_req ~id:2 ~opts ()) with
      | [ Protocol.Result r2 ] -> check_false "not cached" r2.cached
      | _ -> Alcotest.fail "expected a Result")
  | _ -> Alcotest.fail "expected a Result"

let test_engine_overload () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config ~max_inflight:1 (temp_dir ())) in
  let client = Engine.new_client t in
  check_true "first query admitted"
    (Engine.submit t client (verify_req ()) = None);
  (match submitted t client (verify_req ~id:2 ()) with
  | Some (Protocol.Overloaded { id; inflight; max_inflight }) ->
      Alcotest.(check int) "rejected id" 2 id;
      Alcotest.(check int) "inflight" 1 inflight;
      Alcotest.(check int) "bound" 1 max_inflight
  | _ -> Alcotest.fail "expected Overloaded");
  (* the queue drains and frees the slot again *)
  Engine.drain t () ~on_response:(fun _ _ -> ());
  Alcotest.(check int) "idle again" 0 (Engine.pending t);
  (* a query that misses (a fresh threshold): the identical one is now a
     hit, answered without taking a slot *)
  let fresh = Protocol.{ no_opts with threshold = Some 0.31 } in
  check_true "admitted after drain"
    (Engine.submit t client (verify_req ~id:3 ~opts:fresh ()) = None);
  Engine.drain t () ~on_response:(fun _ _ -> ())

let test_engine_quota_degrades_then_refuses () =
  with_fresh_instance @@ fun () ->
  (* quota 40 against fuel 60: 2q >= fuel, so the first query lands on
     rung 1 (half fuel, double threshold) instead of being refused *)
  let t =
    Engine.create
      (engine_config ~fuel_quota:40
         ~verify:(quick_verify ~fuel:60 ())
         (temp_dir ()))
  in
  let client = Engine.new_client t in
  (match run_one t client (verify_req ()) with
  | [ Protocol.Result r ] ->
      Alcotest.(check int) "first query degraded to rung 1" 1
        r.degraded
  | _ -> Alcotest.fail "expected a Result");
  check_true "quota was charged"
    (match Engine.quota_remaining t client with Some q -> q < 40 | None -> false);
  (* the run above burns far more than the quota; the next query falls
     below the last rung and is refused *)
  (match run_one t client (verify_req ~id:2 ~condition:"ec2" ()) with
  | [ Protocol.Refused { id; reason } ] ->
      Alcotest.(check int) "refused id" 2 id;
      check_true "reason names the quota" (contains_sub reason "quota")
  | _ -> Alcotest.fail "expected Refused");
  (* a fresh client has a fresh quota *)
  let client2 = Engine.new_client t in
  match run_one t client2 (verify_req ~id:3 ()) with
  | [ Protocol.Result r ] -> check_true "fresh client served" (r.degraded = 1)
  | _ -> Alcotest.fail "expected a Result for the fresh client"

let test_engine_quota_rung2 () =
  with_fresh_instance @@ fun () ->
  (* quota 20 against fuel 60: only 4q >= fuel holds — rung 2 *)
  let t =
    Engine.create
      (engine_config ~fuel_quota:20
         ~verify:(quick_verify ~fuel:60 ())
         (temp_dir ()))
  in
  let client = Engine.new_client t in
  match run_one t client (verify_req ()) with
  | [ Protocol.Result r ] ->
      Alcotest.(check int) "rung 2" 2 r.degraded
  | _ -> Alcotest.fail "expected a Result"

let test_engine_cancellation_partial () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config (temp_dir ())) in
  let client = Engine.new_client t in
  check_true "admitted" (Engine.submit t client (verify_req ~id:9 ()) = None);
  (* cancelled before it runs: the solve drains immediately into a
     whole-domain timeout paint — the partial verdict map *)
  Engine.cancel t client ~id:9;
  let acc = ref [] in
  Engine.drain t () ~on_response:(fun _ r -> acc := r.Protocol.response :: !acc);
  match !acc with
  | [ Protocol.Result r ] ->
      check_true "cancelled query is partial" r.partial;
      check_true "verdict map is all timeout"
        (List.for_all
           (fun reg -> reg.Outcome.status = Outcome.Timeout)
           r.outcome.Outcome.regions)
  | _ -> Alcotest.fail "expected one Result"

let test_engine_campaign_stream () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config (temp_dir ())) in
  let client = Engine.new_client t in
  let rs =
    run_one t client (Protocol.Campaign { id = 4; dfa = "lyp"; opts = Protocol.no_opts })
  in
  let results, rest =
    List.partition (function Protocol.Result _ -> true | _ -> false) rs
  in
  (match rest with
  | [ Protocol.Done { id; count } ] ->
      Alcotest.(check int) "done id" 4 id;
      Alcotest.(check int) "count matches results" (List.length results) count;
      check_true "at least one pair" (count >= 1)
  | _ -> Alcotest.fail "expected a single Done terminator");
  (* re-running the campaign is served entirely from cache *)
  let calls = Obs.Metrics.read c_solver_calls in
  let rs2 =
    run_one t client (Protocol.Campaign { id = 5; dfa = "lyp"; opts = Protocol.no_opts })
  in
  Alcotest.(check int) "campaign re-run is solver-free" calls
    (Obs.Metrics.read c_solver_calls);
  check_true "all results cached"
    (List.for_all
       (function
         | Protocol.Result r -> r.cached
         | Protocol.Done _ -> true
         | _ -> false)
       rs2)

(* every regular file of [src], copied into a fresh directory *)
let copy_dir src =
  let dst = temp_dir () in
  Array.iter
    (fun f ->
      let path = Filename.concat src f in
      if not (Sys.is_directory path) then begin
        let oc = open_out_bin (Filename.concat dst f) in
        output_string oc (read_file path);
        close_out oc
      end)
    (Sys.readdir src);
  dst

(* a reply's frame bytes, with wall time zeroed in a freshly solved
   outcome (a cached one carries the elapsed time it was stored with) *)
let frame_bytes = function
  | Protocol.Result r when not r.cached ->
      Protocol.response_to_string
        (Protocol.Result { r with outcome = strip_elapsed r.outcome })
  | r -> Protocol.response_to_string r

(* An engine encodes each pair once, however often it is queried, and its
   replies are those of an engine that has encoded nothing yet. *)
let test_engine_encodes_each_pair_once () =
  with_fresh_instance @@ fun () ->
  let dir = temp_dir () in
  let t = Engine.create (engine_config dir) in
  let client = Engine.new_client t in
  let campaign id = Protocol.Campaign { id; dfa = "pbe"; opts = Protocol.no_opts } in
  let reqs =
    List.init 10 (fun i -> verify_req ~id:(i + 1) ~condition:"ec3" ())
    @ [ campaign 11 ]
  in
  let encodings = ref 0 in
  let run req =
    let before = Obs.Metrics.read c_pairs_encoded in
    let rs = run_one t client req in
    encodings := !encodings + Obs.Metrics.read c_pairs_encoded - before;
    rs
  in
  List.iter
    (fun req ->
      (* a fresh engine over the cache as it stands before [req] *)
      let fresh = Engine.create (engine_config (copy_dir dir)) in
      let want = run_one fresh (Engine.new_client fresh) req in
      let got = run req in
      Alcotest.(check (list string))
        "reply equals a fresh engine's" (List.map frame_bytes want)
        (List.map frame_bytes got))
    reqs;
  Alcotest.(check int) "each PBE pair encoded once"
    (List.length Conditions.all) !encodings;
  (match run (verify_req ~id:1 ~condition:"ec3" ()) with
  | [ Protocol.Result r ] -> check_true "ec3 served from cache" r.cached
  | _ -> Alcotest.fail "expected one Result");
  ignore (run (campaign 12));
  Alcotest.(check int) "repeats encode nothing" (List.length Conditions.all)
    !encodings

let test_engine_unknown_names () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config (temp_dir ())) in
  let client = Engine.new_client t in
  (match run_one t client (verify_req ~dfa:"nope" ()) with
  | [ Protocol.Failed { message; _ } ] ->
      check_true "names the functional" (contains_sub message "nope")
  | _ -> Alcotest.fail "expected Failed");
  match run_one t client (verify_req ~id:2 ~condition:"ec99" ()) with
  | [ Protocol.Failed { message; _ } ] ->
      check_true "names the condition" (contains_sub message "ec99")
  | _ -> Alcotest.fail "expected Failed"

let test_engine_journal_replay () =
  with_fresh_instance @@ fun () ->
  let dir = temp_dir () in
  let t1 = Engine.create (engine_config dir) in
  let c1 = Engine.new_client t1 in
  (* admitted and journaled, but the engine "crashes" before stepping *)
  check_true "admitted" (Engine.submit t1 c1 (verify_req ()) = None);
  let replays_before = Obs.Metrics.read c_replays in
  let t2 = Engine.create (engine_config dir) in
  Alcotest.(check int) "one journaled query replayed" (replays_before + 1)
    (Obs.Metrics.read c_replays);
  (* the replay warmed the cache: the same query is now solver-free *)
  let calls = Obs.Metrics.read c_solver_calls in
  let c2 = Engine.new_client t2 in
  (match run_one t2 c2 (verify_req ()) with
  | [ Protocol.Result r ] -> check_true "served from cache" r.cached
  | _ -> Alcotest.fail "expected a Result");
  Alcotest.(check int) "no new solver calls" calls
    (Obs.Metrics.read c_solver_calls);
  (* the journal was truncated: a third engine replays nothing *)
  let t3 = Engine.create (engine_config dir) in
  ignore (Engine.new_client t3);
  Alcotest.(check int) "journal reset after replay" (replays_before + 1)
    (Obs.Metrics.read c_replays)

let test_engine_ping_stats () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config ~fuel_quota:100 (temp_dir ())) in
  let client = Engine.new_client t in
  check_true "pong" (submitted t client Protocol.Ping = Some Protocol.Pong);
  match submitted t client (Protocol.Stats 3) with
  | Some (Protocol.Stats_reply { id; stats }) ->
      Alcotest.(check int) "stats id" 3 id;
      Alcotest.(check int) "pending" 0 stats.pending;
      check_true "quota reported" (stats.quota_remaining = Some 100)
  | _ -> Alcotest.fail "expected Stats_reply"

(* ---- engine: hits answered at admission ------------------------------ *)

(* a verify of pbe/ec1 at a threshold no other query uses: a miss *)
let miss_req ?(threshold = 0.31) id =
  verify_req ~id ~opts:Protocol.{ no_opts with threshold = Some threshold } ()

let journal_of dir =
  let path = Filename.concat dir "journal" in
  if Sys.file_exists path then read_file path else ""

(* A hit takes no slot and overtakes a queued miss: with the only slot held
   by a queued miss, the hit is answered by [submit] while the next miss is
   refused, and the queued miss answers after it. The miss is looked up at
   admission and again on the runner, but counted once. *)
let test_engine_hit_at_admission () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config ~max_inflight:1 (temp_dir ())) in
  let client = Engine.new_client t in
  ignore (run_one t client (verify_req ()));
  let misses = Obs.Metrics.read c_misses in
  check_true "miss queued" (Engine.submit t client (miss_req 2) = None);
  (match submitted t client (verify_req ~id:3 ()) with
  | Some (Protocol.Result r) ->
      Alcotest.(check int) "hit id" 3 r.id;
      check_true "served from the cache" r.cached
  | _ -> Alcotest.fail "expected the hit answered at admission");
  Alcotest.(check int) "the hit took no slot" 1 (Engine.pending t);
  (match submitted t client (miss_req ~threshold:0.32 4) with
  | Some (Protocol.Overloaded _) -> ()
  | _ -> Alcotest.fail "expected the second miss Overloaded");
  let acc = ref [] in
  Engine.drain t () ~on_response:(fun _ r -> acc := r.Protocol.response :: !acc);
  (match !acc with
  | [ Protocol.Result r ] ->
      Alcotest.(check int) "then the queued miss" 2 r.id;
      check_false "solved" r.cached
  | _ -> Alcotest.fail "expected the miss's Result");
  Alcotest.(check int) "the miss counted once" (misses + 1)
    (Obs.Metrics.read c_misses)

(* Only queued queries are journaled: a hit leaves the journal as it was. *)
let test_engine_hit_not_journaled () =
  with_fresh_instance @@ fun () ->
  let dir = temp_dir () in
  let t = Engine.create (engine_config dir) in
  let client = Engine.new_client t in
  ignore (run_one t client (verify_req ()));
  let before = journal_of dir in
  check_true "the miss was journaled" (contains_sub before "inflight");
  (match submitted t client (verify_req ~id:2 ()) with
  | Some (Protocol.Result r) -> check_true "hit" r.cached
  | _ -> Alcotest.fail "expected the hit answered at admission");
  Alcotest.(check string) "journal unchanged by the hit" before (journal_of dir);
  ignore (run_one t client (miss_req 3));
  check_true "a miss still writes its lines" (journal_of dir <> before)

(* With a fuel quota, a client's hit does not overtake its own queued
   query: that query's charge may move the rung the hit is served at. *)
let test_engine_quota_hit_waits_for_own_queue () =
  with_fresh_instance @@ fun () ->
  let t = Engine.create (engine_config ~fuel_quota:1_000_000 (temp_dir ())) in
  let client = Engine.new_client t in
  ignore (run_one t client (verify_req ()));
  check_true "miss queued" (Engine.submit t client (miss_req 2) = None);
  check_true "own hit queued behind it"
    (Engine.submit t client (verify_req ~id:3 ()) = None);
  (* another client has nothing queued: its hit is answered now *)
  (match submitted t (Engine.new_client t) (verify_req ~id:4 ()) with
  | Some (Protocol.Result r) -> check_true "other client's hit" r.cached
  | _ -> Alcotest.fail "expected the other client's hit at admission");
  let acc = ref [] in
  Engine.drain t () ~on_response:(fun _ r -> acc := r.Protocol.response :: !acc);
  match List.rev !acc with
  | [ Protocol.Result a; Protocol.Result b ] ->
      Alcotest.(check (list int)) "in submission order" [ 2; 3 ] [ a.id; b.id ];
      check_true "the queued hit is still a hit" b.cached
  | _ -> Alcotest.fail "expected two Results"

(* A cached reply's frame is the fresh reply's frame with the cached flag
   set, whether the runner or admission answers it. Either way the payload
   is what printing the response gives. *)
let test_engine_cached_frame_bytes () =
  with_fresh_instance @@ fun () ->
  let same_frame (r : Protocol.reply) =
    Alcotest.(check string) "payload is the printed response"
      (Protocol.response_to_string r.response) r.payload
  in
  let dir = temp_dir () in
  let t = Engine.create (engine_config dir) in
  let client = Engine.new_client t in
  (match
     ( run_one_replies t client (verify_req ()),
       run_one_replies t client (verify_req ~id:2 ()) )
   with
  | ( [ ({ response = Protocol.Result fresh; _ } as r1) ],
      [ ({ response = Protocol.Result hit; _ } as r2) ] ) ->
      check_true "exact hit" hit.cached;
      same_frame r1;
      same_frame r2;
      Alcotest.(check string) "exact hit: the fresh frame, cached"
        (Protocol.response_to_string
           (Protocol.Result { fresh with id = 2; cached = true }))
        r2.payload
  | _ -> Alcotest.fail "expected two Results");
  (* a second engine on the same cache: the first query encodes the pair
     on the runner and hits there, the second is answered at admission *)
  let t = Engine.create (engine_config dir) in
  let client = Engine.new_client t in
  match
    ( run_one_replies t client (verify_req ()),
      Engine.submit t client (verify_req ~id:2 ()) )
  with
  | ( [ ({ response = Protocol.Result a; _ } as r1) ],
      Some ({ response = Protocol.Result b; _ } as r2) ) ->
      check_true "both hit" (a.cached && b.cached);
      same_frame r1;
      same_frame r2;
      Alcotest.(check string) "runner and admission frames agree"
        (Protocol.response_to_string (Protocol.Result { a with id = 2 }))
        r2.payload
  | _ -> Alcotest.fail "expected two cached Results"

(* The cache answers only from an entry whose domain equals the query box;
   that loses no hit because the formula hash of a pair prints its domain,
   so every Table I pair has its own key and moving one bound by one ulp
   changes it. *)
let test_cache_key_carries_domain () =
  let problems = Encoder.encode_all Registry.paper_five in
  let hashes = List.map (fun p -> Verify.formula_hash [ p ]) problems in
  Alcotest.(check int) "29 Table I pairs" 29 (List.length problems);
  Alcotest.(check int) "29 distinct formula hashes" 29
    (List.length (List.sort_uniq String.compare hashes));
  let p = List.hd problems in
  let v = List.hd (Box.vars p.Encoder.domain) in
  let i = Box.get p.Encoder.domain v in
  let moved =
    { p with
      Encoder.domain =
        Box.set p.Encoder.domain v
          (Interval.make (Interval.inf i) (Float.succ (Interval.sup i))) }
  in
  check_false "one ulp on one bound changes the hash"
    (String.equal (Verify.formula_hash [ p ]) (Verify.formula_hash [ moved ]));
  (* a verified entry over a box around pbe/ec1's domain, planted under the
     engine's key, is not an answer: the engine solves, and its hit comes
     from the entry over the encoded domain *)
  with_fresh_instance @@ fun () ->
  let problem = Option.get (Encoder.encode (Registry.find "pbe") Conditions.Ec1) in
  let wide =
    Box.make
      (List.map
         (fun v ->
           let i = Box.get problem.Encoder.domain v in
           (v, Interval.make (Interval.inf i -. 1.) (Interval.sup i +. 1.)))
         (Box.vars problem.Encoder.domain))
  in
  let dir = temp_dir () in
  Verdict_cache.put (Verdict_cache.open_dir dir)
    ~config_hash:(Verify.config_hash (quick_verify ()))
    ~formula_hash:(Verify.formula_hash [ problem ])
    (outcome ~box:wide ());
  let t = Engine.create (engine_config dir) in
  let client = Engine.new_client t in
  match
    ( run_one t client (verify_req ()),
      Engine.submit t client (verify_req ~id:2 ()) )
  with
  | [ Protocol.Result a ], Some { response = Protocol.Result b; _ } ->
      check_false "the wider entry is not served" a.cached;
      check_true "the second query hits at admission" b.cached;
      check_true "the hit's entry is over the encoded domain"
        (Box.equal b.outcome.Outcome.domain problem.Encoder.domain)
  | _ -> Alcotest.fail "expected two Results"

(* A crash replays the queued misses and only them: the hit answered at
   admission left no journal line. *)
let test_engine_replay_skips_hits () =
  with_fresh_instance @@ fun () ->
  let dir = temp_dir () in
  let t1 = Engine.create (engine_config dir) in
  let c1 = Engine.new_client t1 in
  ignore (run_one t1 c1 (verify_req ()));
  check_true "hit answered" (submitted t1 c1 (verify_req ~id:2 ()) <> None);
  check_true "miss queued" (Engine.submit t1 c1 (miss_req 3) = None);
  (* the engine "crashes" with the miss unfinished *)
  let replays = Obs.Metrics.read c_replays in
  let calls = Obs.Metrics.read c_solver_calls in
  let t2 = Engine.create (engine_config dir) in
  Alcotest.(check int) "only the miss replayed" (replays + 1)
    (Obs.Metrics.read c_replays);
  check_true "the replay solved it" (Obs.Metrics.read c_solver_calls > calls);
  match submitted t2 (Engine.new_client t2) (miss_req 4) with
  | Some (Protocol.Result r) -> check_true "its verdict is cached" r.cached
  | _ -> Alcotest.fail "expected the replayed miss answered at admission"

(* ---- daemon over a real socket --------------------------------------- *)

let test_daemon_in_process () =
  with_fresh_instance @@ fun () ->
  let dir = temp_dir () in
  let socket = Filename.concat dir "s.sock" in
  let stop = Atomic.make false in
  let cfg =
    {
      Daemon.engine = engine_config (Filename.concat dir "cache");
      socket_path = socket;
      progress_interval_ms = 0;
    }
  in
  let th = Thread.create (fun () -> Daemon.run ~stop:(fun () -> Atomic.get stop) cfg) () in
  let rec wait_ready n =
    if n = 0 then Alcotest.fail "daemon socket never came up";
    match Protocol.connect socket with
    | fd -> fd
    | exception Unix.Unix_error _ ->
        Thread.delay 0.05;
        wait_ready (n - 1)
  in
  let fd = wait_ready 100 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.set stop true;
      Thread.join th)
    (fun () ->
      check_true "ping over the socket"
        (Protocol.call fd Protocol.Ping = [ Protocol.Pong ]);
      let r1 =
        match Protocol.call fd (verify_req ()) with
        | [ Protocol.Result r ] ->
            check_false "fresh solve" r.cached;
            r.outcome
        | _ -> Alcotest.fail "expected a Result over the socket"
      in
      (* a second connection shares the daemon's cache *)
      let fd2 = wait_ready 1 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
        (fun () ->
          match Protocol.call fd2 (verify_req ~id:2 ()) with
          | [ Protocol.Result r ] ->
              check_true "cached for the second client" r.cached;
              Alcotest.(check string) "byte-identical across connections"
                (bytes_of r1)
                (bytes_of r.outcome)
          | _ -> Alcotest.fail "expected a Result on the second connection");
      (* a hit sent behind a slow miss on the same connection comes back
         first, and [call] picks it out by id; the miss's reply follows. A
         receive timeout turns a lost reply into a failure, not a hang. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.;
      Protocol.write_frame fd
        (Protocol.request_to_string (miss_req ~threshold:0.02 3));
      (match Protocol.call fd (verify_req ~id:4 ()) with
      | [ Protocol.Result r ] ->
          Alcotest.(check int) "the hit's reply" 4 r.id;
          check_true "cached" r.cached
      | _ -> Alcotest.fail "expected the hit's Result");
      match Option.map Protocol.response_of_string (Protocol.read_frame fd) with
      | Some (Protocol.Result r) ->
          Alcotest.(check int) "then the miss's reply" 3 r.id;
          check_false "solved" r.cached
      | _ -> Alcotest.fail "expected the miss's Result")

(* ---- CLI daemon: SIGKILL, torn commit, restart ------------------------ *)

(* Process-level certification of the crash contract, driving the
   installed binary (supplied as XCV_CLI by the @service gate; the
   scenario is worker-count independent, so only the workers=4 pass runs
   it). Three daemons share one story:
   (a) a clean daemon solves a pair and is SIGKILLed after replying;
   (b) a daemon restarted on the same cache dir serves the identical
       bytes from the cache;
   (c) a daemon with XCV_SERVE_KILL_AFTER=1 commits, tears its own group
       file and SIGKILLs itself mid-write — the next daemon on that dir
       repairs the tail and still serves the committed verdict. *)
let test_cli_daemon_kill_restart () =
  match Sys.getenv_opt "XCV_CLI" with
  | None -> ()
  | Some _ when test_workers = 1 -> ()
  | Some cli ->
      let dir = temp_dir () in
      let path f = Filename.concat dir f in
      let serve_flags cache =
        [ "serve"; "--socket"; path "s.sock"; "--cache-dir"; path cache;
          "--fuel"; "25"; "--threshold"; "0.3"; "-j"; "2" ]
      in
      (* every spawned daemon is tracked so a failing assert cannot leak a
         live child into the zombie-free checks downstream *)
      let live = ref [] in
      let spawn ?(env = [||]) cache =
        (try Sys.remove (path "s.sock") with Sys_error _ -> ());
        let out =
          Unix.openfile (path "daemon.log")
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
            0o644
        in
        let pid =
          Unix.create_process_env cli
            (Array.of_list (cli :: serve_flags cache))
            (Array.append (Unix.environment ()) env)
            Unix.stdin out out
        in
        Unix.close out;
        live := pid :: !live;
        pid
      in
      let rec wait_ready n =
        if n = 0 then Alcotest.fail "daemon socket never came up";
        match Protocol.connect (path "s.sock") with
        | fd -> fd
        | exception Unix.Unix_error _ ->
            Unix.sleepf 0.05;
            wait_ready (n - 1)
      in
      let query fd = Protocol.call fd (verify_req ()) in
      let kill_and_reap pid =
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        live := List.filter (fun p -> p <> pid) !live
      in
      Fun.protect ~finally:(fun () -> List.iter kill_and_reap !live)
      @@ fun () ->
      (* (a) clean daemon: fresh solve *)
      let pid = spawn "cache" in
      let fd = wait_ready 200 in
      let r1 =
        match query fd with
        | [ Protocol.Result r ] -> r.outcome
        | _ -> Alcotest.fail "expected a Result from the clean daemon"
      in
      Unix.close fd;
      kill_and_reap pid;
      (* (b) restart on the same cache: cached, byte-identical *)
      let pid = spawn "cache" in
      let fd = wait_ready 200 in
      (match query fd with
      | [ Protocol.Result r ] ->
          check_true "restart serves from cache" r.cached;
          Alcotest.(check string) "byte-identical across SIGKILL restart"
            (bytes_of r1) (bytes_of r.outcome)
      | _ -> Alcotest.fail "expected a Result after restart");
      Unix.close fd;
      kill_and_reap pid;
      (* (c) kill-after-commit: the daemon tears its group file and dies *)
      let pid = spawn ~env:[| "XCV_SERVE_KILL_AFTER=1" |] "cache2" in
      let fd = wait_ready 200 in
      (match query fd with
      | _ -> Alcotest.fail "daemon should have died before replying"
      | exception (Failure _ | Unix.Unix_error _ | End_of_file) -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match Unix.waitpid [] pid with
      | _, Unix.WSIGNALED s when s = Sys.sigkill ->
          live := List.filter (fun p -> p <> pid) !live
      | _, st ->
          Alcotest.failf "expected SIGKILL, got %s"
            (status_to_string st));
      let group =
        match
          Sys.readdir (path "cache2") |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
        with
        | [ f ] -> Filename.concat (path "cache2") f
        | fs -> Alcotest.failf "expected 1 group file, got %d" (List.length fs)
      in
      check_true "the kill left a torn tail on disk"
        (Serialize.read_checkpoint group).Serialize.truncated;
      (* the restarted daemon repairs the tail and serves the committed
         verdict — the same verdict bytes the clean daemon produced (its
         own solve, so wall time is stripped before comparing) *)
      let pid = spawn "cache2" in
      let fd = wait_ready 200 in
      (match query fd with
      | [ Protocol.Result r ] ->
          check_true "served from the repaired cache" r.cached;
          Alcotest.(check string) "byte-identical after torn-commit recovery"
            (bytes_of (strip_elapsed r1))
            (bytes_of (strip_elapsed r.outcome))
      | _ -> Alcotest.fail "expected a Result after recovery");
      Unix.close fd;
      kill_and_reap pid;
      check_false "repaired on open"
        (Serialize.read_checkpoint group).Serialize.truncated

(* ---- satellite regressions ------------------------------------------- *)

(* a checkpointed campaign that survived a kill must repair its torn tail
   before appending — otherwise the resumed pair hides behind the tear *)
let test_campaign_repairs_before_append () =
  let cfg = quick_verify () in
  let lyp = [ Registry.find "lyp" ] in
  let p = Filename.concat (temp_dir ()) "camp.ckpt" in
  let first =
    fst (Verify.campaign ~config:cfg ~checkpoint:p lyp)
  in
  let n = List.length first in
  check_true "campaign has pairs" (n >= 1);
  let clean = read_file p in
  (* simulate a kill mid-append: tear the last entry in half *)
  let torn_at = String.length clean - (String.length clean / 4) in
  let oc = open_out_bin p in
  output_string oc (String.sub clean 0 torn_at);
  close_out oc;
  check_true "tail is torn" (Serialize.read_checkpoint p).Serialize.truncated;
  let second =
    fst (Verify.campaign ~config:cfg ~checkpoint:p ~resume:p lyp)
  in
  Alcotest.(check int) "same pair count" n (List.length second);
  let ck = Serialize.read_checkpoint p in
  check_false "repaired before appending" ck.Serialize.truncated;
  Alcotest.(check int) "every pair on disk, none hidden" n
    (List.length ck.Serialize.entries);
  (* the torn pair is re-solved on resume, so wall time differs; every
     verdict-bearing byte must still match *)
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical verdict bytes"
        (bytes_of (strip_elapsed a))
        (bytes_of (strip_elapsed b)))
    first second

let test_progress_relabel () =
  let path = Filename.temp_file "xcvprogress" ".log" in
  let oc = open_out path in
  let now = ref 0 in
  Obs.Clock.set (fun () -> !now);
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.disable ();
      Obs.Clock.reset ();
      close_out_noerr oc)
    (fun () ->
      Obs.Progress.enable ~interval_ns:1 ~out:oc ~label:"service"
        ~total_pairs:0 ();
      now := 10;
      Obs.Progress.tick ();
      (* the daemon retags the line with the query id it is solving *)
      Obs.Progress.relabel "query 42";
      now := 20;
      Obs.Progress.tick ();
      Obs.Progress.disable ());
  let log = read_file path in
  check_true "line carried the service label"
    (contains_sub log "[campaign service]");
  check_true "relabel retagged the line with the query id"
    (contains_sub log "[campaign query 42]")

let suite =
  [
    case "cache roundtrip" test_cache_roundtrip;
    qcheck_cache_hit_identity;
    case "cache key carries the domain" test_cache_key_carries_domain;
    case "concurrent writers" test_cache_concurrent_writers;
    case "kill mid-commit: torn tail repaired" test_cache_kill_mid_commit;
    case "ENOSPC and EINTR injection" test_cache_enospc_and_eintr;
    case "group creation obeys the I/O plan" test_cache_group_creation_faults;
    qcheck_request_roundtrip;
    qcheck_response_roundtrip;
    case "result response roundtrip" test_result_roundtrip;
    qcheck_result_splice;
    qcheck_cache_entry_line;
    case "frame roundtrip" test_frame_roundtrip;
    case "torn frame detected" test_frame_torn_write;
    case "frame EINTR storm writes nothing" test_frame_eintr_storm;
    slow_case "cache hit: zero solver calls, identical bytes"
      test_engine_cache_hit_zero_solver_calls;
    slow_case "cache survives engine restart" test_engine_cache_survives_reopen;
    slow_case "deadline yields a partial verdict map"
      test_engine_deadline_partial;
    slow_case "admission control rejects past max-inflight"
      test_engine_overload;
    slow_case "quota degrades before refusing"
      test_engine_quota_degrades_then_refuses;
    slow_case "quota rung 2" test_engine_quota_rung2;
    slow_case "cancellation yields a partial verdict map"
      test_engine_cancellation_partial;
    slow_case "campaign streams results then done" test_engine_campaign_stream;
    slow_case "each pair encoded once per engine"
      test_engine_encodes_each_pair_once;
    case "unknown names fail cleanly" test_engine_unknown_names;
    slow_case "journal replay after crash" test_engine_journal_replay;
    case "ping and stats" test_engine_ping_stats;
    slow_case "a hit is answered at once, past max-inflight and a queued miss"
      test_engine_hit_at_admission;
    slow_case "a hit leaves the journal unchanged" test_engine_hit_not_journaled;
    slow_case "with a quota, a hit waits for its client's queue"
      test_engine_quota_hit_waits_for_own_queue;
    slow_case "cached frames equal fresh frames, exact and sub-box"
      test_engine_cached_frame_bytes;
    slow_case "replay after crash skips answered hits"
      test_engine_replay_skips_hits;
    slow_case "daemon over a unix socket" test_daemon_in_process;
    slow_case "CLI daemon: SIGKILL, torn commit, restart byte-identity"
      test_cli_daemon_kill_restart;
    slow_case "campaign repairs torn checkpoint before appending"
      test_campaign_repairs_before_append;
    case "progress relabel" test_progress_relabel;
  ]
