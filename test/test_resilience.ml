open Testutil

(* The resilience machinery: deterministic fault injection (Fault), error
   isolation and bounded retry in the verifier, and checkpoint/resume at
   campaign level. The core contract under test: fault decisions are a pure
   function of (seed, box, attempt), so a faulted campaign is exactly as
   deterministic as a clean one — at every worker count. *)

let circle_atom =
  Form.ge
    (Expr.sub
       (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
       (Expr.int 2))

let domain =
  Box.make
    [ ("x", Interval.make (-2.0) 2.0); ("y", Interval.make (-2.0) 2.0) ]

let config ?faults ?(retry = Verify.no_retry) ?(workers = test_workers) () =
  {
    Verify.default_config with
    threshold = 0.4;
    solver =
      {
        Icp.default_config with
        fuel = 60;
        delta = 1e-2;
        contractor_rounds = 2;
        faults;
      };
    workers;
    use_taylor = false;
    retry;
  }

let run ?faults ?retry ?workers () =
  Verify.run_custom
    ~config:(config ?faults ?retry ?workers ())
    ~dfa_label:"prop" ~condition_label:"circle" ~domain ~psi:circle_atom ()

let region_fingerprint (r : Outcome.region) =
  let dims =
    String.concat ";"
      (List.map
         (fun v ->
           let iv = Box.get r.Outcome.box v in
           Printf.sprintf "%s=[%h,%h]" v (Interval.inf iv) (Interval.sup iv))
         (Box.vars r.Outcome.box))
  in
  Printf.sprintf "%d|%s|%s" r.Outcome.depth
    (Outcome.status_name r.Outcome.status)
    dims

(* ---- the decision function ------------------------------------------ *)

let decide_is_pure =
  qcheck ~count:200 "decide is pure and rate-monotone"
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 5) (float_range 0.0 1.0))
    (fun (seed, attempt, rate) ->
      let key = Fault.key_of [ float_of_int seed; float_of_int attempt ] in
      let plan = Fault.make ~seed ~rate () in
      let d1 = Fault.decide plan ~attempt ~key
      and d2 = Fault.decide plan ~attempt ~key in
      let zero = Fault.make ~seed ~rate:0.0 () in
      let one = Fault.make ~seed ~rate:1.0 () in
      d1 = d2
      && Fault.decide zero ~attempt ~key = None
      && Fault.decide one ~attempt ~key <> None
      (* a faulted call at some rate stays faulted at every higher rate:
         the threshold draw is rate-independent *)
      && (d1 = None || Fault.decide one ~attempt ~key <> None))

let test_key_bit_exact () =
  let k1 = Fault.key_of [ 1.0; -0.0 ] and k2 = Fault.key_of [ 1.0; 0.0 ] in
  check_true "keys distinguish -0.0 from 0.0 (bit-exact)" (k1 <> k2);
  check_true "key is stable" (Fault.key_of [ 1.0; -0.0 ] = k1)

let test_env_hook () =
  Unix.putenv "XCV_FAULT_RATE" "0.25";
  Unix.putenv "XCV_FAULT_SEED" "7";
  (match Fault.of_env () with
  | Some p ->
      check_close "rate from env" 0.25 p.Fault.rate;
      check_true "seed from env" (p.Fault.seed = 7L)
  | None -> Alcotest.fail "of_env should pick up XCV_FAULT_RATE");
  Unix.putenv "XCV_FAULT_RATE" "junk";
  check_true "unparsable rate disables" (Fault.of_env () = None);
  Unix.putenv "XCV_FAULT_RATE" "0";
  check_true "zero rate disables" (Fault.of_env () = None)

(* ---- error isolation ------------------------------------------------- *)

(* With a Raise-only plan and no retries, a region is painted [error] iff
   the plan faults its box at attempt 0 — a fully deterministic oracle. *)
let test_error_paint_matches_plan () =
  let plan = Fault.make ~kinds:[ Fault.Raise ] ~seed:42 ~rate:0.4 () in
  let o = run ~faults:plan () in
  check_true "plan faults some box at this rate" (Outcome.has_error o);
  List.iter
    (fun (r : Outcome.region) ->
      let faulted =
        Fault.decide plan ~attempt:0 ~key:(Icp.fault_key r.Outcome.box)
        <> None
      in
      let painted_error =
        match r.Outcome.status with Outcome.Error _ -> true | _ -> false
      in
      check_true
        (Printf.sprintf "error paint == plan decision (%s)"
           (region_fingerprint r))
        (faulted = painted_error))
    o.Outcome.regions

(* Paint logs under fault injection are identical at 1 and 4 workers, and
   non-faulted boxes paint exactly as in the fault-free run. *)
let faulted_run_determinism =
  qcheck ~count:25 "faulted paints deterministic; non-faulted boxes clean"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let plan = Fault.make ~seed ~rate:0.3 () in
      let fp o = List.map region_fingerprint o.Outcome.regions in
      let faulted1 = run ~faults:plan ~workers:1 () in
      let faulted4 = run ~faults:plan ~workers:4 () in
      let clean = run ~workers:1 () in
      let clean_by_box =
        List.map
          (fun (r : Outcome.region) ->
            (Icp.fault_key r.Outcome.box,
             Outcome.status_name r.Outcome.status))
          clean.Outcome.regions
      in
      fp faulted1 = fp faulted4
      && List.for_all
           (fun (r : Outcome.region) ->
             let key = Icp.fault_key r.Outcome.box in
             if Fault.decide plan ~attempt:0 ~key <> None then true
             else
               match List.assoc_opt key clean_by_box with
               | None -> true (* box not reached by the clean run's tree *)
               | Some status ->
                   String.equal status
                     (Outcome.status_name r.Outcome.status))
           faulted1.Outcome.regions)

(* A NaN fault yields an uncertified model that float re-checking rejects:
   the box paints inconclusive, never crashes downstream consumers. *)
let test_nan_fault_is_inconclusive () =
  let plan = Fault.make ~kinds:[ Fault.Nan ] ~seed:1 ~rate:1.0 () in
  let o = run ~faults:plan () in
  check_true "has regions" (o.Outcome.regions <> []);
  List.iter
    (fun (r : Outcome.region) ->
      match r.Outcome.status with
      | Outcome.Inconclusive _ -> ()
      | s -> Alcotest.failf "expected inconclusive, got %s" (Outcome.status_name s))
    o.Outcome.regions;
  (* rendering and summaries must digest the NaN models *)
  ignore (Render.outcome_map o);
  ignore (Format.asprintf "%a" Outcome.pp_summary o)

(* ---- retry with fuel escalation -------------------------------------- *)

let test_retry_exhaustion () =
  (* rate 1.0: every attempt faults, so retries exhaust and every handled
     box paints error, with exactly max_retries retry events per box *)
  let plan = Fault.make ~kinds:[ Fault.Raise ] ~seed:3 ~rate:1.0 () in
  let retry = { Verify.max_retries = 2; fuel_growth = 2 } in
  let o = run ~faults:plan ~retry () in
  check_true "campaign completed" (o.Outcome.regions <> []);
  List.iter
    (fun (r : Outcome.region) ->
      match r.Outcome.status with
      | Outcome.Error _ -> ()
      | s -> Alcotest.failf "expected error, got %s" (Outcome.status_name s))
    o.Outcome.regions;
  Alcotest.(check int) "two retries per handled box"
    (2 * List.length o.Outcome.regions)
    o.Outcome.stats.Outcome.retries;
  Alcotest.(check int) "three attempts per handled box"
    (3 * List.length o.Outcome.regions)
    o.Outcome.stats.Outcome.solver_calls

let test_retry_rerolls_and_recovers () =
  (* Each retry re-rolls the fault dice: a region stays [error] iff the
     plan faults its box at every attempt 0..max_retries. *)
  let plan = Fault.make ~kinds:[ Fault.Raise ] ~seed:42 ~rate:0.4 () in
  let retry = { Verify.max_retries = 2; fuel_growth = 2 } in
  let no_retry_run = run ~faults:plan () in
  let retried = run ~faults:plan ~retry () in
  check_true "retries recorded" (retried.Outcome.stats.Outcome.retries > 0);
  let errors o =
    List.length
      (List.filter
         (fun (r : Outcome.region) ->
           match r.Outcome.status with Outcome.Error _ -> true | _ -> false)
         o.Outcome.regions)
  in
  check_true "retry can only reduce error paints"
    (errors retried <= errors no_retry_run);
  List.iter
    (fun (r : Outcome.region) ->
      let key = Icp.fault_key r.Outcome.box in
      let all_attempts_fault =
        List.for_all
          (fun attempt -> Fault.decide plan ~attempt ~key <> None)
          [ 0; 1; 2 ]
      in
      let painted_error =
        match r.Outcome.status with Outcome.Error _ -> true | _ -> false
      in
      check_true "error survives iff every attempt faults"
        (painted_error = all_attempts_fault))
    retried.Outcome.regions

let test_timeout_retry () =
  (* Timeout-only faults at rate 1.0 with one retry: both attempts time
     out, the box paints timeout (not error), one retry event per box. *)
  let plan = Fault.make ~kinds:[ Fault.Timeout ] ~seed:5 ~rate:1.0 () in
  let retry = { Verify.max_retries = 1; fuel_growth = 3 } in
  let o = run ~faults:plan ~retry () in
  List.iter
    (fun (r : Outcome.region) ->
      match r.Outcome.status with
      | Outcome.Timeout -> ()
      | s -> Alcotest.failf "expected timeout, got %s" (Outcome.status_name s))
    o.Outcome.regions;
  Alcotest.(check int) "one retry per handled box"
    (List.length o.Outcome.regions)
    o.Outcome.stats.Outcome.retries

let test_escalated_fuel_in_trace () =
  (* Retry events land in the trace at negative steps, before the box's
     final burst, and the trace fuel invariant still holds. *)
  let plan = Fault.make ~kinds:[ Fault.Timeout ] ~seed:5 ~rate:1.0 () in
  let retry = { Verify.max_retries = 1; fuel_growth = 3 } in
  let recorder = Trace.create () in
  let o =
    Verify.run_custom
      ~config:(config ~faults:plan ~retry ())
      ~recorder ~dfa_label:"prop" ~condition_label:"circle" ~domain
      ~psi:circle_atom ()
  in
  let events = Trace.events recorder in
  let retry_events =
    List.filter
      (fun ev ->
        match ev.Trace.kind with Trace.Retry _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "one retry event per region"
    (List.length o.Outcome.regions)
    (List.length retry_events);
  List.iter
    (fun ev -> check_true "retry steps are negative" (ev.Trace.step < 0))
    retry_events;
  Alcotest.(check int) "fuel invariant holds under retries"
    o.Outcome.stats.Outcome.total_expansions
    (Trace.total_fuel events)

(* ---- campaign-level supervision and checkpoint/resume ----------------- *)

let campaign_config =
  {
    Verify.default_config with
    threshold = 0.7;
    solver =
      { Icp.default_config with fuel = 80; delta = 1e-3; contractor_rounds = 2;
        faults = None };
    deadline_seconds = Some 10.0;
    use_taylor = false;
  }

let lyp = [ Registry.find "lyp" ]
let outcomes_of (pairs, _) = List.map fst pairs

let outcome_fingerprint (o : Outcome.t) =
  Printf.sprintf "%s/%s:%s" o.Outcome.dfa o.Outcome.condition
    (String.concat "," (List.map region_fingerprint o.Outcome.regions))

let test_faulted_campaign_completes () =
  (* the acceptance shape: a campaign under 20% fault injection still
     completes every pair; errored boxes surface as error paints *)
  let faulted =
    {
      campaign_config with
      Verify.solver =
        {
          campaign_config.Verify.solver with
          Icp.faults = Some (Fault.make ~seed:11 ~rate:0.2 ());
        };
    }
  in
  let clean = outcomes_of (Verify.campaign ~config:campaign_config lyp) in
  let outcomes = outcomes_of (Verify.campaign ~config:faulted lyp) in
  Alcotest.(check int) "every pair has an outcome" (List.length clean)
    (List.length outcomes);
  check_true "fault injection at 20% leaves visible error paints"
    (List.exists Outcome.has_error outcomes)

let test_checkpoint_resume_reproduces () =
  let path = Filename.temp_file "xcv" ".campaign" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      let full =
        outcomes_of
          (Verify.campaign ~config:campaign_config ~checkpoint:path lyp)
      in
      check_true "campaign produced outcomes" (List.length full >= 2);
      (* simulate a SIGKILL after the first pair: keep the campaign header
         and one checkpoint line plus a torn tail *)
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (List.nth lines 0);
          Out_channel.output_string oc "\n";
          Out_channel.output_string oc (List.nth lines 1);
          Out_channel.output_string oc "\n(outcome 3 (dfa to");
      let resumed =
        outcomes_of (Verify.campaign ~config:campaign_config ~resume:path lyp)
      in
      Alcotest.(check (list string)) "resumed campaign repaints identically"
        (List.map outcome_fingerprint full)
        (List.map outcome_fingerprint resumed);
      Alcotest.(check string) "Table I identical after resume"
        (Report.table1 full) (Report.table1 resumed))

let suite =
  [
    decide_is_pure;
    case "fault key is bit-exact" test_key_bit_exact;
    case "environment hook" test_env_hook;
    case "error paints match the plan" test_error_paint_matches_plan;
    faulted_run_determinism;
    case "NaN faults paint inconclusive" test_nan_fault_is_inconclusive;
    case "retry exhaustion" test_retry_exhaustion;
    case "retry re-rolls and recovers" test_retry_rerolls_and_recovers;
    case "timeout faults are retried" test_timeout_retry;
    case "retry events in trace" test_escalated_fuel_in_trace;
    slow_case "faulted campaign completes" test_faulted_campaign_completes;
    slow_case "checkpoint resume reproduces" test_checkpoint_resume_reproduces;
  ]
