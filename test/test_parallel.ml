open Testutil

let test_default_workers () =
  check_true "at least one worker" (Worklist.default_workers () >= 1)

let test_solver_calls_in_parallel () =
  (* Solver calls on prebuilt formulas are construction-free and safe to
     fan out over worker domains; verify results match the sequential run. *)
  let x = Expr.var "x" in
  let atom = Form.le (Expr.sub (Expr.sqr x) (Expr.int 2)) in
  let boxes =
    List.init 8 (fun i ->
        let lo = float_of_int i in
        (i, Box.make [ ("x", Interval.make lo (lo +. 1.0)) ]))
  in
  let verdict b =
    match fst (Icp.solve Icp.default_config b [ atom ]) with
    | Icp.Unsat -> 0
    | Icp.Sat _ -> 1
    | Icp.Timeout -> 2
  in
  let seq = List.map (fun (i, b) -> (i, verdict b)) boxes in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:4
      ~compare:(fun (i, _) (j, _) -> Int.compare i j)
      ~handle:(fun (i, b) -> ((i, verdict b), []))
      boxes
  in
  check_true "nothing dropped" (dropped = []);
  Alcotest.(check (list (pair int int)))
    "same verdicts" seq
    (List.sort compare results)

(* ---- worklist scheduler -------------------------------------------- *)

let test_worklist_priority_order () =
  (* With one worker and tasks that spawn nothing, execution follows the
     comparator exactly: smallest first. *)
  let order = ref [] in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:1 ~compare:Int.compare
      ~handle:(fun x ->
        order := x :: !order;
        (Some x, []))
      [ 5; 1; 4; 2; 3 ]
  in
  Alcotest.(check (list int)) "comparator order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Alcotest.(check int) "all processed" 5 (List.length results);
  Alcotest.(check (list int)) "nothing dropped" [] dropped

let test_worklist_spawns_children () =
  (* Count the nodes of a depth-bounded binary tree via spawned subtasks. *)
  let handle (depth, _id) =
    if depth >= 4 then (Some 1, [])
    else (Some 1, [ (depth + 1, 0); (depth + 1, 1) ])
  in
  List.iter
    (fun workers ->
      let { Worklist.results; dropped } =
        Worklist.process ~workers ~compare:(fun a b -> compare a b) ~handle
          [ (0, 0) ]
      in
      Alcotest.(check int)
        (Printf.sprintf "2^5 - 1 nodes at workers=%d" workers)
        31
        (List.length (List.filter_map Fun.id results));
      Alcotest.(check int) "no drops" 0 (List.length dropped))
    [ 1; 4 ]

let test_worklist_stop_drains () =
  (* A stop that trips after the third execution: the remaining initial
     tasks must come back in [dropped], not vanish. *)
  let executed = Atomic.make 0 in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:1 ~compare:Int.compare
      ~stop:(fun () -> Atomic.get executed >= 3)
      ~handle:(fun x ->
        Atomic.incr executed;
        (Some x, []))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let done_ = List.filter_map Fun.id results in
  Alcotest.(check int) "stopped after three" 3 (List.length done_);
  Alcotest.(check (list int)) "rest drained in order" [ 4; 5; 6 ]
    (List.sort Int.compare dropped)

exception Kaboom

let test_worklist_exception_propagation () =
  Alcotest.check_raises "handler failure re-raised" Kaboom (fun () ->
      ignore
        (Worklist.process ~workers:4 ~compare:Int.compare
           ~handle:(fun x -> if x = 17 then raise Kaboom else (Some x, []))
           (List.init 64 Fun.id)))

let test_worklist_recover_isolates () =
  (* With a recover callback, a failing task becomes a result and every
     other task still runs — at any worker count. *)
  List.iter
    (fun workers ->
      let { Worklist.results; dropped } =
        Worklist.process ~workers ~compare:Int.compare
          ~recover:(fun x _ -> (-x, []))
          ~handle:(fun x -> if x mod 7 = 3 then raise Kaboom else (x, []))
          (List.init 64 Fun.id)
      in
      Alcotest.(check int)
        (Printf.sprintf "all tasks accounted for at workers=%d" workers)
        64 (List.length results);
      Alcotest.(check int) "nothing dropped" 0 (List.length dropped);
      Alcotest.(check int) "failures routed through recover" 9
        (List.length (List.filter (fun r -> r < 0) results)))
    [ 1; 4 ]

let test_worklist_recover_spawns_children () =
  (* Recovery can reinject subtasks (the verifier splits errored boxes). *)
  let { Worklist.results; _ } =
    Worklist.process ~workers:2 ~compare:Int.compare
      ~recover:(fun x _ -> (0, if x < 8 then [ x + 100 ] else []))
      ~handle:(fun x ->
        if x < 100 then raise Kaboom else (x, []))
      [ 1; 2 ]
  in
  Alcotest.(check int) "recovered children processed" 4 (List.length results);
  Alcotest.(check int) "children ran the normal path" 2
    (List.length (List.filter (fun r -> r > 100) results))

let test_worklist_recover_raising_aborts () =
  (* A recover that itself raises falls back to fail-fast. *)
  Alcotest.check_raises "recover failure re-raised" Kaboom (fun () ->
      ignore
        (Worklist.process ~workers:2 ~compare:Int.compare
           ~recover:(fun _ e -> raise e)
           ~handle:(fun x -> if x = 5 then raise Kaboom else (x, []))
           (List.init 16 Fun.id)))

let test_worklist_sequential_fallback () =
  (* workers=1 spawns no domain: every task runs on the calling domain. *)
  let caller = (Domain.self () :> int) in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:1 ~compare:Int.compare
      ~handle:(fun x -> (((Domain.self () :> int), x * 2), []))
      (List.init 100 Fun.id)
  in
  check_true "every task ran on the caller"
    (List.for_all (fun (d, _) -> d = caller) results);
  Alcotest.(check (list int)) "results in comparator order"
    (List.init 100 (fun x -> x * 2))
    (List.map snd results);
  Alcotest.(check (list int)) "nothing dropped" [] dropped

let test_worklist_empty_frontier () =
  List.iter
    (fun workers ->
      let calls = Atomic.make 0 in
      let { Worklist.results; dropped } =
        Worklist.process ~workers ~compare:Int.compare
          ~handle:(fun x ->
            Atomic.incr calls;
            (x, []))
          []
      in
      Alcotest.(check (list int))
        (Printf.sprintf "no results at workers=%d" workers)
        [] results;
      Alcotest.(check (list int)) "nothing dropped" [] dropped;
      Alcotest.(check int) "handle never called" 0 (Atomic.get calls))
    [ 1; 8 ]

let test_worklist_more_workers_than_tasks () =
  let { Worklist.results; dropped } =
    Worklist.process ~workers:8 ~compare:Int.compare
      ~handle:(fun x -> (2 * x, []))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "3 tasks, 8 workers" [ 2; 4; 6 ]
    (List.sort Int.compare results);
  Alcotest.(check (list int)) "nothing dropped" [] dropped

let test_worklist_each_task_once () =
  (* At four workers every task is handled exactly once. *)
  let { Worklist.results; dropped } =
    Worklist.process ~workers:4 ~compare:Int.compare
      ~handle:(fun x -> (x * x, []))
      (List.init 500 Fun.id)
  in
  Alcotest.(check (list int)) "one result per task"
    (List.init 500 (fun x -> x * x))
    (List.sort Int.compare results);
  Alcotest.(check (list int)) "nothing dropped" [] dropped

let test_worklist_stops_claiming_after_failure () =
  (* After a failure no worker claims further tasks: at one worker the
     failing first task is the only one run; at two, strictly fewer than
     all of them run. *)
  let ran workers =
    let ran = Atomic.make 0 in
    (try
       ignore
         (Worklist.process ~workers ~compare:Int.compare
            ~handle:(fun x ->
              Atomic.incr ran;
              if x = 0 then raise Kaboom;
              Domain.cpu_relax ();
              (x, []))
            (List.init 10_000 Fun.id))
     with Kaboom -> ());
    Atomic.get ran
  in
  Alcotest.(check int) "workers=1 stops at the failing task" 1 (ran 1);
  let n = ran 2 in
  check_true
    (Printf.sprintf "workers=2 skipped most of the frontier (ran %d)" n)
    (n < 10_000)

let test_worklist_capacity_overflow () =
  (* A heap bound of 4 under a 127-node binary tree seeded with ten roots:
     the initial tasks and children past the bound run locally, and none
     is lost or run twice. *)
  let handle (depth, id) =
    (id, if depth >= 6 then [] else [ (depth + 1, (2 * id) + 1); (depth + 1, (2 * id) + 2) ])
  in
  List.iter
    (fun workers ->
      let { Worklist.results; dropped } =
        Worklist.process ~workers ~capacity:4 ~compare:compare ~handle
          ((0, 0) :: List.init 9 (fun i -> (6, 1000 + i)))
      in
      Alcotest.(check (list int))
        (Printf.sprintf "every node once at workers=%d" workers)
        (List.init 127 Fun.id @ List.init 9 (fun i -> 1000 + i))
        (List.sort Int.compare results);
      Alcotest.(check int) "nothing dropped" 0 (List.length dropped))
    [ 1; 4 ]

let test_worklist_stop_drains_overflow () =
  (* With a heap bound of 2 the last four initial tasks run locally first;
     a stop after three executions drops the fourth of them and both heap
     entries, so results and drops partition the tasks. *)
  let executed = Atomic.make 0 in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:1 ~capacity:2 ~compare:Int.compare
      ~stop:(fun () -> Atomic.get executed >= 3)
      ~handle:(fun x ->
        Atomic.incr executed;
        (x, []))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check (list int)) "overflow tasks ran" [ 3; 4; 5 ]
    (List.sort Int.compare results);
  Alcotest.(check (list int)) "the rest dropped" [ 1; 2; 6 ]
    (List.sort Int.compare dropped)

let test_worklist_stop_partitions_parallel () =
  (* At four workers a stop mid-run may land anywhere, but every task is
     either handled or dropped, exactly once. *)
  let executed = Atomic.make 0 in
  let { Worklist.results; dropped } =
    Worklist.process ~workers:4 ~compare:Int.compare
      ~stop:(fun () -> Atomic.get executed >= 10)
      ~handle:(fun x ->
        Atomic.incr executed;
        (x, []))
      (List.init 100 Fun.id)
  in
  check_true "stopped early" (List.length results < 100);
  Alcotest.(check (list int)) "results and drops partition the tasks"
    (List.init 100 Fun.id)
    (List.sort Int.compare (results @ dropped))

let test_worklist_task_counter () =
  (* [worklist.tasks] counts heap and overflow tasks alike, plus each
     [external_task], at any worker count. *)
  let handle (depth, id) =
    ((), if depth >= 6 then [] else [ (depth + 1, (2 * id) + 1); (depth + 1, (2 * id) + 2) ])
  in
  List.iter
    (fun workers ->
      let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
      let snap =
        Fun.protect
          ~finally:(fun () -> ignore (Obs.Metrics.install prev))
          (fun () ->
            ignore
              (Worklist.process ~workers ~capacity:4 ~compare ~handle
                 [ (0, 0) ]);
            Worklist.external_task ();
            Worklist.external_task ();
            Obs.Metrics.snapshot ())
      in
      Alcotest.(check int)
        (Printf.sprintf "127 tasks + 2 external at workers=%d" workers)
        129
        (List.assoc "worklist.tasks" snap.Obs.Metrics.counters))
    [ 1; 4 ]

(* ---- worker-count equivalence (QCheck) ------------------------------ *)

(* The scheduler's contract: the outcome is a pure function of the problem,
   not of the worker count. The atom is built once here, on the main domain
   (hash-consing is not thread-safe); the property then verifies random
   boxes at workers=1 and workers=4 and demands identical paint logs. *)
let circle_atom =
  Form.ge
    (Expr.sub
       (Expr.add (Expr.sqr (Expr.var "x")) (Expr.sqr (Expr.var "y")))
       (Expr.int 2))

let equiv_config workers =
  {
    Verify.default_config with
    threshold = 0.4;
    solver =
      { Icp.default_config with fuel = 60; delta = 1e-2; contractor_rounds = 2 };
    workers;
    use_taylor = false;
  }

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

let small_box_gen =
  QCheck2.Gen.(
    let dim =
      map2
        (fun lo w -> Interval.make lo (lo +. w))
        (float_range (-2.0) 1.0) (float_range 0.2 1.5)
    in
    map2 (fun ix iy -> Box.make [ ("x", ix); ("y", iy) ]) dim dim)

let verdicts workers box =
  let o =
    Verify.run_custom ~config:(equiv_config workers) ~dfa_label:"prop"
      ~condition_label:"circle" ~domain:box ~psi:circle_atom ()
  in
  List.map region_fingerprint o.Outcome.regions

let worklist_equivalence =
  qcheck ~count:40 "workers=1 and workers=4 paint identical logs"
    small_box_gen (fun box ->
      let seq = verdicts 1 box and par = verdicts 4 box in
      List.sort String.compare seq = List.sort String.compare par
      (* the path sort also makes the *order* deterministic *)
      && seq = par)

let suite =
  [
    case "default workers" test_default_workers;
    case "parallel solver calls" test_solver_calls_in_parallel;
    case "worklist priority order" test_worklist_priority_order;
    case "worklist spawns children" test_worklist_spawns_children;
    case "worklist stop drains remainder" test_worklist_stop_drains;
    case "worklist exception propagation" test_worklist_exception_propagation;
    case "worklist recover isolates failures" test_worklist_recover_isolates;
    case "worklist recover spawns children" test_worklist_recover_spawns_children;
    case "worklist raising recover aborts" test_worklist_recover_raising_aborts;
    case "worklist sequential fallback" test_worklist_sequential_fallback;
    case "worklist empty frontier" test_worklist_empty_frontier;
    case "worklist more workers than tasks"
      test_worklist_more_workers_than_tasks;
    case "worklist handles each task once" test_worklist_each_task_once;
    case "worklist stops claiming after failure"
      test_worklist_stops_claiming_after_failure;
    case "worklist capacity overflow loses nothing"
      test_worklist_capacity_overflow;
    case "worklist stop drains overflow" test_worklist_stop_drains_overflow;
    case "worklist stop partitions tasks at four workers"
      test_worklist_stop_partitions_parallel;
    case "worklist task counter" test_worklist_task_counter;
    worklist_equivalence;
  ]
