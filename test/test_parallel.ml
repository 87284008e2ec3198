open Testutil

let test_sequential_fallback () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "workers=1 maps in order"
    (List.map (fun x -> x * 2) xs)
    (Pool.map ~workers:1 (fun x -> x * 2) xs)

let test_parallel_map_order () =
  let xs = List.init 500 Fun.id in
  Alcotest.(check (list int)) "workers=4 preserves order"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~workers:4 (fun x -> x * x) xs)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~workers:8 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.map ~workers:8 (fun x -> x) [ 7 ])

let test_more_workers_than_items () =
  Alcotest.(check (list int)) "3 items, 16 workers" [ 2; 4; 6 ]
    (Pool.map ~workers:16 (fun x -> 2 * x) [ 1; 2; 3 ])

exception Boom

let test_exception_propagation () =
  Alcotest.check_raises "first failure re-raised" Boom (fun () ->
      ignore
        (Pool.map ~workers:4
           (fun x -> if x = 37 then raise Boom else x)
           (List.init 100 Fun.id)))

let test_map_stops_claiming_after_failure () =
  (* After one worker fails, workers that observe the flag must not claim
     further items. With a failure on the first item and a barrier-free
     counter we can only assert an upper bound sanity check: strictly fewer
     than all items ran. *)
  let ran = Atomic.make 0 in
  (try
     ignore
       (Pool.map ~workers:2
          (fun x ->
            ignore (Atomic.fetch_and_add ran 1);
            if x = 0 then raise Boom;
            Domain.cpu_relax ();
            x)
          (List.init 10_000 Fun.id))
   with Boom -> ());
  check_true
    (Printf.sprintf "fail-fast skipped most of the list (ran %d)"
       (Atomic.get ran))
    (Atomic.get ran < 10_000)

let test_iter_effects () =
  let total = Atomic.make 0 in
  Pool.iter ~workers:4 (fun x -> ignore (Atomic.fetch_and_add total x))
    (List.init 101 Fun.id);
  Alcotest.(check int) "sum via iter" 5050 (Atomic.get total)

let test_default_workers () =
  check_true "at least one worker" (Pool.default_workers () >= 1)

let test_solver_calls_in_parallel () =
  (* Solver calls on prebuilt formulas are construction-free and safe to
     fan out; verify results match the sequential run. *)
  let x = Expr.var "x" in
  let atom = Form.le (Expr.sub (Expr.sqr x) (Expr.int 2)) in
  let boxes =
    List.init 8 (fun i ->
        let lo = float_of_int i in
        Box.make [ ("x", Interval.make lo (lo +. 1.0)) ])
  in
  let solve b = fst (Icp.solve Icp.default_config b [ atom ]) in
  let seq = List.map solve boxes in
  let par = Pool.map ~workers:4 solve boxes in
  List.iter2
    (fun a b ->
      let tag = function
        | Icp.Unsat -> 0
        | Icp.Sat _ -> 1
        | Icp.Timeout -> 2
      in
      Alcotest.(check int) "same verdict" (tag a) (tag b))
    seq par

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
    Verify.threshold = 0.4;
    solver =
      { Icp.default_config with fuel = 60; delta = 1e-2; contractor_rounds = 2 };
    deadline_seconds = None;
    workers;
    use_taylor = false;
    use_tape = true;
    split_heuristic = `Widest;
    retry = Verify.no_retry;
    jit = false;
    jit_cache = None;
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
    case "sequential fallback" test_sequential_fallback;
    case "parallel map preserves order" test_parallel_map_order;
    case "empty and singleton" test_empty_and_singleton;
    case "more workers than items" test_more_workers_than_items;
    case "exception propagation" test_exception_propagation;
    case "map stops claiming after failure" test_map_stops_claiming_after_failure;
    case "iter side effects" test_iter_effects;
    case "default workers" test_default_workers;
    case "parallel solver calls" test_solver_calls_in_parallel;
    case "worklist priority order" test_worklist_priority_order;
    case "worklist spawns children" test_worklist_spawns_children;
    case "worklist stop drains remainder" test_worklist_stop_drains;
    case "worklist exception propagation" test_worklist_exception_propagation;
    case "worklist recover isolates failures" test_worklist_recover_isolates;
    case "worklist recover spawns children" test_worklist_recover_spawns_children;
    case "worklist raising recover aborts" test_worklist_recover_raising_aborts;
    worklist_equivalence;
  ]
