open Testutil

(* The test helpers themselves: the NaN comparison semantics of
   [close_result] regressed once (a NaN-vs-finite mismatch slipped through
   the relative-tolerance branch with a misleading message), so pin the
   contract down. *)

let test_close_finite () =
  check_true "equal" (close_result 1.0 1.0 = Ok ());
  check_true "within tol" (close_result ~tol:1e-6 1.0 (1.0 +. 1e-9) = Ok ());
  check_true "outside tol"
    (match close_result ~tol:1e-12 1.0 1.1 with Error _ -> true | Ok () -> false)

let test_close_nan_both () =
  check_true "NaN agrees with NaN" (close_result Float.nan Float.nan = Ok ())

let expect_error ~needle result =
  match result with
  | Ok () -> Alcotest.fail "NaN mismatch accepted"
  | Error msg ->
      check_true
        (Printf.sprintf "message %S mentions %S" msg needle)
        (contains_sub msg needle)

let test_close_nan_mismatch () =
  (* the regression: these must FAIL, with the NaN named explicitly *)
  expect_error ~needle:"NaN" (close_result Float.nan 1.0);
  expect_error ~needle:"NaN" (close_result 1.0 Float.nan);
  expect_error ~needle:"NaN" (close_result ~tol:1e6 Float.nan 0.0)

let test_check_close_raises_on_nan_mismatch () =
  check_true "check_close propagates the failure"
    (match check_close "nan-vs-finite" Float.nan 2.0 with
    | () -> false
    | exception _ -> true)

let test_workers_knob () =
  check_true "test_workers positive" (test_workers >= 1)

(* The combinator form of [expr_gen], kept as its reference: the
   primitive generator must draw the same random values, so every seed
   keeps generating the same expressions (hash-consed, so [Expr.equal] is
   identity). *)
let combinator_expr_gen =
  let open QCheck2.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map Expr.const (float_range (-4.0) 4.0);
                return (Expr.var "x");
                return (Expr.var "y");
                map Expr.int (int_range (-3) 3);
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 Expr.add sub sub;
                map2 Expr.sub sub sub;
                map2 Expr.mul sub sub;
                map (fun e -> Expr.atan e) sub;
                map (fun e -> Expr.atan e) sub;
                map (fun e -> Expr.atan e) sub;
                map (fun e -> Expr.atan e) sub;
                map (fun e -> Expr.abs e) sub;
                map (fun e -> Expr.exp (Expr.mul (Expr.const 0.25) e)) sub;
                map2 (fun e k -> Expr.powi e k) sub (int_range 0 3);
              ])
        n)

let test_expr_gen_same_draws () =
  List.iter
    (fun seed ->
      let draw gen =
        QCheck2.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:200 gen
      in
      List.iteri
        (fun i (a, b) ->
          check_true
            (Printf.sprintf "seed %d, expression %d" seed i)
            (Expr.equal a b))
        (List.combine (draw combinator_expr_gen) (draw expr_gen)))
    [ 1; 2; 3 ]

(* Every operator the generator offers is drawn: over 200 expressions
   each kind of node appears. *)
let test_expr_gen_draws_every_operator () =
  let exprs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 1 |]) ~n:200 expr_gen
  in
  let kind (e : Expr.t) =
    match e.node with
    | Add _ -> Some "add"
    | Mul _ -> Some "mul"
    | Pow _ -> Some "pow"
    | Apply (Atan, _) -> Some "atan"
    | Apply (Abs, _) -> Some "abs"
    | Apply (Exp, _) -> Some "exp"
    | _ -> None
  in
  let seen =
    List.fold_left
      (fun acc e ->
        Expr.fold_dag
          (fun n acc ->
            match kind n with
            | Some k when not (List.mem k acc) -> k :: acc
            | _ -> acc)
          e acc)
      [] exprs
  in
  List.iter
    (fun k -> check_true (k ^ " drawn") (List.mem k seen))
    [ "add"; "mul"; "pow"; "atan"; "abs"; "exp" ]

(* A property that fails on every deep nest must shrink to a small
   counterexample in a few steps; the combinator form took 1,313 steps
   here, walking the nest one node at a time. *)
let test_expr_gen_shrinks_fast () =
  let cell =
    QCheck2.Test.make_cell ~count:200 ~name:"shallow" expr_gen (fun e ->
        Expr.depth e < 8)
  in
  match
    QCheck2.TestResult.get_state
      (QCheck2.Test.check_cell ~rand:(Random.State.make [| 18 |]) cell)
  with
  | QCheck2.TestResult.Failed { instances = c :: _ } ->
      check_true
        (Printf.sprintf "%d shrink steps <= 50" c.QCheck2.TestResult.shrink_steps)
        (c.QCheck2.TestResult.shrink_steps <= 50);
      check_true "counterexample at the depth bound"
        (Expr.depth c.QCheck2.TestResult.instance = 8)
  | _ -> Alcotest.fail "a depth-8 expression was expected at seed 18"

let suite =
  [
    case "close_result on finite floats" test_close_finite;
    case "close_result NaN = NaN" test_close_nan_both;
    case "close_result NaN mismatch fails" test_close_nan_mismatch;
    case "check_close raises on NaN mismatch" test_check_close_raises_on_nan_mismatch;
    case "worker knob" test_workers_knob;
    case "expr_gen draws as its combinator form" test_expr_gen_same_draws;
    case "expr_gen shrinks deep nests fast" test_expr_gen_shrinks_fast;
    case "expr_gen draws every operator" test_expr_gen_draws_every_operator;
  ]
