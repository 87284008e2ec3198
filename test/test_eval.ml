open Testutil
open Expr

let x = var "x"
let y = var "y"

let test_basic_eval () =
  let env = [ ("x", 2.0); ("y", 3.0) ] in
  check_close "x+y" 5.0 (Eval.eval env (add x y));
  check_close "x*y^2" 18.0 (Eval.eval env (mul x (sqr y)));
  check_close "exp(log x)" 2.0 (Eval.eval env (exp (log x)));
  check_close "sqrt 2" (Stdlib.sqrt 2.0) (Eval.eval env (sqrt x));
  check_close "atan" (Stdlib.atan 2.0) (Eval.eval env (atan x));
  check_close "2^y" 8.0 (Eval.eval env (pow two y))

let test_unbound () =
  Alcotest.check_raises "unbound variable" (Eval.Unbound_variable "z")
    (fun () -> ignore (Eval.eval [ ("x", 1.0) ] (add x (var "z"))))

let test_pow_float () =
  check_close "integer power exact" 1024.0 (Eval.pow_float 2.0 10.0);
  check_close "negative base integer exponent" (-8.0) (Eval.pow_float (-2.0) 3.0);
  check_close "negative integer exponent" 0.25 (Eval.pow_float 2.0 (-2.0));
  check_true "negative base fractional is nan"
    (Float.is_nan (Eval.pow_float (-2.0) 0.5));
  check_close "zero^positive" 0.0 (Eval.pow_float 0.0 2.5);
  check_true "zero^negative is inf" (Eval.pow_float 0.0 (-1.0) = Float.infinity)

let test_piecewise_eval () =
  let pw = if_lt x y ~then_:(int 1) ~else_:(int 2) in
  check_close "x<y branch" 1.0 (Eval.eval [ ("x", 1.0); ("y", 2.0) ] pw);
  check_close "x>y default" 2.0 (Eval.eval [ ("x", 3.0); ("y", 2.0) ] pw);
  check_close "boundary goes to default" 2.0 (Eval.eval [ ("x", 2.0); ("y", 2.0) ] pw)

let test_compile_agrees () =
  let exprs =
    [
      add (mul x y) (exp (sub x one));
      div (add x (int 3)) (add (sqr y) one);
      if_lt x y ~then_:(sin x) ~else_:(cos y);
      powr (add (sqr x) one) (Rat.make 3 2);
      lambert_w (abs x);
      atan (mul x (tanh y));
    ]
  in
  List.iteri
    (fun i e ->
      let tape = Compile.compile ~vars:[ "x"; "y" ] e in
      List.iter
        (fun (xv, yv) ->
          let direct = Eval.eval [ ("x", xv); ("y", yv) ] e in
          let taped = Compile.run tape [| xv; yv |] in
          check_close
            (Printf.sprintf "expr %d at (%g, %g)" i xv yv)
            direct taped)
        [ (0.5, 1.5); (2.0, -1.0); (-0.3, 0.3); (4.0, 4.0) ])
    exprs

let test_compile_errors () =
  Alcotest.check_raises "missing variable"
    (Invalid_argument "Compile.compile: unbound variable \"y\"") (fun () ->
      ignore (Compile.compile ~vars:[ "x" ] (add x y)));
  let tape = Compile.compile ~vars:[ "x" ] (sqr x) in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Compile.run: arity mismatch") (fun () ->
      ignore (Compile.run tape [| 1.0; 2.0 |]))

let test_compile_sharing () =
  (* A DAG with a shared subterm should produce fewer instructions than the
     tree size. *)
  let shared = exp (mul x y) in
  let e = add (mul shared shared) (add shared one) in
  let tape = Compile.compile ~vars:[ "x"; "y" ] e in
  check_true "tape shorter than tree size"
    (Compile.length tape < tree_size e);
  Alcotest.(check int) "arity" 2 (Compile.arity tape)

(* The solver probes box midpoints on this tape once per expansion, so a
   run allocates the same whatever the tape's length: no register file per
   call (past 256 registers it would land in the major heap). *)
let test_run_allocation_flat () =
  let tape k =
    Compile.compile ~vars:[ "x"; "y" ]
      (add_n
         (List.init k (fun j ->
              mul (add x (const (float_of_int j))) (add y (const 0.5)))))
  in
  let short = tape 2 and long = tape 200 in
  check_true "long tape is long" (Compile.length long > 256);
  let words_of t =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Compile.run t [| 1.5; -0.25 |]));
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  (* warm-up: grow this domain's registers to the long tape *)
  ignore (words_of long);
  let ws = words_of short and wl = words_of long in
  if ws <> wl then
    Alcotest.failf "%.0f words on %d registers, %.0f on %d" ws
      (Compile.length short) wl (Compile.length long)

let test_parser_roundtrip () =
  List.iter
    (fun src ->
      let e = Parser.of_string src in
      let printed = Printer.to_string e in
      let e2 = Parser.of_string printed in
      check_true (Printf.sprintf "round-trip %S" src) (equal e e2))
    [
      "x + y*2 - 3";
      "exp(x) * log(y + 4)";
      "(x + 1)^2 / (y - 5)^3";
      "-x^2";
      "atan(x/2) + tanh(y)";
      "sqrt(x) * cbrt(y)";
      "lambertw(x + 1)";
      "2e-3 * x + 1.5E2";
      "pi * x";
    ]

let test_parser_errors () =
  let fails s =
    match Parser.of_string s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  fails "x +";
  fails "unknownfn(x)";
  fails "(x";
  fails "x ) y";
  fails "1..2"

let test_sexp_roundtrip () =
  List.iter
    (fun e ->
      let s = Printer.sexp_to_string e in
      let e2 = Parser.sexp_of_string s in
      let env = [ ("x", 0.7); ("y", -1.3) ] in
      check_close
        (Printf.sprintf "sexp round-trip %s" s)
        (Eval.eval env e) (Eval.eval env e2))
    [
      add (mul x y) (int 3);
      if_lt x zero ~then_:(neg x) ~else_:x;
      powr (abs y) (Rat.make 2 3);
      exp (div x (add (sqr y) one));
    ]

let test_run_batch () =
  let e = add (mul x (exp (neg y))) (powr (add (sqr x) one) (Rat.make 1 3)) in
  let tape = Compile.compile ~vars:[ "x"; "y" ] e in
  let n = 257 in
  let xs = Array.init n (fun i -> -2.0 +. (4.0 *. float_of_int i /. float_of_int n)) in
  let ys = Array.init n (fun i -> 3.0 *. Stdlib.sin (float_of_int i)) in
  let out = Array.make n 0.0 in
  Compile.run_batch tape [| xs; ys |] out;
  for i = 0 to n - 1 do
    check_close "batch = pointwise" (Compile.run tape [| xs.(i); ys.(i) |]) out.(i)
  done;
  (* piecewise select per point *)
  let pw = if_lt x y ~then_:(int 1) ~else_:(int 2) in
  let tp = Compile.compile ~vars:[ "x"; "y" ] pw in
  let out2 = Array.make n 0.0 in
  Compile.run_batch tp [| xs; ys |] out2;
  for i = 0 to n - 1 do
    check_close "piecewise batch" (if xs.(i) < ys.(i) then 1.0 else 2.0) out2.(i)
  done;
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Compile.run_batch: arity mismatch") (fun () ->
      Compile.run_batch tape [| xs |] out);
  Alcotest.check_raises "ragged input"
    (Invalid_argument "Compile.run_batch: ragged argument arrays") (fun () ->
      Compile.run_batch tape [| xs; Array.make 3 0.0 |] out)

let suite =
  [
    case "basic evaluation" test_basic_eval;
    case "batch tape evaluation" test_run_batch;
    case "unbound variable" test_unbound;
    case "pow_float semantics" test_pow_float;
    case "piecewise evaluation" test_piecewise_eval;
    case "compile agrees with eval" test_compile_agrees;
    case "compile error handling" test_compile_errors;
    case "compile shares subterms" test_compile_sharing;
    case "run allocates independently of tape length"
      test_run_allocation_flat;
    case "parser round-trip" test_parser_roundtrip;
    case "parser errors" test_parser_errors;
    case "sexp round-trip" test_sexp_roundtrip;
    qcheck "compile = eval on random expressions"
      QCheck2.Gen.(pair expr_gen env2_gen)
      (fun (e, env) ->
        let tape = Compile.compile ~vars:[ "x"; "y" ] e in
        let args = [| List.assoc "x" env; List.assoc "y" env |] in
        let a = Eval.eval env e and b = Compile.run tape args in
        (Float.is_nan a && Float.is_nan b)
        || a = b
        || Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a));
    qcheck "printer output reparses to same value"
      QCheck2.Gen.(pair expr_gen env2_gen)
      (fun (e, env) ->
        let e2 = Parser.of_string (Printer.to_string e) in
        let a = Eval.eval env e and b = Eval.eval env e2 in
        (Float.is_nan a && Float.is_nan b)
        || a = b
        || Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a));
  ]
