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
      if_lt x y ~then_:(atan x) ~else_:(exp y);
      powr (add (sqr x) one) (Rat.make 3 2);
      lambert_w (abs x);
      atan (mul x (abs y));
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

(* [encode -f infix|python|c] and the formula fingerprints print through
   these printers, so their output is pinned. Sum and product operands
   print in creation order, so the cases use variables no other suite
   builds and are all built fresh, in this order, by every test that reads
   them, whichever of those tests runs first. *)
let printer_cases () =
  let u = var "u" in
  let v = var "v" in
  [
    sub u (mul (int 2) v);
    add (mul (const (-1.5)) u) (mul u v);
    sub (int 1) (div u v);
    add one (neg (sqr v));
    div u (sqr v);
    div one (mul u v);
    mul (powi u (-3)) (exp v);
    neg (sqr v);
    pow (neg u) (int 3);
    pow u (neg v);
    powr (add u one) (Rat.make 2 3);
    mul (rat 1 3) (cbrt u);
    sqrt (add (sqr u) (sqr v));
    exp (log (atan (abs u)));
    lambert_w (mul (const 0.25) (exp (neg u)));
    if_lt u v ~then_:(int 1) ~else_:(exp u);
    piecewise
      [ (guard_le (sub u one), log v); (guard_lt v, abs (sub u v)) ]
      (piecewise [ (guard_lt u, neg u) ] (atan v));
    add pi (const 2.5e-3);
  ]

(* (group, infix, sexp, python) of each case, in the order above *)
let printer_pins =
  [
    ("negative coefficients fold into a binary minus", "u - 2*v",
     "(+ u (* -2 v))", "(u + (-2 * v))");
    ("negative coefficients fold into a binary minus", "u*v - 1.5*u",
     "(+ (* u v) (* -0x1.8p+0 u))", "((u * v) + (-1.5 * u))");
    ("negative coefficients fold into a binary minus", "1 - u/v",
     "(+ 1 (* -1 u (^ v -1)))", "(1 + (-1 * u * (v ** -1)))");
    ("negative coefficients fold into a binary minus", "1 - v^2",
     "(+ 1 (* -1 (^ v 2)))", "(1 + (-1 * (v ** 2)))");
    ("negative exponents print as a division", "u/v^2", "(* u (^ v -2))",
     "(u * (v ** -2))");
    ("negative exponents print as a division", "1/(u*v)",
     "(* (^ u -1) (^ v -1))", "((u ** -1) * (v ** -1))");
    ("negative exponents print as a division", "exp(v)/u^3",
     "(* (exp v) (^ u -3))", "(np.exp(v) * (u ** -3))");
    ("unary minus against ^", "(-1)*v^2", "(* -1 (^ v 2))",
     "(-1 * (v ** 2))");
    ("unary minus against ^", "(-1)*u^3", "(* -1 (^ u 3))",
     "(-1 * (u ** 3))");
    ("unary minus against ^", "u^((-1)*v)", "(^ u (* -1 v))",
     "(u ** (-1 * v))");
    ("rational exponents", "(1 + u)^(2/3)", "(^ (+ 1 u) (/ 2 3))",
     "((1 + u) ** (2/3))");
    ("rational exponents", "(1/3)*u^(1/3)", "(* (/ 1 3) (^ u (/ 1 3)))",
     "((1/3) * (u ** (1/3)))");
    ("rational exponents", "(v^2 + u^2)^(1/2)",
     "(^ (+ (^ v 2) (^ u 2)) (/ 1 2))", "(((v ** 2) + (u ** 2)) ** (1/2))");
    ("nested apply", "exp(log(atan(abs(u))))", "(exp (log (atan (abs u))))",
     "np.exp(np.log(np.arctan(np.abs(u))))");
    ("nested apply", "lambertw(0.25*exp((-1)*u))",
     "(lambertw (* 0x1p-2 (exp (* -1 u))))",
     "scipy.special.lambertw((0.25 * np.exp((-1 * u))))");
    ("piecewise", "piecewise(u - v < 0 -> 1; else exp(u))",
     "(piecewise (lt (+ u (* -1 v)) 1) (exp u))",
     "np.where((u + (-1 * v)) < 0, 1, np.exp(u))");
    ("piecewise",
     "piecewise(-1 + u <= 0 -> log(v); v < 0 -> abs(u - v); else piecewise(u < 0 -> (-1)*u; else atan(v)))",
     "(piecewise (le (+ -1 u) (log v)) (lt v (abs (+ u (* -1 v)))) (piecewise (lt u (* -1 u)) (atan v)))",
     "np.where((-1 + u) <= 0, np.log(v), np.where(v < 0, np.abs((u + (-1 * v))), np.where(u < 0, (-1 * u), np.arctan(v))))");
    ("constants", "3.1440926535897931", "0x1.9271a0c96189dp+1",
     "3.1440926535897931");
  ]

let printer_groups =
  List.fold_left
    (fun gs (g, _, _, _) -> if List.mem g gs then gs else gs @ [ g ])
    [] printer_pins

let test_printer_group group () =
  let cases = printer_cases () in
  check_true "one pin per case" (List.length cases = List.length printer_pins);
  let n =
    List.fold_left2
      (fun n e (g, infix, sexp, python) ->
        if g <> group then n
        else begin
          Alcotest.(check string) "infix" infix (Printer.to_string e);
          Alcotest.(check string) "sexp" sexp (Printer.sexp_to_string e);
          Alcotest.(check string) "python" python (Printer.python_to_string e);
          n + 1
        end)
      0 cases printer_pins
  in
  check_true (group ^ " has cases") (n > 0)

(* C function text of two cases: a plain sum and the nested piecewise *)
let test_c_printer_pins () =
  let cases = Array.of_list (printer_cases ()) in
  List.iter
    (fun (k, c) ->
      Alcotest.(check string)
        (Printf.sprintf "C of case %d" k)
        c
        (Printer.c_to_string ~name:"f" ~vars:[ "u"; "v" ] cases.(k)))
    [
      (3, "double f(double u, double v) {\n  return (1.0 + (-1.0 * (v * v)));\n}\n");
      ( 16,
        "double f(double u, double v) {\n  return (((-1.0 + u) <= 0.0) ? log(v) : ((v < 0.0) ? fabs((u + (-1.0 * v))) : ((u < 0.0) ? (-1.0 * u) : atan(v))));\n}\n" );
    ]

let suite =
  [
    case "basic evaluation" test_basic_eval;
    case "unbound variable" test_unbound;
    case "pow_float semantics" test_pow_float;
    case "piecewise evaluation" test_piecewise_eval;
    case "compile agrees with eval" test_compile_agrees;
    case "compile error handling" test_compile_errors;
    case "compile shares subterms" test_compile_sharing;
    case "run allocates independently of tape length"
      test_run_allocation_flat;
  ]
  @ List.map
      (fun g -> case ("printer pins: " ^ g) (test_printer_group g))
      printer_groups
  @ [
    case "C printer output is pinned" test_c_printer_pins;
    qcheck "compile = eval on random expressions"
      QCheck2.Gen.(pair expr_gen env2_gen)
      (fun (e, env) ->
        let tape = Compile.compile ~vars:[ "x"; "y" ] e in
        let args = [| List.assoc "x" env; List.assoc "y" env |] in
        let a = Eval.eval env e and b = Compile.run tape args in
        (Float.is_nan a && Float.is_nan b)
        || a = b
        || Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a));
  ]
