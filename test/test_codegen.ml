open Testutil
open Expr

let x = var "x"
let y = var "y"

let test_c_structure () =
  let e = add (mul x (exp y)) (sqrt (add (sqr x) one)) in
  let c = Printer.c_to_string ~name:"f" ~vars:[ "x"; "y" ] e in
  check_true "function header" (contains_sub c "double f(double x, double y)");
  check_true "uses exp" (contains_sub c "exp(");
  check_true "uses sqrt" (contains_sub c "sqrt(");
  check_true "returns" (contains_sub c "return ");
  (* shared subterms become temporaries *)
  let shared = exp (mul x y) in
  let e2 = add (mul shared shared) shared in
  let c2 = Printer.c_to_string ~name:"g" ~vars:[ "x"; "y" ] e2 in
  check_true "temporary emitted" (contains_sub c2 "const double t1");
  (* piecewise becomes a ternary *)
  let pw = if_lt x y ~then_:(int 1) ~else_:(int 2) in
  let c3 = Printer.c_to_string ~name:"h" ~vars:[ "x"; "y" ] pw in
  check_true "ternary" (contains_sub c3 "?")

let have_cc =
  lazy (Sys.command "cc --version > /dev/null 2> /dev/null" = 0)

(* Compile [exprs] as q0..qN into one executable, evaluate each at the
   sample [points], and return the values row-major (expression-major). *)
let run_generated exprs points =
  let dir = Filename.temp_file "xcvgen" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let src = Filename.concat dir "gen.c" in
      let exe = Filename.concat dir "gen" in
      let oc = open_out src in
      output_string oc "#include <math.h>\n#include <stdio.h>\n";
      output_string oc Printer.c_prelude;
      List.iteri
        (fun i e ->
          output_string oc
            (Printer.c_to_string ~name:(Printf.sprintf "q%d" i)
               ~vars:[ "x"; "y" ] e))
        exprs;
      output_string oc "typedef double (*xcv_fn2)(double, double);\n";
      output_string oc "static const xcv_fn2 qs[] = {";
      List.iteri
        (fun i _ -> output_string oc (Printf.sprintf " q%d," i))
        exprs;
      output_string oc " };\n";
      let pts =
        String.concat ", "
          (List.map (fun (x, y) -> Printf.sprintf "{%.17g, %.17g}" x y) points)
      in
      output_string oc
        (Printf.sprintf
           "int main(void) {\n\
           \  double pts[][2] = { %s };\n\
           \  for (unsigned j = 0; j < sizeof qs / sizeof *qs; j++)\n\
           \    for (unsigned i = 0; i < sizeof pts / sizeof *pts; i++)\n\
           \      printf(\"%%.17g\\n\", qs[j](pts[i][0], pts[i][1]));\n\
           \  return 0;\n}\n"
           pts);
      close_out oc;
      let cmd =
        Printf.sprintf "cc -O2 -ffp-contract=off -o %s %s -lm 2>/dev/null" exe
          src
      in
      Alcotest.(check int) "cc succeeds" 0 (Sys.command cmd);
      let ic = Unix.open_process_in exe in
      let lines =
        List.init
          (List.length exprs * List.length points)
          (fun _ -> input_line ic)
      in
      ignore (Unix.close_process_in ic);
      List.map (fun l -> float_of_string (String.trim l)) lines)

(* One expression per constructor and per pp_c emission path, so the
   differential check below covers the whole surface even if the random
   generator happens to skip a shape. *)
let coverage_cases =
  let open Expr in
  let x = var "x" and y = var "y" in
  [
    int 3;
    rat (-7) 3;
    const 1.25e-3;
    x;
    add_n [ x; y; int 1 ];
    mul_n [ x; y; const 0.5 ];
    sqr x;
    inv (add (sqr y) one);
    powi x 7;
    powi x (-3);
    powr (abs x) (Rat.make 4 3);
    powr (abs y) (Rat.make (-1) 2);
    sqrt (abs x);
    cbrt (abs y);
    pow (abs x) y;
    exp x;
    log (abs y);
    atan y;
    abs x;
    lambert_w (add (abs x) (const 0.1));
    lambert_w (const (-0.3));
    if_lt x y ~then_:x ~else_:y;
    piecewise [ (guard_le (sub x y), exp x) ] (atan y);
  ]

(* Random expressions reaching every constructor. A one-sided NaN counts
   as a real mismatch: the emitted C raises to a non-integer rational
   power through [pow] as the float evaluator does, so a negative base
   gives NaN on both sides. *)
let full_expr_gen =
  let open QCheck2.Gen in
  let rat_g = map2 Rat.make (int_range (-9) 9) (int_range 1 5) in
  sized
    (fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map Expr.const (float_range (-3.0) 3.0);
               map Expr.num rat_g;
               map Expr.int (int_range (-4) 4);
               return (Expr.var "x");
               return (Expr.var "y");
             ]
         else
           let sub = self (n / 2) in
           oneof
             [
               map2 Expr.add sub sub;
               map2 Expr.sub sub sub;
               map2 Expr.mul sub sub;
               map2 Expr.div sub sub;
               map2 Expr.powi sub (int_range (-3) 3);
               map2 (fun e r -> Expr.powr (Expr.abs e) r) sub rat_g;
               map2 (fun a b -> Expr.pow (Expr.abs a) b) sub sub;
               map (fun e -> Expr.sqrt (Expr.abs e)) sub;
               map Expr.cbrt sub;
               map (fun e -> Expr.exp (Expr.mul (Expr.const 0.25) e)) sub;
               map (fun e -> Expr.log (Expr.add (Expr.abs e) (Expr.const 0.5))) sub;
               map Expr.atan sub;
               map Expr.abs sub;
               map
                 (fun e ->
                   Expr.lambert_w (Expr.add (Expr.abs e) (Expr.const 0.1)))
                 sub;
               map3
                 (fun c t e -> Expr.if_lt c (Expr.var "y") ~then_:t ~else_:e)
                 sub sub sub;
             ]))

(* Agreement modulo rounding noise: the emitted C replays the evaluator's
   operation sequence, so the only legitimate divergences are ulp-level
   (sqrt vs pow 1/2, the Lambert iteration) — a hybrid tolerance absorbs
   them. Values past 1e15 of the same sign count as agreeing: a single-ulp
   divergence can land one side on the far slope of an overflow. *)
let agree expected actual =
  match (Float.is_nan expected, Float.is_nan actual) with
  | true, true -> true
  | true, false | false, true -> false
  | false, false ->
      (Float.abs expected > 1e15 && Float.abs actual > 1e15
      && expected *. actual > 0.0)
      || Float.abs (expected -. actual)
         <= 1e-6 *. (1.0 +. Float.abs expected +. Float.abs actual)

(* Differential check of a batch: compile once, compare every (expression,
   point) value, and return all mismatch reports. *)
let mismatches exprs points =
  let values = Array.of_list (run_generated exprs points) in
  let bad = ref [] in
  List.iteri
    (fun i e ->
      List.iteri
        (fun j (x, y) ->
          let got = values.((i * List.length points) + j) in
          let want = Eval.eval [ ("x", x); ("y", y) ] e in
          if not (agree want got) then
            bad :=
              Printf.sprintf "at (%g, %g): C %.17g, Eval %.17g for %s" x y got
                want (Printer.to_string e)
              :: !bad)
        points)
    exprs;
  List.rev !bad

let sample_points = [ (0.7, 1.3); (2.5, 0.4); (-1.2, 0.8) ]

(* The property ranges over a PRNG seed and draws the expressions inside:
   a failing batch then shrinks over one integer instead of re-compiling a
   C file per shrink step of 25 expression trees. *)
let test_c_vs_eval_qcheck =
  qcheck ~count:3 "emitted C matches Eval on every constructor"
    (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      (not (Lazy.force have_cc))
      ||
      let rand = Random.State.make [| 0xC0DE; seed |] in
      let random_exprs =
        QCheck2.Gen.generate ~n:25 ~rand full_expr_gen
      in
      match mismatches (coverage_cases @ random_exprs) sample_points with
      | [] -> true
      | bad ->
          QCheck2.Test.fail_reportf "%d C/Eval mismatches, first: %s"
            (List.length bad) (List.hd bad))

(* End-to-end: generate C for real functionals, compile with the system cc,
   and compare against the OCaml evaluator at sample points. *)
let test_c_compile_and_compare () =
  let cases =
    [
      ("pbe_fc", Enhancement.f_of Gga_pbe.eps_c, [ "rs"; "s" ]);
      ("lyp_fc", Enhancement.f_of Gga_lyp.eps_c, [ "rs"; "s" ]);
      ("vwn_fc", Enhancement.f_of Lda_vwn.eps_c, [ "rs" ]);
    ]
  in
  let dir = Filename.temp_file "xcvgen" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let src = Filename.concat dir "gen.c" in
      let exe = Filename.concat dir "gen" in
      let oc = open_out src in
      output_string oc "#include <math.h>\n#include <stdio.h>\n";
      output_string oc Printer.c_prelude;
      List.iter
        (fun (name, e, vars) ->
          output_string oc (Printer.c_to_string ~name ~vars e))
        cases;
      output_string oc
        "int main(void) {\n\
        \  double pts[4][2] = {{0.5, 0.3}, {1.0, 2.0}, {3.0, 4.5}, {4.9, 0.01}};\n\
        \  for (int i = 0; i < 4; i++)\n\
        \    printf(\"%.17g %.17g %.17g\\n\",\n\
        \           pbe_fc(pts[i][0], pts[i][1]),\n\
        \           lyp_fc(pts[i][0], pts[i][1]),\n\
        \           vwn_fc(pts[i][0]));\n\
        \  return 0;\n}\n";
      close_out oc;
      let cmd = Printf.sprintf "cc -O2 -o %s %s -lm 2>/dev/null" exe src in
      Alcotest.(check int) "cc succeeds" 0 (Sys.command cmd);
      let ic = Unix.open_process_in exe in
      let lines = List.init 4 (fun _ -> input_line ic) in
      ignore (Unix.close_process_in ic);
      let pts = [ (0.5, 0.3); (1.0, 2.0); (3.0, 4.5); (4.9, 0.01) ] in
      List.iter2
        (fun line (rs, s) ->
          match String.split_on_char ' ' (String.trim line) with
          | [ a; b; c ] ->
              let env = [ ("rs", rs); ("s", s) ] in
              check_close ~tol:1e-12
                (Printf.sprintf "PBE F_c at (%g, %g)" rs s)
                (Eval.eval env (Enhancement.f_of Gga_pbe.eps_c))
                (float_of_string a);
              check_close ~tol:1e-12
                (Printf.sprintf "LYP F_c at (%g, %g)" rs s)
                (Eval.eval env (Enhancement.f_of Gga_lyp.eps_c))
                (float_of_string b);
              check_close ~tol:1e-12
                (Printf.sprintf "VWN F_c at rs=%g" rs)
                (Eval.eval env (Enhancement.f_of Lda_vwn.eps_c))
                (float_of_string c)
          | _ -> Alcotest.failf "bad output line %S" line)
        lines pts)

let test_c_random_roundtrip =
  (* random expressions: generated C (compiled once per property run would
     be too slow, so this checks the generator doesn't crash and emits
     balanced code) *)
  qcheck ~count:60 "C generator emits balanced code" expr_gen (fun e ->
      let c = Printer.c_to_string ~name:"q" ~vars:[ "x"; "y" ] e in
      let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 c in
      count '(' = count ')' && count '{' = count '}')

let test_coverage_cases () =
  if Lazy.force have_cc then
    match mismatches coverage_cases sample_points with
    | [] -> ()
    | bad -> Alcotest.failf "%s" (String.concat "\n" bad)

let suite =
  [
    case "C matches Eval on the constructor coverage set" test_coverage_cases;
    case "C structure" test_c_structure;
    slow_case "generated C compiles and matches Eval" test_c_compile_and_compare;
    test_c_random_roundtrip;
    test_c_vs_eval_qcheck;
  ]
