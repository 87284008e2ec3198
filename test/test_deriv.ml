open Testutil
open Expr

let x = var "x"
let y = var "y"

let d e = Deriv.diff ~wrt:"x" e

(* Compare the symbolic derivative against the dual-number derivative at a
   point. *)
let check_against_dual ?(tol = 1e-8) msg e env =
  let sym = Eval.eval env (d e) in
  let dual = (Dual.eval env ~wrt:"x" e).Dual.d in
  if Float.is_nan sym && Float.is_nan dual then ()
  else check_close ~tol msg dual sym

let test_polynomials () =
  check_true "d/dx c = 0" (equal (d (const 3.25)) zero);
  check_true "d/dx x = 1" (equal (d x) one);
  check_true "d/dx y = 0" (equal (d y) zero);
  check_true "d/dx x^2 = 2x" (equal (d (sqr x)) (mul two x));
  check_true "d/dx x^3 = 3x^2" (equal (d (powi x 3)) (mul (int 3) (sqr x)));
  check_true "d/dx (x*y) = y" (equal (d (mul x y)) y);
  check_true "sum rule" (equal (d (add (sqr x) x)) (add (mul two x) one))

let test_quotients () =
  (* d/dx (1/x) = -x^-2 *)
  check_true "d/dx x^-1" (equal (d (inv x)) (neg (powi x (-2))));
  let e = div one (add one (sqr x)) in
  check_against_dual "quotient at 0.3" e [ ("x", 0.3); ("y", 0.0) ];
  check_against_dual "quotient at -2" e [ ("x", -2.0); ("y", 0.0) ]

let test_transcendentals () =
  check_true "d exp = exp" (equal (d (exp x)) (exp x));
  check_true "d log = 1/x" (equal (d (log x)) (inv x));
  check_true "d atan = 1/(1 + x^2)"
    (equal (d (atan x)) (inv (add one (sqr x))));
  List.iter
    (fun xv ->
      let env = [ ("x", xv); ("y", 0.5) ] in
      check_against_dual "abs" (abs (mul x y)) env;
      check_against_dual "atan" (atan (sqr x)) env;
      check_against_dual "exp chain" (exp (neg (sqr x))) env;
      check_against_dual "lambert" (lambert_w (add (sqr x) one)) env)
    [ -1.7; -0.2; 0.0; 0.4; 2.9 ]

let test_general_power () =
  (* x^y with both variable: d/dx = y x^(y-1) *)
  let e = pow (add (sqr x) one) y in
  List.iter
    (fun (xv, yv) ->
      check_against_dual "general power" e [ ("x", xv); ("y", yv) ])
    [ (0.5, 1.3); (2.0, -0.7); (1.0, 2.5) ];
  (* c^x *)
  let e2 = pow (const 3.0) (mul x x) in
  check_against_dual "exponential base" e2 [ ("x", 0.8); ("y", 0.0) ]

let test_abs_piecewise () =
  check_against_dual "abs negative side" (abs x) [ ("x", -2.0); ("y", 0.0) ];
  check_against_dual "abs positive side" (abs x) [ ("x", 3.0); ("y", 0.0) ];
  let pw = if_lt x zero ~then_:(neg (powi x 3)) ~else_:(powi x 3) in
  check_against_dual "piecewise cubic left" pw [ ("x", -1.5); ("y", 0.0) ];
  check_against_dual "piecewise cubic right" pw [ ("x", 1.5); ("y", 0.0) ]

let test_sqrt_chain () =
  (* d/dx sqrt(1 + x^2) = x / sqrt(1 + x^2) *)
  let e = sqrt (add one (sqr x)) in
  List.iter
    (fun xv -> check_against_dual "sqrt chain" e [ ("x", xv); ("y", 0.0) ])
    [ 0.0; 0.7; -3.2 ]

let test_second_derivative () =
  (* f = x^4 -> f'' = 12 x^2 *)
  let f2 = Deriv.diff_n ~wrt:"x" 2 (powi x 4) in
  check_true "x^4'' = 12x^2" (equal f2 (mul (int 12) (sqr x)));
  (* f = exp x -> f'''' = exp x *)
  let f4 = Deriv.diff_n ~wrt:"x" 4 (exp x) in
  check_true "exp'''' = exp" (equal f4 (exp x))

let functional_derivative_cases =
  (* The derivatives the paper actually needs: dF_c/drs for each DFA,
     validated against forward AD at representative points. *)
  let points = [ (0.01, 0.5); (0.5, 0.0); (1.0, 1.0); (3.0, 4.5); (5.0, 2.0) ] in
  List.map
    (fun (dfa_name : string) ->
      case (Printf.sprintf "dF_c/drs of %s matches dual AD" dfa_name)
        (fun () ->
          let dfa = Registry.find dfa_name in
          let f_c = Enhancement.f_of (Option.get dfa.Registry.eps_c) in
          let needs_alpha = Expr.mem_var Dft_vars.alpha_name f_c in
          List.iter
            (fun (rs, s) ->
              let env =
                (Dft_vars.rs_name, rs)
                :: (Dft_vars.s_name, s)
                :: (if needs_alpha then [ (Dft_vars.alpha_name, 1.3) ] else [])
              in
              let sym =
                Eval.eval env (Deriv.diff ~wrt:Dft_vars.rs_name f_c)
              in
              let dual = (Dual.eval env ~wrt:Dft_vars.rs_name f_c).Dual.d in
              check_close ~tol:1e-7
                (Printf.sprintf "at rs=%g s=%g" rs s)
                dual sym)
            points))
    [ "pbe"; "lyp"; "am05"; "vwn_rpa"; "pw92"; "scan"; "rscan" ]

let suite =
  [
    case "polynomials" test_polynomials;
    case "quotients" test_quotients;
    case "transcendentals" test_transcendentals;
    case "general powers" test_general_power;
    case "abs and piecewise" test_abs_piecewise;
    case "sqrt chains" test_sqrt_chain;
    case "higher derivatives" test_second_derivative;
    qcheck "symbolic = dual AD on random expressions"
      QCheck2.Gen.(pair expr_gen env2_gen)
      (fun (e, env) ->
        let sym = Eval.eval env (d e) in
        let dual = (Dual.eval env ~wrt:"x" e).Dual.d in
        (Float.is_nan sym && Float.is_nan dual)
        || (not (Float.is_finite dual))
        || sym = dual
        || Float.abs (sym -. dual) <= 1e-5 *. (1.0 +. Float.abs dual));
    qcheck "linearity of differentiation"
      QCheck2.Gen.(pair expr_gen expr_gen)
      (fun (a, b) -> equal (d (add a b)) (add (d a) (d b)));
  ]
  @ functional_derivative_cases
