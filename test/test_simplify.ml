open Testutil
open Expr

let x = var "x"
let y = var "y"

let test_log_exp () =
  check_true "log(exp x) = x" (equal (Simplify.simplify (log (exp x))) x);
  check_true "exp(log x) = x" (equal (Simplify.simplify (exp (log x))) x);
  check_true "(exp x)^3 = exp 3x"
    (equal (Simplify.simplify (powi (exp x) 3)) (exp (mul (int 3) x)))

let test_abs_rules () =
  check_true "abs(abs x) = abs x"
    (equal (Simplify.simplify (abs (abs x))) (abs x));
  check_true "abs(x^2) = x^2" (equal (Simplify.simplify (abs (sqr x))) (sqr x));
  check_true "abs(x)^2 = x^2"
    (equal (Simplify.simplify (sqr (abs x))) (sqr x))

let test_recursive_rebuild () =
  (* After differentiation expressions carry unnormalized debris; simplify
     must fold it away. Build some debris manually. *)
  let e = add (mul (int 0) (exp x)) (mul one (add x (mul y zero))) in
  check_true "debris folds to x" (equal (Simplify.simplify e) x)

let test_piecewise_flattening () =
  let inner = if_lt y zero ~then_:(int 1) ~else_:(int 2) in
  let outer = piecewise [ (guard_lt x, int 0) ] inner in
  let s = Simplify.simplify outer in
  match s.node with
  | Piecewise (branches, _) ->
      Alcotest.(check int) "flattened to two branches" 2 (List.length branches)
  | _ -> Alcotest.fail "expected piecewise"

let test_with_nonneg () =
  let nn = Simplify.with_nonneg [ "x" ] in
  check_true "(x^-3)^(1/3) = x^-1 for x >= 0"
    (equal (nn (powr (powi x (-3)) Rat.third)) (inv x));
  check_true "sqrt(x^2) = x for x >= 0" (equal (nn (sqrt (sqr x))) x);
  check_true "abs x = x for x >= 0" (equal (nn (abs x)) x);
  check_true "abs y unchanged (not assumed)" (equal (nn (abs y)) (abs y));
  check_true "(x * exp y)^(1/2) distributes"
    (equal
       (nn (sqrt (mul x (exp y))))
       (mul (sqrt x) (exp (mul (rat 1 2) y))))

(* A rewrite keeps the real function, not its float rounding: exp
   multiplies the rounding of a rearranged argument by the argument's
   size, far past any fixed tolerance (exp(3.47*x*(2 - 2*y)) against its
   expansion near x = 0.74, y = -2.87). So where the float values differ beyond the
   tolerance, the claim checked is what equal real functions guarantee:
   the interval enclosures of both forms at the point intersect, since both
   contain the one real value. *)
let random_value_preservation name f gen_env =
  let print (e, env) =
    Printf.sprintf "%s at %s" (Printer.to_string e)
      (String.concat ", "
         (List.map (fun (v, q) -> Printf.sprintf "%s = %h" v q) env))
  in
  qcheck ~print (name ^ " preserves value")
    QCheck2.Gen.(pair expr_gen gen_env)
    (fun (e, env) ->
      let e' = f e in
      let v1 = Eval.eval env e and v2 = Eval.eval env e' in
      (Float.is_nan v1 && Float.is_nan v2)
      || (not (Float.is_finite v1))
      || v1 = v2
      || Float.abs (v1 -. v2) <= 1e-6 *. (1.0 +. Float.abs v1)
      ||
      let point = List.map (fun (v, q) -> (v, Interval.point q)) env in
      not (Interval.is_empty (Interval.meet (Ieval.eval point e) (Ieval.eval point e'))))

let nonneg_env_gen =
  QCheck2.Gen.(
    map2
      (fun a b -> [ ("x", a); ("y", b) ])
      (float_range 0.0 4.0) (float_range 0.0 4.0))

let test_subst () =
  let e = add (mul x y) (exp x) in
  let s = Subst.subst1 "x" (int 2) e in
  check_close "substituted value" ((2.0 *. 3.0) +. Stdlib.exp 2.0)
    (Eval.eval [ ("y", 3.0) ] s);
  check_true "x is gone" (not (mem_var "x" s));
  (* simultaneous substitution is not sequential *)
  let swap = Subst.subst [ ("x", y); ("y", x) ] (sub x y) in
  check_true "swap" (equal swap (sub y x));
  (* replace a compound subterm *)
  let r = Subst.replace ~from:(exp x) ~into:y e in
  check_true "replace subterm" (equal r (add (mul x y) y));
  check_true "rename" (equal (Subst.rename "x" "z" (sqr x)) (sqr (var "z")))

let test_at_large () =
  let e = div one (add one (var "rs")) in
  check_close "rs -> 100" (1.0 /. 101.0)
    (Eval.eval [] (Subst.at_large "rs" 100.0 e))

let suite =
  [
    case "log/exp inverses" test_log_exp;
    case "abs rules" test_abs_rules;
    case "rebuild folds debris" test_recursive_rebuild;
    case "piecewise flattening" test_piecewise_flattening;
    case "nonneg-assisted rules" test_with_nonneg;
    case "substitution" test_subst;
    case "limit substitution" test_at_large;
    random_value_preservation "simplify" Simplify.simplify env2_gen;
    random_value_preservation "with_nonneg on nonneg box"
      (Simplify.with_nonneg [ "x"; "y" ])
      nonneg_env_gen;
    qcheck "simplify is idempotent" expr_gen (fun e ->
        let s = Simplify.simplify e in
        equal s (Simplify.simplify s));
  ]
