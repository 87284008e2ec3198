(* Shared helpers for the test suites. *)

(* NaN handling must be explicit: NaN == NaN is accepted (both sides agree
   the value is undefined), but NaN on only one side is always a mismatch —
   the relative-tolerance comparison would otherwise return false for it
   silently, with a misleading message. *)
let close_result ?(tol = 1e-10) expected actual =
  match Float.is_nan expected, Float.is_nan actual with
  | true, true -> Ok ()
  | true, false ->
      Error (Printf.sprintf "expected NaN, got finite %.17g" actual)
  | false, true ->
      Error (Printf.sprintf "expected %.17g, got NaN" expected)
  | false, false ->
      if
        Float.abs (expected -. actual)
        <= tol *. (1.0 +. Float.abs expected +. Float.abs actual)
      then Ok ()
      else
        Error
          (Printf.sprintf "expected %.17g, got %.17g (tol %.3g)" expected
             actual tol)

let check_close ?tol msg expected actual =
  match close_result ?tol expected actual with
  | Ok () -> ()
  | Error detail -> Alcotest.failf "%s: %s" msg detail

(* Worker-domain count for verifier-driving tests; set by the runtest
   harness (test/dune runs the suite at 1 and 2) so every suite exercises
   both the sequential and the parallel scheduler path. *)
let test_workers =
  match Sys.getenv_opt "XCV_TEST_WORKERS" with
  | Some n -> (
      match int_of_string_opt n with Some n when n > 0 -> n | _ -> 1)
  | None -> 1

let check_true msg b = Alcotest.(check bool) msg true b
let check_false msg b = Alcotest.(check bool) msg false b

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* QCheck generators used across suites. *)

(* Floats that exercise interesting magnitudes without overflow traps. *)
let finite_float_gen =
  QCheck2.Gen.(
    oneof
      [
        float_range (-10.0) 10.0;
        float_range (-1e6) 1e6;
        float_range (-1e-6) 1e-6;
        return 0.0;
        return 1.0;
        return (-1.0);
      ])

let pos_float_gen = QCheck2.Gen.float_range 1e-6 1e3

(* Random closed expressions over the variables [x] and [y], biased toward
   total functions so random evaluation rarely NaNs. *)
let expr_gen =
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
                map (fun e -> Expr.sin e) sub;
                map (fun e -> Expr.cos e) sub;
                map (fun e -> Expr.tanh e) sub;
                map (fun e -> Expr.atan e) sub;
                map (fun e -> Expr.abs e) sub;
                map (fun e -> Expr.exp (Expr.mul (Expr.const 0.25) e)) sub;
                map2 (fun e k -> Expr.powi e k) sub (int_range 0 3);
              ])
        n)

let qcheck ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ?print ~name gen prop)

(* Environments for the two grid variables. *)
let env2_gen =
  QCheck2.Gen.(
    map2
      (fun x y -> [ ("x", x); ("y", y) ])
      (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))

let dfa_point_gen =
  QCheck2.Gen.(
    map2
      (fun rs s -> [ (Dft_vars.rs_name, rs); (Dft_vars.s_name, s) ])
      (float_range 0.0001 5.0) (float_range 0.0 5.0))

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0
