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
   total functions so random evaluation rarely NaNs.

   The generator draws exactly the random values of the combinator form
   [sized (fix (fun self n -> if n <= 0 then oneof leaves else oneof
   nodes))] with [nodes] built by [map]/[map2] over [self (n / 2)], so each
   seed yields the same expressions as that form. It is a primitive so that
   shrinking can replace a node by a leaf or by one of its direct subterms
   before it shrinks inside a subterm: a combinator form can only shrink
   subterms in place, which walks deep [sin]/[exp] nests one node at a
   time. *)
let expr_gen =
  let module RS = Random.State in
  (* [QCheck2.Gen.int_range (-3) 3] *)
  let small_int st =
    let ratio = 3.0 /. (1.0 +. 3.0 -. -3.0) in
    if RS.float st 1.0 <= ratio then -RS.int st 3 - 1 else RS.int st 4
  in
  (* [QCheck2.Gen.oneof]: split, draw the index, run the branch on a copy
     of the split-off state *)
  let choose st n =
    let st' = RS.split st in
    let k = RS.int st n in
    (k, RS.copy st')
  in
  (* [QCheck2.Gen.map2 f a b]: [a] on [st], [b] on a state split off first *)
  let pair st a b =
    let st' = RS.split st in
    let x = a st in
    (x, b st')
  in
  let rec node n st =
    if n <= 0 then begin
      (* the combinator form builds its leaf list, [y] first, before each
         draw; hash-consing ids, and with them the order of sum operands,
         follow creation order *)
      let y = Expr.var "y" in
      let x = Expr.var "x" in
      match choose st 4 with
      | 0, st -> Expr.const (-4.0 +. RS.float st 8.0)
      | 1, _ -> x
      | 2, _ -> y
      | _, st -> Expr.int (small_int st)
    end
    else
      let sub = node (n / 2) in
      match choose st 10 with
      | 0, st -> let a, b = pair st sub sub in Expr.add a b
      | 1, st -> let a, b = pair st sub sub in Expr.sub a b
      | 2, st -> let a, b = pair st sub sub in Expr.mul a b
      | 3, st -> Expr.sin (sub st)
      | 4, st -> Expr.cos (sub st)
      | 5, st -> Expr.tanh (sub st)
      | 6, st -> Expr.atan (sub st)
      | 7, st -> Expr.abs (sub st)
      | 8, st ->
          let e = sub st in
          Expr.exp (Expr.mul (Expr.const 0.25) e)
      | _, st ->
          let e, k = pair st sub (fun st -> RS.int st 4) in
          Expr.powi e k
  in
  (* [QCheck2.Gen.sized]: [nat] bound to the size *)
  let gen st =
    let st' = RS.split st in
    let p = RS.float st 1.0 in
    let n =
      if p < 0.5 then RS.int st 10
      else if p < 0.75 then RS.int st 100
      else if p < 0.95 then RS.int st 1_000
      else RS.int st 10_000
    in
    node n (RS.copy st')
  in
  let unop : Expr.unop -> Expr.t -> Expr.t = function
    | Exp -> Expr.exp
    | Log -> Expr.log
    | Sin -> Expr.sin
    | Cos -> Expr.cos
    | Tanh -> Expr.tanh
    | Atan -> Expr.atan
    | Abs -> Expr.abs
    | Lambert_w -> Expr.lambert_w
  in
  (* the lists obtained by shrinking one element of [l] *)
  let rec shrink_one shrink = function
    | [] -> Seq.empty
    | x :: rest ->
        Seq.append
          (Seq.map (fun x' -> x' :: rest) (shrink x))
          (Seq.map (fun rest' -> x :: rest') (shrink_one shrink rest))
  in
  (* a leaf, then the direct subterms, then one subterm shrunk in place *)
  let rec shrink (e : Expr.t) =
    let rebuilt =
      match e.node with
      | Num _ | Flt _ -> Seq.empty
      | Var v -> if v = "x" then Seq.empty else Seq.return (Expr.var "x")
      | Add l ->
          Seq.append (List.to_seq l) (Seq.map Expr.add_n (shrink_one shrink l))
      | Mul l ->
          Seq.append (List.to_seq l) (Seq.map Expr.mul_n (shrink_one shrink l))
      | Pow (a, b) ->
          Seq.append (List.to_seq [ a; b ])
            (Seq.append
               (Seq.map (fun a -> Expr.pow a b) (shrink a))
               (Seq.map (Expr.pow a) (shrink b)))
      | Apply (op, a) -> Seq.cons a (Seq.map (unop op) (shrink a))
      | Piecewise (branches, default) ->
          Seq.cons default (List.to_seq (List.map snd branches))
    in
    if Expr.is_zero e then Seq.empty else Seq.cons Expr.zero rebuilt
  in
  QCheck2.Gen.make_primitive ~gen ~shrink

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
