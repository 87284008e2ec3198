open Expr

let unop_name = function
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Tanh -> "tanh"
  | Atan -> "atan"
  | Abs -> "abs"
  | Lambert_w -> "lambertw"

let rel_name = function Le -> "<=" | Lt -> "<"

(* Precedence levels: 0 sum, 1 product, 2 power, 3 atom. *)
let prec e =
  match e.node with
  | Add _ -> 0
  | Mul _ -> 1
  | Pow _ -> 2
  | Num r when Rat.sign r < 0 || not (Rat.is_int r) -> 1
  | Flt f when f < 0.0 -> 1
  | Num _ | Flt _ | Var _ | Apply _ | Piecewise _ -> 3

let pp_float ppf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Format.fprintf ppf "%.0f" f
  else Format.fprintf ppf "%.17g" f

let rec pp_at level ppf e =
  if prec e < level then Format.fprintf ppf "(%a)" (pp_at 0) e
  else
    match e.node with
    | Num r -> Rat.pp ppf r
    | Flt f -> pp_float ppf f
    | Var v -> Format.pp_print_string ppf v
    | Add terms -> pp_sum ppf terms
    | Mul factors -> pp_product ppf factors
    | Pow (b, x) ->
        Format.fprintf ppf "%a^%a" (pp_at 3) b (pp_at 3) x
    | Apply (op, a) ->
        Format.fprintf ppf "%s(%a)" (unop_name op) (pp_at 0) a
    | Piecewise (branches, default) ->
        Format.fprintf ppf "piecewise(";
        List.iter
          (fun (g, body) ->
            Format.fprintf ppf "%a %s 0 -> %a; " (pp_at 0) g.cond
              (rel_name g.grel) (pp_at 0) body)
          branches;
        Format.fprintf ppf "else %a)" (pp_at 0) default

and pp_sum ppf terms =
  let pp_term first ppf e =
    (* Fold a leading negative coefficient into a binary minus. *)
    let neg_part =
      match e.node with
      | Num r when Rat.sign r < 0 -> Some (num (Rat.neg r))
      | Flt f when f < 0.0 -> Some (const (-.f))
      | Mul (c :: rest) -> (
          match as_const c with
          | Some f when f < 0.0 ->
              Some (mul_n (const (-.f) :: rest))
          | _ -> None)
      | _ -> None
    in
    match neg_part with
    | Some p ->
        if first then Format.fprintf ppf "-%a" (pp_at 1) p
        else Format.fprintf ppf " - %a" (pp_at 1) p
    | None ->
        if first then pp_at 1 ppf e else Format.fprintf ppf " + %a" (pp_at 1) e
  in
  List.iteri (fun i e -> pp_term (i = 0) ppf e) terms

and pp_product ppf factors =
  (* Render negative exponents as division. *)
  let numerator, denominator =
    List.partition
      (fun f ->
        match f.node with
        | Pow (_, x) -> (
            match as_const x with Some c -> c >= 0.0 | None -> true)
        | _ -> true)
      factors
  in
  let pp_factors ppf = function
    | [] -> Format.pp_print_string ppf "1"
    | fs ->
        List.iteri
          (fun i f ->
            if i > 0 then Format.pp_print_string ppf "*";
            pp_at 2 ppf f)
          fs
  in
  match denominator with
  | [] -> pp_factors ppf numerator
  | _ ->
      let flip f =
        match f.node with
        | Pow (b, x) -> pow b (neg x)
        | _ -> assert false
      in
      Format.fprintf ppf "%a/" pp_factors numerator;
      let den = List.map flip denominator in
      (match den with
      | [ single ] when prec single >= 2 -> pp_at 2 ppf single
      | _ -> Format.fprintf ppf "(%a)" pp_factors den)

let pp ppf e = pp_at 0 ppf e
let to_string e = Format.asprintf "%a" pp e

(* ------------------------------------------------------------------ *)
(* S-expressions                                                       *)
(* ------------------------------------------------------------------ *)

let rec pp_sexp ppf e =
  match e.node with
  | Num r when Rat.is_int r -> Rat.pp ppf r
  | Num r -> Format.fprintf ppf "(/ %d %d)" r.Rat.num r.Rat.den
  | Flt f -> Format.fprintf ppf "%h" f
  | Var v -> Format.pp_print_string ppf v
  | Add terms -> pp_sexp_list ppf "+" terms
  | Mul factors -> pp_sexp_list ppf "*" factors
  | Pow (b, x) -> Format.fprintf ppf "(^ %a %a)" pp_sexp b pp_sexp x
  | Apply (op, a) -> Format.fprintf ppf "(%s %a)" (unop_name op) pp_sexp a
  | Piecewise (branches, default) ->
      Format.fprintf ppf "(piecewise";
      List.iter
        (fun (g, body) ->
          Format.fprintf ppf " (%s %a %a)"
            (match g.grel with Le -> "le" | Lt -> "lt")
            pp_sexp g.cond pp_sexp body)
        branches;
      Format.fprintf ppf " %a)" pp_sexp default

and pp_sexp_list ppf op xs =
  Format.fprintf ppf "(%s" op;
  List.iter (fun x -> Format.fprintf ppf " %a" pp_sexp x) xs;
  Format.fprintf ppf ")"

let sexp_to_string e = Format.asprintf "%a" pp_sexp e

(* ------------------------------------------------------------------ *)
(* Python                                                              *)
(* ------------------------------------------------------------------ *)

let python_unop = function
  | Exp -> "np.exp"
  | Log -> "np.log"
  | Sin -> "np.sin"
  | Cos -> "np.cos"
  | Tanh -> "np.tanh"
  | Atan -> "np.arctan"
  | Abs -> "np.abs"
  | Lambert_w -> "scipy.special.lambertw"

let rec pp_python ppf e =
  match e.node with
  | Num r when Rat.is_int r -> Format.fprintf ppf "%d" r.Rat.num
  | Num r -> Format.fprintf ppf "(%d/%d)" r.Rat.num r.Rat.den
  | Flt f -> Format.fprintf ppf "%.17g" f
  | Var v -> Format.pp_print_string ppf v
  | Add terms ->
      Format.fprintf ppf "(";
      List.iteri
        (fun i t ->
          if i > 0 then Format.pp_print_string ppf " + ";
          pp_python ppf t)
        terms;
      Format.fprintf ppf ")"
  | Mul factors ->
      Format.fprintf ppf "(";
      List.iteri
        (fun i t ->
          if i > 0 then Format.pp_print_string ppf " * ";
          pp_python ppf t)
        factors;
      Format.fprintf ppf ")"
  | Pow (b, x) -> Format.fprintf ppf "(%a ** %a)" pp_python b pp_python x
  | Apply (op, a) -> Format.fprintf ppf "%s(%a)" (python_unop op) pp_python a
  | Piecewise (branches, default) ->
      (* Nested numpy.where chains, innermost being the default. *)
      let rec go = function
        | [] -> pp_python ppf default
        | (g, body) :: rest ->
            Format.fprintf ppf "np.where(%a %s 0, %a, " pp_python g.cond
              (rel_name g.grel) pp_python body;
            go rest;
            Format.fprintf ppf ")"
      in
      go branches

let python_to_string e = Format.asprintf "%a" pp_python e

(* ------------------------------------------------------------------ *)
(* C99                                                                 *)
(* ------------------------------------------------------------------ *)

let c_unop = function
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Tanh -> "tanh"
  | Atan -> "atan"
  | Abs -> "fabs"
  | Lambert_w -> "xcv_lambert_w"

(* Reference runtime for the emitted kernels. Both helpers transliterate
   the OCaml float evaluator operation for operation — [xcv_pow_int] is
   {!Eval.pow_float}'s binary-exponentiation loop (same multiply order,
   hence the same rounding sequence), [xcv_lambert_w] is {!Lambert.w0}'s
   guess-plus-Halley scheme — so generated code stays comparable to [Eval]
   to rounding noise rather than to algorithm choice. *)
let c_prelude =
  "#ifndef XCV_C_PRELUDE\n\
   #define XCV_C_PRELUDE\n\
   static double xcv_pow_int(double b, int n) {\n\
  \  double acc = 1.0;\n\
  \  int m = n < 0 ? -n : n;\n\
  \  while (m > 0) {\n\
  \    if (m & 1) acc *= b;\n\
  \    b *= b;\n\
  \    m >>= 1;\n\
  \  }\n\
  \  return n >= 0 ? acc : 1.0 / acc;\n\
   }\n\
   static double xcv_lambert_w(double x) {\n\
  \  if (isnan(x)) return x;\n\
  \  if (x == (double)INFINITY) return x;\n\
  \  if (x == 0.0) return 0.0;\n\
  \  if (x < -exp(-1.0) - 1e-15) return (double)NAN;\n\
  \  double w;\n\
  \  if (x < -0.25) {\n\
  \    double p = sqrt(2.0 * ((exp(1.0) * x) + 1.0));\n\
  \    w = -1.0 + p - (p * p / 3.0);\n\
  \  } else if (x < 0.25) {\n\
  \    w = x * (1.0 - x + (1.5 * x * x)) / (1.0 + (0.5 * x));\n\
  \  } else if (x < 10.0) {\n\
  \    w = log1p(x);\n\
  \  } else {\n\
  \    double l1 = log(x);\n\
  \    double l2 = log(l1);\n\
  \    w = l1 - l2 + (l2 / l1);\n\
  \  }\n\
  \  if (w <= -1.0) w = -1.0 + 1e-12;\n\
  \  for (int i = 0; i < 8; i++) {\n\
  \    double ew = exp(w);\n\
  \    double f = (w * ew) - x;\n\
  \    if (f != 0.0) {\n\
  \      double w1 = w + 1.0;\n\
  \      double denom = (ew * w1) - ((w + 2.0) * f / (2.0 * w1));\n\
  \      if (denom != 0.0 && isfinite(denom)) w = w - (f / denom);\n\
  \    }\n\
  \  }\n\
  \  return w;\n\
   }\n\
   #endif /* XCV_C_PRELUDE */\n"

let pp_c ~name ~vars ppf e =
  (* Emit one temporary per DAG node with more than one parent; inline the
     rest. First count parents. *)
  let parents : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let bump x = Hashtbl.replace parents x.id (1 + Option.value ~default:0 (Hashtbl.find_opt parents x.id)) in
  ignore
    (fold_dag
       (fun node () ->
         match node.node with
         | Num _ | Flt _ | Var _ -> ()
         | Add xs | Mul xs -> List.iter bump xs
         | Pow (a, b) -> bump a; bump b
         | Apply (_, a) -> bump a
         | Piecewise (branches, d) ->
             List.iter (fun (g, body) -> bump g.cond; bump body) branches;
             bump d)
       e ());
  let shared x =
    match x.node with
    | Num _ | Flt _ | Var _ -> false
    | _ -> Option.value ~default:0 (Hashtbl.find_opt parents x.id) > 1
  in
  let temp_names : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let counter = ref 0 in
  let buf_stmts = Buffer.create 1024 in
  let rec ref_of x =
    match Hashtbl.find_opt temp_names x.id with
    | Some t -> t
    | None ->
        let code = render x in
        if shared x then begin
          incr counter;
          let t = Printf.sprintf "t%d" !counter in
          Hashtbl.add temp_names x.id t;
          Buffer.add_string buf_stmts
            (Printf.sprintf "  const double %s = %s;\n" t code);
          t
        end
        else code
  and render x =
    match x.node with
    | Num r when Rat.is_int r -> Printf.sprintf "%d.0" r.Rat.num
    | Num r -> Printf.sprintf "(%d.0 / %d.0)" r.Rat.num r.Rat.den
    | Flt f when Float.is_nan f -> "((double)NAN)"
    | Flt f when f = Float.infinity -> "((double)INFINITY)"
    | Flt f when f = Float.neg_infinity -> "(-(double)INFINITY)"
    | Flt f -> Printf.sprintf "%.17g" f
    | Var v -> v
    | Add terms -> "(" ^ String.concat " + " (List.map ref_of terms) ^ ")"
    | Mul factors -> "(" ^ String.concat " * " (List.map ref_of factors) ^ ")"
    | Pow (b, x') -> (
        match as_rat x' with
        | Some r when Rat.is_int r && r.Rat.num = 2 ->
            let rb = ref_of b in
            Printf.sprintf "(%s * %s)" rb rb
        | Some r when Rat.is_int r && r.Rat.num = -1 ->
            Printf.sprintf "(1.0 / %s)" (ref_of b)
        | Some r when Rat.is_int r && Stdlib.abs r.Rat.num <= 64 ->
            (* The evaluator's binary-exponentiation cutoff; beyond it both
               sides fall back to libm pow. *)
            Printf.sprintf "xcv_pow_int(%s, %d)" (ref_of b) r.Rat.num
        | Some r when Rat.equal r Rat.half ->
            Printf.sprintf "sqrt(%s)" (ref_of b)
        | Some r ->
            (* the evaluator's pow b fl(r): cbrt, or 1 / sqrt for r = -1/2,
               would round differently, and cbrt is finite on negative b *)
            Printf.sprintf "pow(%s, (%d.0 / %d.0))" (ref_of b) r.Rat.num
              r.Rat.den
        | None -> Printf.sprintf "pow(%s, %s)" (ref_of b) (ref_of x'))
    | Apply (op, a) -> Printf.sprintf "%s(%s)" (c_unop op) (ref_of a)
    | Piecewise (branches, default) ->
        let rec chain = function
          | [] -> ref_of default
          | (g, body) :: rest ->
              Printf.sprintf "((%s %s 0.0) ? %s : %s)" (ref_of g.cond)
                (match g.grel with Le -> "<=" | Lt -> "<")
                (ref_of body) (chain rest)
        in
        chain branches
  in
  let result = ref_of e in
  Format.fprintf ppf "double %s(%s) {\n%s  return %s;\n}\n" name
    (String.concat ", " (List.map (fun v -> "double " ^ v) vars))
    (Buffer.contents buf_stmts) result

let c_to_string ~name ~vars e = Format.asprintf "%a" (pp_c ~name ~vars) e
