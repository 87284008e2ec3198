type unop = Exp | Log | Atan | Abs | Lambert_w

type rel = Le | Lt

type t = { id : int; node : node; hash : int }

and node =
  | Num of Rat.t
  | Flt of float
  | Var of string
  | Add of t list
  | Mul of t list
  | Pow of t * t
  | Apply of unop * t
  | Piecewise of (guard * t) list * t

and guard = { cond : t; grel : rel }

let equal a b = a == b
let compare a b = Stdlib.compare a.id b.id
let hash e = e.hash
let id e = e.id

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

(* Tags 3-5 belonged to operators since removed; the remaining tags keep
   their numbers so that node hashes, and every key printed from them, stay
   put. *)
let unop_tag = function
  | Exp -> 1
  | Log -> 2
  | Atan -> 6
  | Abs -> 7
  | Lambert_w -> 8

let hash_list seed xs =
  List.fold_left (fun acc e -> (acc * 31) lxor e.hash) seed xs

let node_hash = function
  | Num r -> 0x11 lxor Rat.hash r
  | Flt f -> 0x22 lxor Hashtbl.hash f
  | Var v -> 0x33 lxor Hashtbl.hash v
  | Add xs -> hash_list 0x44 xs
  | Mul xs -> hash_list 0x55 xs
  | Pow (a, b) -> 0x66 lxor ((a.hash * 31) lxor b.hash)
  | Apply (op, a) -> 0x77 lxor ((unop_tag op * 131) lxor a.hash)
  | Piecewise (branches, default) ->
      List.fold_left
        (fun acc (g, e) ->
          let gh = (g.cond.hash * 2) lxor (match g.grel with Le -> 0 | Lt -> 1) in
          (acc * 31) lxor gh lxor (e.hash * 17))
        (0x88 lxor default.hash)
        branches

let node_equal n1 n2 =
  match n1, n2 with
  | Num a, Num b -> Rat.equal a b
  | Flt a, Flt b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Var a, Var b -> String.equal a b
  | Add xs, Add ys | Mul xs, Mul ys ->
      (try List.for_all2 (fun a b -> a == b) xs ys with Invalid_argument _ -> false)
  | Pow (a1, b1), Pow (a2, b2) -> a1 == a2 && b1 == b2
  | Apply (op1, a1), Apply (op2, a2) -> op1 = op2 && a1 == a2
  | Piecewise (bs1, d1), Piecewise (bs2, d2) ->
      d1 == d2
      && (try
            List.for_all2
              (fun (g1, e1) (g2, e2) ->
                g1.cond == g2.cond && g1.grel = g2.grel && e1 == e2)
              bs1 bs2
          with Invalid_argument _ -> false)
  | (Num _ | Flt _ | Var _ | Add _ | Mul _ | Pow _ | Apply _ | Piecewise _), _ ->
      false

module Table = Hashtbl.Make (struct
  type nonrec t = node

  let equal = node_equal
  let hash = node_hash
end)

let table : t Table.t = Table.create 65536
let counter = ref 0

(* The cons table is global; guard it so expressions can also be built from
   worker domains (e.g. symbolic differentiation inside a parallel
   campaign). Uncontended lock cost is negligible next to hashing. *)
let table_mutex = Mutex.create ()

let mk node =
  Mutex.protect table_mutex (fun () ->
      match Table.find_opt table node with
      | Some e -> e
      | None ->
          incr counter;
          let e = { id = !counter; node; hash = node_hash node } in
          Table.add table node e;
          e)

(* ------------------------------------------------------------------ *)
(* Constant helpers                                                    *)
(* ------------------------------------------------------------------ *)

let num r = mk (Num r)
let int n = num (Rat.of_int n)
let rat a b = num (Rat.make a b)

let flt f =
  if Float.is_integer f && Float.abs f < 1e15 then int (int_of_float f)
  else mk (Flt f)

let const = flt
let var v = mk (Var v)
let zero = int 0
let one = int 1
let two = int 2
let pi = mk (Flt Float.pi)

let as_const e =
  match e.node with
  | Num r -> Some (Rat.to_float r)
  | Flt f -> Some f
  | Var _ | Add _ | Mul _ | Pow _ | Apply _ | Piecewise _ -> None

let as_rat e =
  match e.node with
  | Num r -> Some r
  | Flt _ | Var _ | Add _ | Mul _ | Pow _ | Apply _ | Piecewise _ -> None

let is_zero e = match e.node with Num r -> Rat.is_zero r | _ -> false
let is_one e = match e.node with Num r -> Rat.is_one r | _ -> false
let is_const e = match e.node with Num _ | Flt _ -> true | _ -> false

(* Accumulated constants: exact while possible, float once contaminated. *)
type cnum = R of Rat.t | F of float

let cnum_zero = R Rat.zero
let cnum_one = R Rat.one

let cnum_of_expr e =
  match e.node with
  | Num r -> Some (R r)
  | Flt f -> Some (F f)
  | _ -> None

let cnum_to_float = function R r -> Rat.to_float r | F f -> f

let cnum_add a b =
  match a, b with
  | R x, R y -> (try R (Rat.add x y) with Rat.Overflow -> F (Rat.to_float x +. Rat.to_float y))
  | _ -> F (cnum_to_float a +. cnum_to_float b)

let cnum_mul a b =
  match a, b with
  | R x, R y -> (try R (Rat.mul x y) with Rat.Overflow -> F (Rat.to_float x *. Rat.to_float y))
  | _ -> F (cnum_to_float a *. cnum_to_float b)

let cnum_is_zero = function R r -> Rat.is_zero r | F f -> f = 0.0
let cnum_is_one = function R r -> Rat.is_one r | F f -> f = 1.0
let expr_of_cnum = function R r -> num r | F f -> flt f

(* ------------------------------------------------------------------ *)
(* Sums                                                                *)
(* ------------------------------------------------------------------ *)

(* Splits a term into (coefficient, core): [3*x*y] -> (3, x*y). *)
let coeff_core e =
  match e.node with
  | Num r -> (R r, one)
  | Flt f -> (F f, one)
  | Mul (c :: rest) -> (
      match cnum_of_expr c with
      | Some k -> (
          match rest with
          | [ single ] -> (k, single)
          | _ -> (k, mk (Mul rest)))
      | None -> (cnum_one, e))
  | _ -> (cnum_one, e)

let sort_operands xs = List.sort compare xs

let rec add_n terms =
  (* Flatten nested sums. *)
  let flat =
    List.concat_map (fun e -> match e.node with Add xs -> xs | _ -> [ e ]) terms
  in
  (* Collect like terms by core. *)
  let tbl : (int, cnum * t) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let konst = ref cnum_zero in
  List.iter
    (fun e ->
      let k, core = coeff_core e in
      if is_one core then konst := cnum_add !konst k
      else
        match Hashtbl.find_opt tbl core.id with
        | Some (k0, _) -> Hashtbl.replace tbl core.id (cnum_add k0 k, core)
        | None ->
            Hashtbl.add tbl core.id (k, core);
            order := core.id :: !order)
    flat;
  let terms =
    List.rev_map
      (fun cid ->
        let k, core = Hashtbl.find tbl cid in
        scale k core)
      !order
    |> List.filter (fun e -> not (is_zero e))
  in
  let terms = if cnum_is_zero !konst then terms else terms @ [ expr_of_cnum !konst ] in
  match terms with
  | [] -> zero
  | [ single ] -> single
  | _ -> mk (Add (sort_operands terms))

and scale k core =
  if cnum_is_zero k then zero
  else if cnum_is_one k then core
  else if is_one core then expr_of_cnum k
  else mul_n [ expr_of_cnum k; core ]

(* ------------------------------------------------------------------ *)
(* Products                                                            *)
(* ------------------------------------------------------------------ *)

and positive_const e =
  match e.node with
  | Num r -> Rat.sign r > 0
  | Flt f -> f > 0.0
  | _ -> false

and mk_mul = function [ single ] -> single | factors -> mk (Mul factors)

(* Splits a factor into (base, exponent): [x^3] -> (x, 3). *)
and base_expo e =
  match e.node with Pow (b, x) -> (b, x) | _ -> (e, one)

and mul_n factors =
  let flat =
    List.concat_map (fun e -> match e.node with Mul xs -> xs | _ -> [ e ]) factors
  in
  if List.exists is_zero flat then zero
  else begin
    let tbl : (int, t * t) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let konst = ref cnum_one in
    List.iter
      (fun e ->
        match cnum_of_expr e with
        | Some k -> konst := cnum_mul !konst k
        | None -> (
            let base, expo = base_expo e in
            match Hashtbl.find_opt tbl base.id with
            | Some (_, x0) -> Hashtbl.replace tbl base.id (base, add_n [ x0; expo ])
            | None ->
                Hashtbl.add tbl base.id (base, expo);
                order := base.id :: !order))
      flat;
    let factors =
      List.rev_map
        (fun bid ->
          let base, expo = Hashtbl.find tbl bid in
          pow base expo)
        !order
      |> List.filter (fun e -> not (is_one e))
    in
    if cnum_is_zero !konst then zero
    else begin
      let factors =
        if cnum_is_one !konst then factors else expr_of_cnum !konst :: factors
      in
      match factors with
      | [] -> one
      | [ single ] -> single
      | c :: rest when is_const c -> mk (Mul (c :: sort_operands rest))
      | _ -> mk (Mul (sort_operands factors))
    end
  end

(* ------------------------------------------------------------------ *)
(* Powers                                                              *)
(* ------------------------------------------------------------------ *)

and pow base expo =
  match expo.node with
  | Num r when Rat.is_zero r -> one
  | Num r when Rat.is_one r -> base
  | _ -> (
      match base.node, expo.node with
      | Num b, Num r when Rat.is_int r -> (
          (* Exact integer powers of rationals, guarding against overflow. *)
          match Rat.to_int r with
          | Some n when Stdlib.abs n <= 16 -> (
              try
                let rec go acc k =
                  if k = 0 then acc else go (Rat.mul acc b) (k - 1)
                in
                let p = go Rat.one (Stdlib.abs n) in
                num (if n >= 0 then p else Rat.inv p)
              with Rat.Overflow | Division_by_zero ->
                fold_const_pow base expo)
          | _ -> fold_const_pow base expo)
      | (Num _ | Flt _), (Num _ | Flt _) -> fold_const_pow base expo
      | Pow (inner, a), Num r when Rat.is_int r ->
          (* (x^a)^n = x^(a*n) is sound for integer n wherever defined. *)
          pow inner (mul_n [ a; num r ])
      | Mul factors, Num r when Rat.is_int r ->
          (* (x*y)^n distributes for integer n. *)
          mul_n (List.map (fun f -> pow f expo) factors)
      | Mul (c :: rest), (Num _ | Flt _) when positive_const c ->
          (* (c*X)^p = c^p * X^p is sound for a positive constant c even for
             fractional p: both sides are defined (or NaN) together. *)
          mul_n [ fold_const_pow c expo; pow (mk_mul rest) expo ]
      | _ when is_one base -> one
      | _ -> mk (Pow (base, expo)))

and fold_const_pow base expo =
  match as_const base, as_const expo with
  | Some b, Some x ->
      let v = Float.pow b x in
      if Float.is_nan v || Float.is_integer x = false && b < 0.0 then
        mk (Pow (base, expo))
      else flt v
  | _ -> mk (Pow (base, expo))

let add a b = add_n [ a; b ]
let mul a b = mul_n [ a; b ]
let neg e = mul (int (-1)) e
let sub a b = add a (neg b)
let inv e = pow e (int (-1))
let div a b = mul a (inv b)
let powi e n = pow e (int n)
let powr e r = pow e (num r)
let sqr e = powi e 2
let sqrt e = powr e Rat.half
let cbrt e = powr e Rat.third

(* ------------------------------------------------------------------ *)
(* Unary functions                                                     *)
(* ------------------------------------------------------------------ *)

let apply_unop op arg =
  let fold f =
    match as_const arg with
    | Some c ->
        let v = f c in
        if Float.is_nan v then mk (Apply (op, arg)) else flt v
    | None -> mk (Apply (op, arg))
  in
  match op with
  | Exp -> fold Stdlib.exp
  | Log -> fold (fun c -> if c > 0.0 then Stdlib.log c else Float.nan)
  | Atan -> fold Stdlib.atan
  | Abs -> fold Float.abs
  | Lambert_w -> mk (Apply (Lambert_w, arg))

let exp e = apply_unop Exp e
let log e = apply_unop Log e
let atan e = apply_unop Atan e

let abs e =
  match e.node with
  | Num r -> num (Rat.abs r)
  | Flt f -> flt (Float.abs f)
  | _ -> apply_unop Abs e

let lambert_w e = apply_unop Lambert_w e

(* ------------------------------------------------------------------ *)
(* Piecewise                                                           *)
(* ------------------------------------------------------------------ *)

let guard_le cond = { cond; grel = Le }
let guard_lt cond = { cond; grel = Lt }

let guard_decide g =
  match as_const g.cond with
  | Some c -> Some (match g.grel with Le -> c <= 0.0 | Lt -> c < 0.0)
  | None -> None

let piecewise branches default =
  (* Statically resolve constant guards: drop false branches; a true guard
     truncates everything after it. *)
  let rec resolve acc = function
    | [] -> (List.rev acc, default)
    | (g, e) :: rest -> (
        match guard_decide g with
        | Some true -> (List.rev acc, e)
        | Some false -> resolve acc rest
        | None -> resolve ((g, e) :: acc) rest)
  in
  match resolve [] branches with
  | [], d -> d
  | branches, d ->
      if List.for_all (fun (_, e) -> equal e d) branches then d
      else mk (Piecewise (branches, d))

let if_lt a b ~then_ ~else_ = piecewise [ (guard_lt (sub a b), then_) ] else_

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let memo_fix f =
  let memo : (int, 'a) Hashtbl.t = Hashtbl.create 256 in
  let rec g e =
    match Hashtbl.find_opt memo e.id with
    | Some v -> v
    | None ->
        let v = f g e in
        Hashtbl.replace memo e.id v;
        v
  in
  g

let children e =
  match e.node with
  | Num _ | Flt _ | Var _ -> []
  | Add xs | Mul xs -> xs
  | Pow (a, b) -> [ a; b ]
  | Apply (_, a) -> [ a ]
  | Piecewise (branches, default) ->
      List.concat_map (fun (g, body) -> [ g.cond; body ]) branches @ [ default ]

let fold_dag f e init =
  let seen = Hashtbl.create 256 in
  let acc = ref init in
  let rec go e =
    if not (Hashtbl.mem seen e.id) then begin
      Hashtbl.add seen e.id ();
      List.iter go (children e);
      acc := f e !acc
    end
  in
  go e;
  !acc

let vars e =
  fold_dag
    (fun e acc -> match e.node with Var v -> v :: acc | _ -> acc)
    e []
  |> List.sort_uniq String.compare

let mem_var name e =
  fold_dag
    (fun e acc -> acc || match e.node with Var v -> String.equal v name | _ -> false)
    e false

let size e = fold_dag (fun _ n -> n + 1) e 0

(* tree_size and depth build a fresh memo per call (rather than a global
   one) so they are safe to run from any domain. *)
let tree_size e =
  let f =
    memo_fix (fun self e ->
        match children e with
        | [] -> 1
        | cs -> List.fold_left (fun acc c -> acc + self c) 1 cs)
  in
  f e

let depth e =
  let f =
    memo_fix (fun self e ->
        match children e with
        | [] -> 1
        | cs -> 1 + List.fold_left (fun acc c -> Stdlib.max acc (self c)) 0 cs)
  in
  f e
