open Testutil

let iv = Interval.make

let test_construction () =
  check_true "point is degenerate" (Interval.is_point (Interval.point 3.0));
  check_true "empty is empty" (Interval.is_empty Interval.empty);
  check_false "top not empty" (Interval.is_empty Interval.top);
  check_false "top not bounded" (Interval.is_bounded Interval.top);
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Interval.make: malformed bounds") (fun () ->
      ignore (iv 2.0 1.0))

let test_lattice () =
  let a = iv 0.0 2.0 and b = iv 1.0 3.0 in
  check_true "meet" (Interval.equal (Interval.meet a b) (iv 1.0 2.0));
  check_true "join" (Interval.equal (Interval.join a b) (iv 0.0 3.0));
  check_true "disjoint meet empty"
    (Interval.is_empty (Interval.meet (iv 0.0 1.0) (iv 2.0 3.0)));
  check_true "subset" (Interval.subset (iv 1.0 2.0) a);
  check_false "not subset" (Interval.subset b a);
  check_true "empty subset of all" (Interval.subset Interval.empty a)

let test_measures () =
  check_close "width" 2.0 (Interval.width (iv 1.0 3.0));
  check_close "midpoint" 2.0 (Interval.midpoint (iv 1.0 3.0));
  check_close "mag" 3.0 (Interval.mag (iv (-3.0) 2.0));
  check_close "mig straddling" 0.0 (Interval.mig (iv (-3.0) 2.0));
  check_close "mig positive" 1.0 (Interval.mig (iv 1.0 2.0));
  check_true "midpoint of unbounded is finite"
    (Float.is_finite (Interval.midpoint Interval.top))

let test_arith_basics () =
  check_true "add" (Interval.subset (iv 3.0 5.0) (Interval.add (iv 1.0 2.0) (iv 2.0 3.0)));
  check_true "sub" (Interval.subset (iv (-2.0) 0.0) (Interval.sub (iv 1.0 2.0) (iv 2.0 3.0)));
  check_true "mul signs"
    (Interval.subset (iv (-6.0) 3.0) (Interval.mul (iv (-2.0) 1.0) (iv 0.0 3.0)));
  check_true "div by positive"
    (Interval.subset (iv 0.5 2.0) (Interval.div (iv 1.0 2.0) (iv 1.0 2.0)));
  check_true "div across zero is top"
    (Interval.equal (Interval.div (iv 1.0 2.0) (iv (-1.0) 1.0)) Interval.top);
  check_true "div zero by zero-divisor empty"
    (Interval.is_empty (Interval.div (iv 1.0 2.0) Interval.zero))

let test_zero_times_inf () =
  (* The 0 * inf = 0 convention of interval endpoints. *)
  let z = Interval.zero and t = Interval.top in
  check_true "0 * top = 0" (Interval.equal (Interval.mul z t) Interval.zero);
  check_true "top * top = top" (Interval.equal (Interval.mul t t) t)

let test_powers () =
  check_true "square straddling"
    (Interval.subset (iv 0.0 9.0) (Interval.pow_int (iv (-3.0) 2.0) 2));
  check_true "cube keeps sign"
    (Interval.subset (iv (-27.0) 8.0) (Interval.pow_int (iv (-3.0) 2.0) 3));
  check_true "x^0 = 1" (Interval.equal (Interval.pow_int (iv (-3.0) 2.0) 0) Interval.one);
  check_true "inverse of positive"
    (Interval.subset (iv 0.5 1.0) (Interval.pow_int (iv 1.0 2.0) (-1)));
  (* fractional power restricted to nonneg base *)
  let r = Interval.pow (iv (-4.0) 9.0) 0.5 in
  check_true "sqrt clips to [0,3]" (Interval.subset (iv 0.0 3.0) r);
  check_true "sqrt upper close" (Interval.sup r < 3.0001);
  check_true "fully negative base is empty"
    (Interval.is_empty (Interval.pow (iv (-4.0) (-1.0)) 0.5));
  (* 0^negative = inf *)
  check_true "0 in base, negative exponent"
    (Interval.sup (Interval.pow (iv 0.0 2.0) (-1.0)) = Float.infinity)

let test_sign_tests () =
  check_true "certainly_le" (Interval.certainly_le (iv (-2.0) (-1.0)) 0.0);
  check_false "not certainly_le" (Interval.certainly_le (iv (-1.0) 1.0) 0.0);
  check_true "possibly_le" (Interval.possibly_le (iv (-1.0) 1.0) 0.0);
  check_true "empty certainly everything"
    (Interval.certainly_le Interval.empty 0.0 && Interval.certainly_ge Interval.empty 0.0)

let test_split () =
  let a, b = Interval.split (iv 0.0 4.0) in
  check_close "left hi" 2.0 (Interval.sup a);
  check_close "right lo" 2.0 (Interval.inf b);
  Alcotest.check_raises "split point" (Invalid_argument "Interval.split")
    (fun () -> ignore (Interval.split (Interval.point 1.0)))

(* Division by a nonpositive divisor with a zero end: that zero is
   approached from below whatever its sign bit, so 1 / [-1, 0] reaches
   -inf. Taking it for +0 gave [-1, +inf], which misses every true
   quotient below -1. Each path below — the boxed operations and the
   register kernels, reciprocals through negative integer powers — must
   contain the quotients of sampled points. *)
let regs_op2 f a b =
  let r = Interval.Regs.create 3 in
  Interval.Regs.set r 0 a;
  Interval.Regs.set r 1 b;
  f r 2 r 0 r 1;
  Interval.Regs.get r 2

let regs_pow_int a n =
  let r = Interval.Regs.create 2 in
  Interval.Regs.set r 0 a;
  Interval.Regs.pow_int r 1 r 0 n;
  Interval.Regs.get r 1

let test_div_nonpositive_zero_end () =
  let eta = 0x1p-1074 in
  let divisors =
    [ ("[-1, 0]", iv (-1.0) 0.0, [ -1.0; -0.5; -1e-3; -1e-300; -.eta ]);
      ("[-1, -0]", iv (-1.0) (-0.0), [ -1.0; -0.25; -1e-300; -.eta ]);
      ("[-3, 0]", iv (-3.0) 0.0, [ -3.0; -1.0; -1e-8 ]) ]
  in
  let numerators = [ iv 1.0 2.0; iv (-2.0) (-1.0); iv 1.0 1.0; iv (-4.0) (-0.5) ] in
  let contains name q x =
    if not (Interval.mem x q) then
      Alcotest.failf "%s: %h not in %s" name x (Interval.to_string q)
  in
  List.iter
    (fun (dname, b, ys) ->
      List.iter
        (fun a ->
          let name op = Printf.sprintf "%s %s %s" op (Interval.to_string a) dname in
          let quotients =
            [ (name "div", Interval.div a b);
              (name "div_rel", Interval.div_rel a b);
              (name "Regs.div", regs_op2 Interval.Regs.div a b);
              (name "Regs.div_rel", regs_op2 Interval.Regs.div_rel a b) ]
          in
          List.iter
            (fun (qname, q) ->
              List.iter
                (fun x -> List.iter (fun y -> contains qname q (x /. y)) ys)
                [ Interval.inf a; Interval.sup a; Interval.midpoint a ])
            quotients)
        numerators;
      List.iter
        (fun (qname, q) -> List.iter (fun y -> contains qname q (1.0 /. y)) ys)
        [ ("pow_int " ^ dname ^ " (-1)", Interval.pow_int b (-1));
          ("Regs.pow_int " ^ dname ^ " (-1)", regs_pow_int b (-1)) ])
    divisors;
  (* hi_up (-eta) is -0: the |x|^1 bounds of [-1, -eta] end in a zero the
     reciprocal must approach from below *)
  let b = iv (-1.0) (-.eta) in
  List.iter
    (fun (qname, q) ->
      List.iter (fun y -> contains qname q (1.0 /. y)) [ -1.0; -1e-3; -1e-300 ])
    [ ("pow_int [-1, -eta] (-1)", Interval.pow_int b (-1));
      ("Regs.pow_int [-1, -eta] (-1)", regs_pow_int b (-1)) ]

(* The hand-written successor/predecessor and min/max replace C calls on
   the soundness path, so they must agree with the stdlib bit for bit. *)
let bits = Int64.bits_of_float

let same_bits name want got x =
  if bits want <> bits got then
    Alcotest.failf "%s %h (%Lx): got %h (%Lx), want %h (%Lx)" name x (bits x)
      got (bits got) want (bits want)

let eta = 0x1p-1074

let rounding_points =
  let around x = [ Float.pred x; x; Float.succ x ] in
  let base =
    [ 0.0; eta; 1.0; Float.max_float; Float.infinity; Float.nan ]
    @ around 0x1p-1022 @ around 0x1p-1021 @ around 0x1p-969
  in
  base @ List.map Float.neg base

let check_rounding x =
  same_bits "succ" (Float.succ x) (Interval.succ x) x;
  same_bits "pred" (Float.pred x) (Interval.pred x) x;
  let fixed f x = if Float.is_finite x then f x else x in
  same_bits "hi_up" (fixed Float.succ x) (Interval.hi_up x) x;
  same_bits "lo_down" (fixed Float.pred x) (Interval.lo_down x) x

let test_rounding_points () =
  List.iter check_rounding rounding_points;
  (* the zero the naive formula gets wrong *)
  check_true "succ (-eta) is -0"
    (bits (Interval.succ (-.eta)) = bits (-0.0));
  check_true "pred eta is +0" (bits (Interval.pred eta) = bits 0.0)

let test_min_max () =
  let args = [ 0.0; -0.0; 1.0; -1.0; Float.nan; -.Float.nan ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let name = Printf.sprintf "(%h, %h)" x y in
          same_bits ("fmin " ^ name) (Float.min x y) (Interval.fmin x y) x;
          same_bits ("fmax " ^ name) (Float.max x y) (Interval.fmax x y) x)
        args)
    args

let prop_rounding_bits =
  qcheck ~count:20_000 "succ/pred bit-identical on random bit patterns"
    QCheck2.Gen.int64
    (fun b ->
      check_rounding (Int64.float_of_bits b);
      true)

(* The multiply keeps two of the four corner products, chosen by the
   operands' signs. The four-corner hull it replaced is the oracle: both
   must give the same bounds bit for bit, on the boxed operation and on
   the register kernel, with the destination register aliasing either
   operand or both. *)
let xmul x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

(* The four-corner rule as [Regs.mul] computed it, on raw bounds:
   malformed (lo > hi) or NaN operands are empty. *)
let hull_mul alo ahi blo bhi =
  if not (alo <= ahi) || not (blo <= bhi) then
    (Float.infinity, Float.neg_infinity)
  else if (alo = 0.0 && ahi = 0.0) || (blo = 0.0 && bhi = 0.0) then (0.0, 0.0)
  else begin
    let p1 = xmul alo blo and p2 = xmul alo bhi in
    let p3 = xmul ahi blo and p4 = xmul ahi bhi in
    let lo = Interval.lo_down (Float.min (Float.min p1 p2) (Float.min p3 p4)) in
    let hi = Interval.hi_up (Float.max (Float.max p1 p2) (Float.max p3 p4)) in
    if Float.is_nan lo || Float.is_nan hi || lo > hi then
      (Float.infinity, Float.neg_infinity)
    else (lo, hi)
  end

let mul_mismatch label (alo, ahi) (blo, bhi) (wlo, whi) (glo, ghi) =
  if bits wlo <> bits glo || bits whi <> bits ghi then
    Alcotest.failf "%s [%h, %h] * [%h, %h]: got [%h, %h], want [%h, %h]" label
      alo ahi blo bhi glo ghi wlo whi

(* Raw bounds into a register, malformed ones included. *)
let store_raw r i (lo, hi) =
  Float.Array.set r.Interval.Regs.lo i lo;
  Float.Array.set r.Interval.Regs.hi i hi

let read_raw r i =
  (Float.Array.get r.Interval.Regs.lo i, Float.Array.get r.Interval.Regs.hi i)

let check_mul_bits a b =
  let want = hull_mul (fst a) (snd a) (fst b) (snd b) in
  (* the boxed operation, on the operands [of_bounds] makes of the pairs:
     a malformed pair becomes the empty interval, (+inf, -inf) *)
  let boxed (lo, hi) = Interval.of_bounds lo hi in
  let ia = boxed a and ib = boxed b in
  let p = Interval.mul ia ib in
  mul_mismatch "Interval.mul" a b
    (hull_mul (Interval.inf ia) (Interval.sup ia) (Interval.inf ib)
       (Interval.sup ib))
    (Interval.inf p, Interval.sup p);
  let r = Interval.Regs.create 3 in
  let load () =
    store_raw r 0 a;
    store_raw r 1 b
  in
  load ();
  Interval.Regs.mul r 2 r 0 r 1;
  mul_mismatch "Regs.mul" a b want (read_raw r 2);
  load ();
  Interval.Regs.mul r 0 r 0 r 1;
  mul_mismatch "Regs.mul into a" a b want (read_raw r 0);
  load ();
  Interval.Regs.mul r 1 r 0 r 1;
  mul_mismatch "Regs.mul into b" a b want (read_raw r 1);
  load ();
  Interval.Regs.mul r 0 r 0 r 0;
  mul_mismatch "Regs.mul a * a into a" a a
    (hull_mul (fst a) (snd a) (fst a) (snd a))
    (read_raw r 0)

let mul_special_values =
  let around x = [ Float.pred x; x; Float.succ x ] in
  let base =
    [ 0.0; eta; 0x1p-1022; 0x1p-600; 0x1p600; Float.max_float;
      Float.infinity ]
    @ around 1.0
  in
  base @ List.map Float.neg base

(* Every interval with endpoints from the table, malformed ones (lo > hi)
   included, times every other. *)
let test_mul_bits_special () =
  let ivs =
    List.concat_map
      (fun lo -> List.map (fun hi -> (lo, hi)) mul_special_values)
      mul_special_values
  in
  List.iter (fun a -> List.iter (fun b -> check_mul_bits a b) ivs) ivs

let prop_mul_bits =
  let endpoint =
    QCheck2.Gen.(
      frequency
        [
          (2, map Int64.float_of_bits int64);
          (1, oneofl mul_special_values);
          (1, float_range (-4.0) 4.0);
        ])
  in
  qcheck ~count:200_000 "mul bit-identical to the four-corner hull"
    QCheck2.Gen.(tup4 endpoint endpoint endpoint endpoint)
    ~print:(fun (a, b, c, d) -> Printf.sprintf "[%h, %h] * [%h, %h]" a b c d)
    (fun (alo, ahi, blo, bhi) ->
      check_mul_bits (alo, ahi) (blo, bhi);
      (* the same operands sorted, so most cases are well-formed *)
      check_mul_bits (Float.min alo ahi, Float.max alo ahi)
        (Float.min blo bhi, Float.max blo bhi);
      true)

(* [Regs.mul_one a] is [Regs.mul a one], bit for bit, into another
   register and into the operand's own; and, [Regs.mul] being symmetric,
   [Regs.mul one a] too, the order of the product chains' first step. *)
let check_mul_one_bits a =
  let one = (1.0, 1.0) in
  let r = Interval.Regs.create 3 in
  store_raw r 0 a;
  store_raw r 1 one;
  Interval.Regs.mul r 2 r 0 r 1;
  let want = read_raw r 2 in
  Interval.Regs.mul r 2 r 1 r 0;
  mul_mismatch "Regs.mul one * a" one a want (read_raw r 2);
  store_raw r 2 (Float.nan, Float.nan);
  Interval.Regs.mul_one r 2 r 0;
  mul_mismatch "Regs.mul_one" a one want (read_raw r 2);
  Interval.Regs.mul_one r 0 r 0;
  mul_mismatch "Regs.mul_one into a" a one want (read_raw r 0)

let test_mul_one_special () =
  List.iter
    (fun lo -> List.iter (fun hi -> check_mul_one_bits (lo, hi)) mul_special_values)
    mul_special_values

let prop_mul_one_bits =
  qcheck ~count:100_000 "Regs.mul_one bit-identical to Regs.mul by [1, 1]"
    QCheck2.Gen.(pair int64 int64)
    ~print:(fun (a, b) ->
      Printf.sprintf "[%h, %h]" (Int64.float_of_bits a) (Int64.float_of_bits b))
    (fun (a, b) ->
      let lo = Int64.float_of_bits a and hi = Int64.float_of_bits b in
      check_mul_one_bits (lo, hi);
      check_mul_one_bits (Float.min lo hi, Float.max lo hi);
      true)

(* Containment property: f([a,b]) contains f(x) for sampled x. *)
let containment_qcheck name ixf ff =
  qcheck name
    QCheck2.Gen.(
      tup3 (float_range (-50.0) 50.0) (float_range 0.0 20.0)
        (float_range 0.0 1.0))
    (fun (lo, w, frac) ->
      let hi = lo +. w in
      let x = lo +. (frac *. w) in
      let i = ixf (iv lo hi) in
      let v = ff x in
      Float.is_nan v || Interval.is_empty i = false && Interval.mem v i
      || Interval.is_empty i)

let suite =
  [
    case "construction" test_construction;
    case "lattice operations" test_lattice;
    case "measures" test_measures;
    case "ring arithmetic" test_arith_basics;
    case "zero times infinity" test_zero_times_inf;
    case "powers" test_powers;
    case "sign tests" test_sign_tests;
    case "splitting" test_split;
    case "succ/pred/lo_down/hi_up match nextafter" test_rounding_points;
    case "fmin/fmax match Float.min/max" test_min_max;
    case "division by a nonpositive divisor with a zero end"
      test_div_nonpositive_zero_end;
    prop_rounding_bits;
    case "mul bit-identical to the four-corner hull on special values"
      test_mul_bits_special;
    prop_mul_bits;
    case "Regs.mul_one bit-identical to Regs.mul by [1, 1] on special values"
      test_mul_one_special;
    prop_mul_one_bits;
    containment_qcheck "exp containment" Transcend.exp Stdlib.exp;
    containment_qcheck "log containment" Transcend.log Stdlib.log;
    containment_qcheck "atan containment" Transcend.atan Stdlib.atan;
    containment_qcheck "tanh containment" Transcend.tanh Stdlib.tanh;
    containment_qcheck "sin containment" Transcend.sin Stdlib.sin;
    containment_qcheck "cos containment" Transcend.cos Stdlib.cos;
    containment_qcheck "lambert containment" Transcend.lambert_w Lambert.w0;
    qcheck "mul containment"
      QCheck2.Gen.(
        tup4 (float_range (-10.0) 10.0) (float_range 0.0 5.0)
          (float_range (-10.0) 10.0) (float_range 0.0 5.0))
      (fun (a, wa, b, wb) ->
        let ia = iv a (a +. wa) and ib = iv b (b +. wb) in
        let prod = Interval.mul ia ib in
        (* check all four corners and the midpoints *)
        List.for_all
          (fun (x, y) -> Interval.mem (x *. y) prod)
          [
            (a, b); (a +. wa, b); (a, b +. wb); (a +. wa, b +. wb);
            (a +. (wa /. 2.0), b +. (wb /. 2.0));
          ]);
    qcheck "div containment"
      QCheck2.Gen.(
        tup4 (float_range (-10.0) 10.0) (float_range 0.0 5.0)
          (float_range (-10.0) 10.0) (float_range 0.0 5.0))
      (fun (a, wa, b, wb) ->
        let ia = iv a (a +. wa) and ib = iv b (b +. wb) in
        let q = Interval.div ia ib in
        let check x y =
          y = 0.0 || Interval.mem (x /. y) q
        in
        List.for_all
          (fun (x, y) -> check x y)
          [ (a, b); (a +. wa, b +. wb); (a, b +. wb); (a +. wa, b) ]);
    qcheck "pow containment over nonneg bases"
      QCheck2.Gen.(
        tup3 (float_range 0.0 10.0) (float_range 0.0 5.0)
          (float_range (-3.0) 3.0))
      (fun (a, w, p) ->
        let i = Interval.pow (iv a (a +. w)) p in
        let v = Eval.pow_float (a +. (w /. 2.0)) p in
        Float.is_nan v || Interval.mem v i);
  ]
