type t = { lo : float; hi : float }

(* ------------------------------------------------------------------ *)
(* Outward rounding                                                    *)
(* ------------------------------------------------------------------ *)

(* Successor and predecessor in round-to-nearest arithmetic, after Rump,
   Zimmermann, Boldo and Melquiond, "Computing predecessor and successor
   in rounding to nearest", BIT 49 (2009). For |x| >= 2^-969 the product
   phi * |x| with phi = u (1 + 2u), u = 2^-53, lies strictly between half
   an ulp and one and a half ulps of x and is computed without underflow,
   so x + phi |x| rounds to the neighbour. Below 2^-1021 the spacing is
   the smallest subnormal eta = 2^-1074 and x + eta is exact; in between,
   scaling by 2^53 moves x into the first range exactly. Each branch is
   plain float arithmetic: [Float.succ]/[Float.pred] are C calls
   ([nextafter]) and this sits on every interval operation. The result is
   bit-identical to [nextafter] (test/test_interval.ml checks it), with
   one special case the formula misses: succ (-eta) is -0, not +0. *)
let phi = 0x1.0000000000001p-53

(* Infinities as literals: unlike [Float.infinity] they fold to constants,
   so an inlined function that returns one keeps its result unboxed. *)
let pos_inf = 0x1p1024
let neg_inf = -0x1p1024

(* [up ~strict x]: the successor of [x]. With [strict] it is [nextafter]
   toward +inf exactly (-inf steps to -max_float, NaN is quieted); without,
   infinities and NaN are fixed points, the outward-rounding rule. *)
let[@inline] up ~strict x =
  let a = Float.abs x in
  if a >= 0x1p-969 then
    if a <= 0x1.fffffffffffffp1023 then x +. (phi *. a)
    else if (not strict) || x > 0.0 then x
    else -0x1.fffffffffffffp1023
  else if a < 0x1p-1021 then if x = -0x1p-1074 then -0.0 else x +. 0x1p-1074
  else if a >= 0x1p-1021 then
    let c = x *. 0x1p53 in
    (c +. (phi *. Float.abs c)) *. 0x1p-53
  else if strict then x +. x
  else x

let[@inline] succ x = up ~strict:true x
let[@inline] pred x = -.up ~strict:true (-.x)
let[@inline] hi_up x = up ~strict:false x
let[@inline] lo_down x = -.up ~strict:false (-.x)

(* [Float.min]/[Float.max] without their C calls on ordered operands:
   comparisons decide every ordered pair, and -0 < +0 is settled by the
   sign of 1/x. Only a NaN operand (never produced on the hot path) falls
   through to the stdlib's own sign-bit rule, spelled out here so both
   arms return unboxed floats. *)
let[@inline] fmin x y =
  if y > x then x
  else if x > y then y
  else if x = y then if x = 0.0 && 1.0 /. x < 0.0 then x else y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let[@inline] fmax x y =
  if y > x then y
  else if x > y then x
  else if x = y then if x = 0.0 && 1.0 /. x < 0.0 then y else x
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

(* Empty is canonically [{lo = +inf; hi = -inf}]. *)
let empty = { lo = Float.infinity; hi = Float.neg_infinity }
let is_empty i = not (i.lo <= i.hi)

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Interval.make: malformed bounds";
  { lo; hi }

let point x = make x x
let top = { lo = Float.neg_infinity; hi = Float.infinity }
let zero = point 0.0
let one = point 1.0
let nonneg = { lo = 0.0; hi = Float.infinity }

let[@inline] of_bounds lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then empty else { lo; hi }

let is_point i = i.lo = i.hi
let is_bounded i = (not (is_empty i)) && Float.is_finite i.lo && Float.is_finite i.hi
let inf i = i.lo
let sup i = i.hi
let mem x i = i.lo <= x && x <= i.hi
let subset a b = is_empty a || (b.lo <= a.lo && a.hi <= b.hi)

let width i = if is_empty i then 0.0 else i.hi -. i.lo

let midpoint i =
  if is_empty i then invalid_arg "Interval.midpoint: empty interval";
  if Float.is_finite i.lo && Float.is_finite i.hi then begin
    let m = 0.5 *. (i.lo +. i.hi) in
    if Float.is_finite m then m else (0.5 *. i.lo) +. (0.5 *. i.hi)
  end
  else if Float.is_finite i.lo then fmax i.lo 1e150
  else if Float.is_finite i.hi then fmin i.hi (-1e150)
  else 0.0

let mag i = if is_empty i then 0.0 else fmax (Float.abs i.lo) (Float.abs i.hi)

let mig i =
  if is_empty i then 0.0
  else if i.lo > 0.0 then i.lo
  else if i.hi < 0.0 then -.i.hi
  else 0.0

let equal a b =
  (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let meet a b = of_bounds (fmax a.lo b.lo) (fmin a.hi b.hi)

let join a b =
  if is_empty a then b
  else if is_empty b then a
  else { lo = fmin a.lo b.lo; hi = fmax a.hi b.hi }

let split i =
  if is_empty i || is_point i then invalid_arg "Interval.split";
  let m = midpoint i in
  (* For ulp-wide intervals the midpoint rounds onto an endpoint, which
     would hand back a child identical to the parent and never terminate a
     splitting worklist. Nudge one ulp inward; if no interior float exists
     the interval is not splittable at all. *)
  let m =
    if m <= i.lo then succ i.lo
    else if m >= i.hi then pred i.hi
    else m
  in
  if not (i.lo < m && m < i.hi) then
    invalid_arg "Interval.split: no float strictly inside";
  ({ lo = i.lo; hi = m }, { lo = m; hi = i.hi })

(* ------------------------------------------------------------------ *)
(* Ring operations                                                     *)
(* ------------------------------------------------------------------ *)

let neg i = if is_empty i then empty else { lo = -.i.hi; hi = -.i.lo }

let add a b =
  if is_empty a || is_empty b then empty
  else of_bounds (lo_down (a.lo +. b.lo)) (hi_up (a.hi +. b.hi))

let sub a b = add a (neg b)

(* Endpoint product with the interval-arithmetic convention 0 * inf = 0
   (a zero endpoint means the factor can be exactly 0, and 0 times any finite
   approximant is 0). *)
let[@inline] xmul x y = if x = 0.0 || y = 0.0 then 0.0 else x *. y

(* Outward hull of four corner values, one bound each: the shared tail of
   {!div} and of its register kernel below. *)
let[@inline] hull4_lo c1 c2 c3 c4 = lo_down (fmin (fmin c1 c2) (fmin c3 c4))
let[@inline] hull4_hi c1 c2 c3 c4 = hi_up (fmax (fmax c1 c2) (fmax c3 c4))

(* The least and the greatest of the four corner products of non-empty
   [al, ah] * [bl, bh], neither of them [0, 0], chosen by the operands'
   signs (each nonnegative, nonpositive or straddling 0) instead of
   computed and compared: the two products a four-corner hull would keep.
   Over the reals the extremes of x * y sit at these corners. In floats
   the argument still holds, because [xmul] is monotone in each argument
   (round-to-nearest is monotone, and the 0 * inf = 0 rule keeps
   x -> xmul x y nondecreasing for y >= 0 and nonincreasing for y <= 0,
   infinities included). So the selected corner compares equal to the
   hull's, and where the two differ only in the sign of a zero,
   [lo_down] and [hi_up] round both to the same bound (-eta, eta). Only
   when both operands straddle 0 do two candidates remain. *)
let[@inline] mul_lo al ah bl bh =
  if al >= 0.0 then if bl >= 0.0 then xmul al bl else xmul ah bl
  else if ah <= 0.0 then if bh <= 0.0 then xmul ah bh else xmul al bh
  else if bl >= 0.0 then xmul al bh
  else if bh <= 0.0 then xmul ah bl
  else fmin (xmul al bh) (xmul ah bl)

let[@inline] mul_hi al ah bl bh =
  if al >= 0.0 then if bh <= 0.0 then xmul al bh else xmul ah bh
  else if ah <= 0.0 then if bl >= 0.0 then xmul ah bl else xmul al bl
  else if bl >= 0.0 then xmul ah bh
  else if bh <= 0.0 then xmul al bl
  else fmax (xmul al bl) (xmul ah bh)

let mul a b =
  if is_empty a || is_empty b then empty
  else if (a.lo = 0.0 && a.hi = 0.0) || (b.lo = 0.0 && b.hi = 0.0) then
    (* {0} * Y = {0} exactly; skipping the outward widening here keeps
       identities like 0 * top = 0 crisp. *)
    { lo = 0.0; hi = 0.0 }
  else
    of_bounds
      (lo_down (mul_lo a.lo a.hi b.lo b.hi))
      (hi_up (mul_hi a.lo a.hi b.lo b.hi))

(* Endpoint quotient for a divisor of constant sign. A zero endpoint [y]
   is approached from the divisor's own side — from below when the divisor
   is nonpositive ([nonpos]), from above otherwise — whatever the sign of
   the stored zero: 1 / [-1, 0] is (-inf, -1], not [-1, +inf]. *)
let[@inline] xdiv x y nonpos =
  if x = 0.0 then 0.0
  else if y = 0.0 then if (x > 0.0) <> nonpos then pos_inf else neg_inf
  else x /. y

let div a b =
  if is_empty a || is_empty b then empty
  else if b.lo = 0.0 && b.hi = 0.0 then empty (* no non-zero divisor *)
  else if b.lo < 0.0 && b.hi > 0.0 then
    (* Divisor straddles zero: the true set is a union of two rays; we return
       the hull, which is top unless the numerator is exactly 0. *)
    if a.lo = 0.0 && a.hi = 0.0 then zero else top
  else begin
    (* Divisor has constant sign (possibly with a zero endpoint); b.lo < 0
       here means b.hi <= 0. *)
    let nonpos = b.lo < 0.0 in
    let q1 = xdiv a.lo b.lo nonpos in
    let q2 = xdiv a.lo b.hi nonpos in
    let q3 = xdiv a.hi b.lo nonpos in
    let q4 = xdiv a.hi b.hi nonpos in
    of_bounds (hull4_lo q1 q2 q3 q4) (hull4_hi q1 q2 q3 q4)
  end

(* Relational division, the projection the HC4 backward pass for products
   needs: [div_rel a b] over-approximates { x | exists y in b, x*y in a }.
   It differs from {!div} — the hull of pointwise quotients — exactly when
   [0] is in both arguments: x*0 = 0 holds for *every* x, so a zero divisor
   is no constraint at all rather than a contradiction. When [0] is not in
   [a], a zero divisor really is infeasible and {!div}'s answer (empty for
   b = {0}) is the right one. *)
let div_rel a b =
  if mem 0.0 a && mem 0.0 b then top else div a b

let inv a = div one a

let abs i =
  if is_empty i then empty
  else if i.lo >= 0.0 then i
  else if i.hi <= 0.0 then neg i
  else { lo = 0.0; hi = fmax (-.i.lo) i.hi }

(* ------------------------------------------------------------------ *)
(* Powers                                                              *)
(* ------------------------------------------------------------------ *)

let pow_bound b x =
  (* Round-to-nearest power used for both bounds before widening. *)
  Eval.pow_float b x

(* [pow_bound b (float_of_int n)] for n >= 1: {!Eval.pow_float}'s binary
   powering, inlined here so its operands stay unboxed. *)
let[@inline] pow_bound_int b n =
  if n > 64 then Float.pow b (float_of_int n)
  else begin
    let acc = ref 1.0 and b = ref b and n = ref n in
    while !n <> 0 do
      if !n land 1 = 1 then acc := !acc *. !b;
      b := !b *. !b;
      n := !n asr 1
    done;
    !acc
  end

(* The bounds of the base i^n is monotone in, for n >= 1: [i] itself for
   odd powers (monotone increasing), [abs i] for even ones, which behave
   like |i|^n. *)
let[@inline] pow_base_lo n lo hi =
  if n land 1 = 1 || lo >= 0.0 then lo else if hi <= 0.0 then -.hi else 0.0

let[@inline] pow_base_hi n lo hi =
  if n land 1 = 1 || lo >= 0.0 then hi
  else if hi <= 0.0 then -.lo
  else fmax (-.lo) hi

let pow_int_pos i n =
  (* i^n for n >= 1. *)
  of_bounds
    (lo_down (pow_bound_int (pow_base_lo n i.lo i.hi) n))
    (hi_up (pow_bound_int (pow_base_hi n i.lo i.hi) n))

let rec pow_int i n =
  if is_empty i then empty
  else if n = 0 then one
  else if n > 0 then pow_int_pos i n
  else inv (pow_int i (-n))

let pow_nonneg_base i p =
  (* i^p for real p, base restricted to [0, inf): monotone in the base. *)
  let i = meet i nonneg in
  if is_empty i then empty
  else if p = 0.0 then one
  else if p > 0.0 then
    of_bounds (lo_down (pow_bound i.lo p)) (hi_up (pow_bound i.hi p))
  else begin
    (* Decreasing; 0^p = +inf. *)
    let hi = if i.lo = 0.0 then Float.infinity else hi_up (pow_bound i.lo p) in
    let lo = lo_down (pow_bound i.hi p) in
    of_bounds lo hi
  end

let pow i p =
  if is_empty i then empty
  else if Float.is_integer p && Float.abs p <= 1073741823.0 then
    pow_int i (int_of_float p)
  else pow_nonneg_base i p

let pow_expr base expo =
  if is_empty base || is_empty expo then empty
  else if is_point expo then pow base expo.lo
  else begin
    (* Variable exponent: x^y = exp(y log x) on x > 0, plus the value at
       x = 0 (0^y = 0 for y > 0). Conservative: monotone corner analysis. *)
    let b = meet base nonneg in
    if is_empty b then empty
    else begin
      let corner bx px = pow_bound bx px in
      let cs =
        [
          corner b.lo expo.lo;
          corner b.lo expo.hi;
          corner b.hi expo.lo;
          corner b.hi expo.hi;
        ]
        |> List.filter (fun v -> not (Float.is_nan v))
      in
      match cs with
      | [] -> empty
      | c :: rest ->
          let lo = List.fold_left fmin c rest in
          let hi = List.fold_left fmax c rest in
          (* Interior extrema of x^y on a box lie on the edges x in {b.lo,
             b.hi} or y in {expo.lo, expo.hi}, where the function is monotone
             in the remaining variable — corners suffice except across x = 1,
             which corner evaluation also covers since x^y is monotone in y
             for fixed x. *)
          of_bounds (lo_down lo) (hi_up hi)
    end
  end

(* ------------------------------------------------------------------ *)
(* Sign tests                                                          *)
(* ------------------------------------------------------------------ *)

let certainly_le i c = is_empty i || i.hi <= c
let certainly_lt i c = is_empty i || i.hi < c
let certainly_ge i c = is_empty i || i.lo >= c
let certainly_gt i c = is_empty i || i.lo > c
let possibly_le i c = (not (is_empty i)) && i.lo <= c

let pp ppf i =
  if is_empty i then Format.pp_print_string ppf "[empty]"
  else Format.fprintf ppf "[%.17g, %.17g]" i.lo i.hi

let to_string i = Format.asprintf "%a" pp i

(* ------------------------------------------------------------------ *)
(* Register files                                                      *)
(* ------------------------------------------------------------------ *)

module Regs = struct
  type interval = t
  type t = { lo : Float.Array.t; hi : Float.Array.t }

  let create n =
    { lo = Float.Array.make n pos_inf; hi = Float.Array.make n neg_inf }

  let length r = Float.Array.length r.lo
  let[@inline] lo r i = Float.Array.get r.lo i
  let[@inline] hi r i = Float.Array.get r.hi i

  let[@inline] store r i l h =
    Float.Array.set r.lo i l;
    Float.Array.set r.hi i h

  (* {!of_bounds}, into a register *)
  let[@inline] store_bounds r i l h =
    if Float.is_nan l || Float.is_nan h || l > h then store r i pos_inf neg_inf
    else store r i l h

  let get r i = of_bounds (lo r i) (hi r i)
  let set r i (iv : interval) = store r i (inf iv) (sup iv)
  let copy dst d a i = store dst d (lo a i) (hi a i)

  let blit src dst n =
    Float.Array.blit src.lo 0 dst.lo 0 n;
    Float.Array.blit src.hi 0 dst.hi 0 n

  let fill r n (iv : interval) =
    Float.Array.fill r.lo 0 n (inf iv);
    Float.Array.fill r.hi 0 n (sup iv)

  let[@inline] is_empty r i = not (lo r i <= hi r i)
  let[@inline] is_zero r i = lo r i = 0.0 && hi r i = 0.0
  let[@inline] mem x r i = lo r i <= x && x <= hi r i

  let equal a i b j =
    (is_empty a i && is_empty b j) || (lo a i = lo b j && hi a i = hi b j)

  let same r i (iv : interval) =
    Int64.bits_of_float (lo r i) = Int64.bits_of_float iv.lo
    && Int64.bits_of_float (hi r i) = Int64.bits_of_float iv.hi

  (* Bit equality without a C call: finite bounds that compare equal are
     the same float, except a zero, whose sign [1 / x] tells. *)
  let[@inline] same_finite_bound x y =
    Float.abs x < pos_inf && x = y && (x <> 0.0 || 1.0 /. x = 1.0 /. y)

  let same_finite a i b j =
    same_finite_bound (lo a i) (lo b j) && same_finite_bound (hi a i) (hi b j)

  let lo_above r i x = lo r i > x && lo r i <= hi r i
  let straddles_zero r i = lo r i < 0.0 && 0.0 < hi r i
  let is_bounded r i =
    Float.abs (lo r i) < pos_inf && Float.abs (hi r i) < pos_inf

  let lo_point dst d a i =
    let l = lo a i in
    store dst d l l

  let hi_point dst d a i =
    let h = hi a i in
    store dst d h h

  (* Each kernel reads its operands before it writes, so [dst.(d)] may be
     one of them: accumulators update in place. *)

  let[@inline] add_bounds dst d alo ahi blo bhi =
    if not (alo <= ahi) || not (blo <= bhi) then store dst d pos_inf neg_inf
    else store_bounds dst d (lo_down (alo +. blo)) (hi_up (ahi +. bhi))

  let add dst d a i b j =
    add_bounds dst d (lo a i) (hi a i) (lo b j) (hi b j)

  (* a - b is a + (neg b) *)
  let sub dst d a i b j =
    add_bounds dst d (lo a i) (hi a i) (-.hi b j) (-.lo b j)

  let mul dst d a i b j =
    let alo = lo a i and ahi = hi a i and blo = lo b j and bhi = hi b j in
    if not (alo <= ahi) || not (blo <= bhi) then store dst d pos_inf neg_inf
    else if (alo = 0.0 && ahi = 0.0) || (blo = 0.0 && bhi = 0.0) then
      store dst d 0.0 0.0
    else
      store_bounds dst d
        (lo_down (mul_lo alo ahi blo bhi))
        (hi_up (mul_hi alo ahi blo bhi))

  (* [mul dst d a i one], without the corner selection: against [1, 1]
     each selected corner is the bound itself (a zero bound comes back as
     +0, which the outward step maps to the same -eta or eta as -0), and
     rounding a non-empty operand outward keeps lo <= hi. *)
  let mul_one dst d a i =
    let alo = lo a i and ahi = hi a i in
    if not (alo <= ahi) then store dst d pos_inf neg_inf
    else if alo = 0.0 && ahi = 0.0 then store dst d 0.0 0.0
    else store dst d (lo_down alo) (hi_up ahi)

  let[@inline] div_bounds dst d alo ahi blo bhi =
    if not (alo <= ahi) || not (blo <= bhi) then store dst d pos_inf neg_inf
    else if blo = 0.0 && bhi = 0.0 then store dst d pos_inf neg_inf
    else if blo < 0.0 && bhi > 0.0 then
      if alo = 0.0 && ahi = 0.0 then store dst d 0.0 0.0
      else store dst d neg_inf pos_inf
    else begin
      let nonpos = blo < 0.0 in
      let q1 = xdiv alo blo nonpos in
      let q2 = xdiv alo bhi nonpos in
      let q3 = xdiv ahi blo nonpos in
      let q4 = xdiv ahi bhi nonpos in
      store_bounds dst d (hull4_lo q1 q2 q3 q4) (hull4_hi q1 q2 q3 q4)
    end

  let div dst d a i b j = div_bounds dst d (lo a i) (hi a i) (lo b j) (hi b j)

  (* {!pow_int}: i^|n| from the shared base and powering rules, inverted
     through {!div} for negative n. *)
  let pow_int dst d a i n =
    let l = lo a i and h = hi a i in
    if not (l <= h) then store dst d pos_inf neg_inf
    else if n = 0 then store dst d 1.0 1.0
    else begin
      let m = Stdlib.abs n in
      let pl = lo_down (pow_bound_int (pow_base_lo m l h) m) in
      let ph = hi_up (pow_bound_int (pow_base_hi m l h) m) in
      if n > 0 then store_bounds dst d pl ph
      else if Float.is_nan pl || Float.is_nan ph || pl > ph then
        store dst d pos_inf neg_inf
      else div_bounds dst d 1.0 1.0 pl ph
    end

  let div_rel dst d a i b j =
    if mem 0.0 a i && mem 0.0 b j then store dst d neg_inf pos_inf
    else div dst d a i b j

  let meet dst d a i b j =
    store_bounds dst d (fmax (lo a i) (lo b j)) (fmin (hi a i) (hi b j))

  let join dst d a i b j =
    if is_empty a i then copy dst d b j
    else if is_empty b j then copy dst d a i
    else store dst d (fmin (lo a i) (lo b j)) (fmax (hi a i) (hi b j))
end
