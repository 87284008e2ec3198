open Expr

type result = Contracted of Box.t | Infeasible

(* One SSA register per distinct DAG node, in the exact order the
   tree-walking HC4 forward pass first completes them, so that iterating
   the tape backwards replays the tree walker's parents-first backward
   sweep instruction for instruction. *)
type instr =
  | Iconst of Interval.t
  | Ivar of int  (* box dimension *)
  | Iadd of int array
  | Imul of int array
  | Ipow of {
      base : int;
      expo : int;
      const_expo : float option;
      const_rat : Rat.t option;
          (* exact rational exponent, when the expression carries one: the
             forward rule and the backward inverse then account for the
             rounding of the exponent instead of silently using fl(r) *)
    }
  | Iunop of Expr.unop * int
  | Iselect of { branches : (int * Expr.rel * int) array; default : int }

type t = {
  instrs : instr array;
  root : int;
  rel : Form.relation;
  target : Interval.t;  (* target_of_relation rel, precomputed *)
  slots : int array;  (* distinct box dimensions read, ascending *)
  var_regs : (int * int) array;  (* (register, box dimension) per Ivar *)
  has_select : bool;
      (* select-free programs have a static visited set (every register),
         so the per-call mark pass and mask are skipped entirely *)
}

let target_of_relation = function
  | Form.Le0 | Form.Lt0 -> Interval.make Float.neg_infinity 0.0
  | Form.Ge0 | Form.Gt0 -> Interval.make 0.0 Float.infinity
  | Form.Eq0 -> Interval.zero

(* Inverse of y = x^n for integer n: the set { x | x^n in r }, returned as a
   list of disjoint branches. The caller meets each branch with the child's
   current domain *before* hulling — intersecting the hull instead would
   bridge the gap between the positive and negative branches and lose most
   of the contraction (e.g. x^2 >= 4 on [0, 10] must give [2, 10], not
   [0, 10]). *)
let rec backward_pow_int r n =
  if n = 0 then [ Interval.top ] (* x^0 = 1 constrains x not at all *)
  else if n < 0 then backward_pow_int (Interval.inv r) (-n)
  else begin
    let p = 1.0 /. float_of_int n in
    let pos = Interval.pow (Interval.meet r Interval.nonneg) p in
    let neg_src =
      if n land 1 = 1 then Interval.meet (Interval.neg r) Interval.nonneg
      else Interval.meet r Interval.nonneg
    in
    [ pos; Interval.neg (Interval.pow neg_src p) ]
  end

let backward_pow_const r p =
  if Float.is_integer p && Float.abs p <= 1073741823.0 then
    backward_pow_int r (int_of_float p)
  else if p = 0.0 then [ Interval.top ]
  else
    (* Non-integer exponent: base is >= 0 by domain semantics. *)
    [ Interval.pow (Interval.meet r Interval.nonneg) (1.0 /. p) ]

(* Exact-rational exponent: integers reuse the branch inverse verbatim;
   non-integers invert through [pow_rat] with the exact reciprocal, so
   the inverse carries the exponent's rounding the float path drops. *)
let backward_pow_rat r rat =
  match Rat.to_int rat with
  | Some n -> backward_pow_int r n
  | None -> [ Transcend.pow_rat (Interval.meet r Interval.nonneg) (Rat.inv rat) ]

let backward_abs r =
  let r' = Interval.meet r Interval.nonneg in
  if Interval.is_empty r' then [ Interval.empty ]
  else [ r'; Interval.neg r' ]

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compile ~vars (atom : Form.atom) =
  let slot_of v =
    let rec find i = function
      | [] ->
          invalid_arg (Printf.sprintf "Itape.compile: unbound variable %S" v)
      | v' :: rest -> if String.equal v v' then i else find (i + 1) rest
    in
    find 0 vars
  in
  let code = ref [] in
  let n = ref 0 in
  let slots = ref [] in
  let emit ins =
    code := ins :: !code;
    let r = !n in
    incr n;
    r
  in
  let reg_of =
    memo_fix (fun self e ->
        match e.node with
        | Num r -> emit (Iconst (Interval.point (Rat.to_float r)))
        | Flt f -> emit (Iconst (Interval.point f))
        | Var v ->
            let s = slot_of v in
            slots := s :: !slots;
            emit (Ivar s)
        | Add terms -> emit (Iadd (Array.of_list (List.map self terms)))
        | Mul factors -> emit (Imul (Array.of_list (List.map self factors)))
        | Pow (b, x) ->
            (* The tree walker computes [pow_expr (forward b) (forward x)],
               and OCaml evaluates arguments right to left — the exponent
               subtree completes before the base subtree. Registers must be
               emitted in that same order for the backward replay to visit
               nodes in the tree walker's exact sequence. *)
            let rx = self x in
            let rb = self b in
            emit
              (Ipow
                 {
                   base = rb;
                   expo = rx;
                   const_expo = as_const x;
                   const_rat = as_rat x;
                 })
        | Apply (op, a) -> emit (Iunop (op, self a))
        | Piecewise (branches, default) ->
            let compiled =
              List.map
                (fun (g, body) -> (self g.cond, g.grel, self body))
                branches
            in
            emit
              (Iselect
                 { branches = Array.of_list compiled; default = self default }))
  in
  let root = reg_of atom.Form.expr in
  let instrs = Array.of_list (List.rev !code) in
  let var_regs = ref [] in
  let has_select = ref false in
  Array.iteri
    (fun i ins ->
      match ins with
      | Ivar s -> var_regs := (i, s) :: !var_regs
      | Iselect _ -> has_select := true
      | _ -> ())
    instrs;
  {
    instrs;
    root;
    rel = atom.Form.rel;
    target = target_of_relation atom.Form.rel;
    slots = Array.of_list (List.sort_uniq Stdlib.compare !slots);
    var_regs = Array.of_list (List.rev !var_regs);
    has_select = !has_select;
  }

let length prog = Array.length prog.instrs
let slots prog = prog.slots

(* Read-only program view for external code generators (lib/jit). *)
let instrs prog = prog.instrs
let root prog = prog.root
let rel prog = prog.rel
let target prog = prog.target
let var_regs prog = prog.var_regs
let has_select prog = prog.has_select

(* ------------------------------------------------------------------ *)
(* Per-domain scratch registers                                        *)
(* ------------------------------------------------------------------ *)

(* One forward array, one requirement array and one visited mask per worker
   domain, grown on demand and reused across every revise call the domain
   performs — this is what replaces the tree walker's two fresh hashtables
   per call. Keyed per domain (not stored in the shared program, which
   several workers revise concurrently). *)
type scratch = {
  mutable fwd : Interval.t array;
  mutable req : Interval.t array;
  mutable adj : Interval.t array;
      (* adjoint registers of the reverse-mode gradient sweep *)
  mutable visited : bool array;
  mutable nary : Interval.t array;
      (* suffix-fold buffer for n-ary backward contributions *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { fwd = [||]; req = [||]; adj = [||]; visited = [||]; nary = [||] })

let ensure_capacity s n =
  if Array.length s.fwd < n then begin
    let m = Stdlib.max n (2 * Array.length s.fwd) in
    s.fwd <- Array.make m Interval.empty;
    s.req <- Array.make m Interval.empty;
    s.adj <- Array.make m Interval.empty;
    s.visited <- Array.make m false
  end

let nary_buffer s m =
  if Array.length s.nary < m then
    s.nary <- Array.make (Stdlib.max m (2 * Array.length s.nary)) Interval.empty;
  s.nary

(* ------------------------------------------------------------------ *)
(* Revise                                                              *)
(* ------------------------------------------------------------------ *)

(* The backward pass of an n-ary node needs, for every operand, the
   combination of all *other* operands. As in the tree walker this is the
   O(n) prefix/suffix trick — here fused into one suffix array (reused from
   scratch) and a running prefix accumulator, associating the combines
   exactly as the tree's [others] does so the values stay float-identical. *)

(* Mark the registers the tree walker would actually visit: all reachable
   children, except that a certainly-True piecewise guard cuts off the
   remaining branches and the default (certainly-False branch bodies *are*
   walked — the tree records them "for uniformity", and the backward pass
   runs over them too, so the replay must include them). *)
let mark_visited instrs (fwd : Interval.t array) visited root =
  let rec mark i =
    if not visited.(i) then begin
      visited.(i) <- true;
      match instrs.(i) with
      | Iconst _ | Ivar _ -> ()
      | Iadd regs | Imul regs -> Array.iter mark regs
      | Ipow { base; expo; _ } ->
          mark expo;
          mark base
      | Iunop (_, a) -> mark a
      | Iselect { branches; default } ->
          let rec walk idx =
            if idx >= Array.length branches then mark default
            else begin
              let c, rel, b = branches.(idx) in
              mark c;
              match Ieval.guard_status_of_interval rel fwd.(c) with
              | `True -> mark b
              | `False ->
                  mark b;
                  walk (idx + 1)
              | `Unknown ->
                  mark b;
                  walk (idx + 1)
            end
          in
          walk 0
    end
  in
  mark root

(* Forward evaluation of every register, bottom-up. Writes into [fwd] and
   returns nothing; the caller reads the registers it needs. *)
let forward_pass instrs (fwd : Interval.t array) box n =
  for i = 0 to n - 1 do
    fwd.(i) <-
      (match instrs.(i) with
      | Iconst c -> c
      | Ivar slot -> Box.get_idx box slot
      | Iadd regs ->
          let acc = ref Interval.zero in
          for j = 0 to Array.length regs - 1 do
            acc := Interval.add !acc fwd.(regs.(j))
          done;
          !acc
      | Imul regs ->
          let acc = ref Interval.one in
          for j = 0 to Array.length regs - 1 do
            acc := Interval.mul !acc fwd.(regs.(j))
          done;
          !acc
      | Ipow { base; expo; const_rat; _ } ->
          Ieval.pow_node const_rat fwd.(base) fwd.(expo)
      | Iunop (op, a) -> Ieval.apply_unop op fwd.(a)
      | Iselect { branches; default } ->
          let rec walk acc idx =
            if idx >= Array.length branches then
              Interval.join acc fwd.(default)
            else begin
              let c, rel, b = branches.(idx) in
              match Ieval.guard_status_of_interval rel fwd.(c) with
              | `True -> Interval.join acc fwd.(b)
              | `False -> walk acc (idx + 1)
              | `Unknown -> walk (Interval.join acc fwd.(b)) (idx + 1)
            end
          in
          walk Interval.empty 0)
  done

let revise prog box =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length prog.instrs in
  ensure_capacity s n;
  let fwd = s.fwd and req = s.req and visited = s.visited in
  forward_pass prog.instrs fwd box n;
  let root_req = Interval.meet fwd.(prog.root) prog.target in
  if Interval.is_empty root_req then Infeasible
  else begin
    (* ---- backward pass ------------------------------------------------ *)
    if prog.has_select then begin
      Array.fill visited 0 n false;
      mark_visited prog.instrs fwd visited prog.root
    end;
    Array.blit fwd 0 req 0 n;
    req.(prog.root) <- root_req;
    let infeasible = ref false in
    let tighten c contribution =
      req.(c) <- Interval.meet req.(c) contribution
    in
    (* Union-of-branches contribution: meet each branch with the current
       requirement first, then hull, preserving gaps the union straddles. *)
    let tighten_branches c branches =
      let cur = req.(c) in
      req.(c) <-
        List.fold_left
          (fun acc b -> Interval.join acc (Interval.meet cur b))
          Interval.empty branches
    in
    let propagate i =
      let r = req.(i) in
      if Interval.is_empty r then infeasible := true
      else
        match prog.instrs.(i) with
        | Iconst _ | Ivar _ -> ()
        | Iadd regs ->
            let m = Array.length regs in
            let suffix = nary_buffer s (m + 1) in
            suffix.(m) <- Interval.zero;
            for j = m - 1 downto 0 do
              suffix.(j) <- Interval.add fwd.(regs.(j)) suffix.(j + 1)
            done;
            let prefix = ref Interval.zero in
            for j = 0 to m - 1 do
              let rest = Interval.add !prefix suffix.(j + 1) in
              tighten regs.(j) (Interval.sub r rest);
              if j < m - 1 then prefix := Interval.add !prefix fwd.(regs.(j))
            done
        | Imul regs ->
            let m = Array.length regs in
            let suffix = nary_buffer s (m + 1) in
            suffix.(m) <- Interval.one;
            for j = m - 1 downto 0 do
              suffix.(j) <- Interval.mul fwd.(regs.(j)) suffix.(j + 1)
            done;
            let prefix = ref Interval.one in
            for j = 0 to m - 1 do
              (* x * rest = r => x in the relational quotient r / rest:
                 top when 0 is in both (x * 0 = 0 constrains nothing),
                 empty when rest = {0} but 0 is not in r. *)
              let rest = Interval.mul !prefix suffix.(j + 1) in
              if not (Interval.is_empty rest) then
                tighten regs.(j) (Interval.div_rel r rest);
              if j < m - 1 then prefix := Interval.mul !prefix fwd.(regs.(j))
            done
        | Ipow { base; expo; const_expo; const_rat } -> (
            match (const_rat, const_expo) with
            | Some rat, _ -> tighten_branches base (backward_pow_rat r rat)
            | None, Some p -> tighten_branches base (backward_pow_const r p)
            | None, None ->
                (* Variable exponent: contract the exponent when the base is
                   certainly > 1 or in (0, 1): y = log r / log b. *)
                let fb = fwd.(base) in
                if Interval.certainly_gt fb 0.0 then begin
                  let logb = Transcend.log fb in
                  let logr = Transcend.log (Interval.meet r Interval.nonneg) in
                  if
                    (not (Interval.is_empty logr))
                    && not (Interval.mem 0.0 logb)
                  then tighten expo (Interval.div logr logb)
                end)
        | Iunop (op, a) -> (
            match op with
            | Exp -> tighten a (Transcend.log r)
            | Log -> tighten a (Transcend.exp r)
            | Tanh -> tighten a (Transcend.atanh r)
            | Atan -> tighten a (Transcend.tan_on_principal r)
            | Abs -> tighten_branches a (backward_abs r)
            | Lambert_w -> tighten a (Transcend.w_inverse r)
            | Sin ->
                (* Only invert within a range certainly strictly inside the
                   principal monotone branch (round-down pi/2). *)
                let fa = fwd.(a) in
                if
                  Interval.is_bounded fa
                  && Interval.inf fa >= -.Transcend.half_pi_lo
                  && Interval.sup fa <= Transcend.half_pi_lo
                then tighten a (Transcend.asin_hull r)
            | Cos ->
                let fa = fwd.(a) in
                if
                  Interval.is_bounded fa
                  && Interval.inf fa >= 0.0
                  && Interval.sup fa <= Transcend.pi_lo
                then tighten a (Transcend.acos_hull r))
        | Iselect { branches; default } ->
            (* Propagate into a branch only when it is certainly the one
               taken on the whole box. *)
            let rec walk idx =
              if idx >= Array.length branches then tighten default r
              else begin
                let c, rel, b = branches.(idx) in
                match Ieval.guard_status_of_interval rel fwd.(c) with
                | `True -> tighten b r
                | `False -> walk (idx + 1)
                | `Unknown -> ()
              end
            in
            walk 0
    in
    (* Registers were emitted children-first, so the reverse scan runs
       parents-first: each register's requirement is final before its
       children are tightened — the same order as the tree walker. *)
    (try
       if prog.has_select then
         for i = n - 1 downto 0 do
           if visited.(i) then begin
             propagate i;
             if !infeasible then raise_notrace Exit
           end
         done
       else
         for i = n - 1 downto 0 do
           propagate i;
           if !infeasible then raise_notrace Exit
         done
     with Exit -> ());
    if !infeasible then Infeasible
    else begin
      (* Read contracted variable domains. *)
      let contracted = ref box in
      let failed = ref false in
      Array.iter
        (fun (i, slot) ->
          if (not prog.has_select) || visited.(i) then begin
            let r = Interval.meet req.(i) (Box.get_idx box slot) in
            if Interval.is_empty r then failed := true
            else contracted := Box.set_idx !contracted slot r
          end)
        prog.var_regs;
      if !failed then Infeasible else Contracted !contracted
    end
  end

(* ------------------------------------------------------------------ *)
(* Forward-only evaluation                                             *)
(* ------------------------------------------------------------------ *)

let eval prog box =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length prog.instrs in
  ensure_capacity s n;
  forward_pass prog.instrs s.fwd box n;
  s.fwd.(prog.root)

let status_on prog box = Form.status_of_interval (eval prog box) prog.rel

(* ------------------------------------------------------------------ *)
(* Reverse-mode adjoint sweep                                          *)
(* ------------------------------------------------------------------ *)

let is_zero_point iv =
  (not (Interval.is_empty iv))
  && Interval.inf iv = 0.0
  && Interval.sup iv = 0.0

(* Interval enclosure of the local derivative of [op] at input [fa], where
   [fi] is the node's own forward value (reused where the derivative is a
   function of the result, e.g. exp' = exp). The rules mirror [Deriv.diff]
   evaluated by [Ieval.eval], so adjoints enclose the same slope sets as the
   symbolic-gradient tree walk. Abs over a sign-straddling input takes the
   Lipschitz hull [-1, 1] — exactly what Ieval produces for the piecewise
   that Deriv emits. *)
let d_unop op fa fi =
  match op with
  | Exp -> fi
  | Log -> Interval.inv fa
  | Sin -> Ieval.apply_unop Cos fa
  | Cos -> Interval.neg (Ieval.apply_unop Sin fa)
  | Tanh -> Interval.sub Interval.one (Interval.pow_int fi 2)
  | Atan -> Interval.inv (Interval.add Interval.one (Interval.pow_int fa 2))
  | Abs ->
      if Interval.certainly_ge fa 0.0 then Interval.one
      else if Interval.certainly_lt fa 0.0 then Interval.point (-1.0)
      else Interval.make (-1.0) 1.0
  | Lambert_w ->
      Interval.inv
        (Interval.mul (Interval.add Interval.one fi) (Ieval.apply_unop Exp fi))

(* One reverse walk over an already-filled forward register file computes
   interval enclosures of every partial d(root)/d(register) simultaneously.
   Registers are emitted children-first, so the downward scan visits parents
   before children and each adjoint is final when read. Exact-zero adjoints
   are skipped: their chain-rule contribution is exactly 0, and skipping
   avoids 0 * unbounded widening. Returns [false] when some piecewise guard
   is undecided over the box: the partials then enclose the slopes of every
   still-selectable branch (weighted by [0, 1]) — fine for the smear split
   heuristic, but not a derivative of the (possibly non-differentiable)
   select, so the mean-value contractor must not use them. *)
let adjoint_pass instrs (fwd : Interval.t array) (adj : Interval.t array) s
    root n =
  Array.fill adj 0 n Interval.zero;
  adj.(root) <- Interval.one;
  let decided = ref true in
  let accum c v = adj.(c) <- Interval.add adj.(c) v in
  for i = n - 1 downto 0 do
    let a = adj.(i) in
    if not (is_zero_point a) then
      match instrs.(i) with
      | Iconst _ | Ivar _ -> ()
      | Iadd regs -> Array.iter (fun c -> accum c a) regs
      | Imul regs ->
          let m = Array.length regs in
          let suffix = nary_buffer s (m + 1) in
          suffix.(m) <- Interval.one;
          for j = m - 1 downto 0 do
            suffix.(j) <- Interval.mul fwd.(regs.(j)) suffix.(j + 1)
          done;
          let prefix = ref Interval.one in
          for j = 0 to m - 1 do
            let others = Interval.mul !prefix suffix.(j + 1) in
            accum regs.(j) (Interval.mul a others);
            if j < m - 1 then prefix := Interval.mul !prefix fwd.(regs.(j))
          done
      | Ipow { base; expo; const_expo; const_rat } -> (
          match (const_rat, const_expo) with
          | Some rat, _
            when Rat.to_int rat = None
                 && (match Rat.sub rat Rat.one with
                    | _ -> true
                    | exception Rat.Overflow -> false) ->
              (* d/db b^r = r * b^(r-1) with r exact: both factors carry
                 the rational's rounding, or the mean-value form would
                 enclose the derivative of b^fl(r) instead of b^r *)
              let bq = Transcend.pow_rat fwd.(base) (Rat.sub rat Rat.one) in
              accum base
                (Interval.mul a (Interval.mul (Transcend.enclose_rat rat) bq))
          | _, Some p ->
              if p <> 0.0 then begin
                (* d/db b^p = p * b^(p-1) *)
                let q = p -. 1.0 in
                let bq =
                  if Float.is_integer q && Float.abs q <= 1073741823.0 then
                    Interval.pow_int fwd.(base) (int_of_float q)
                  else Interval.pow fwd.(base) q
                in
                accum base (Interval.mul a (Interval.mul (Interval.point p) bq))
              end
          | _, None ->
              (* d/db b^x = x * b^(x-1) = fi * x / b ; d/dx b^x = fi * ln b *)
              let fb = fwd.(base) and fx = fwd.(expo) and fi = fwd.(i) in
              accum base
                (Interval.mul a
                   (Interval.mul fi (Interval.mul fx (Interval.inv fb))));
              accum expo
                (Interval.mul a (Interval.mul fi (Ieval.apply_unop Log fb))))
      | Iunop (op, c) -> accum c (Interval.mul a (d_unop op fwd.(c) fwd.(i)))
      | Iselect { branches; default } ->
          (* A certainly-True guard makes its branch f on the whole box and
             stops the walk. Undecided guards leave several branches
             selectable: each still-possible body gets its adjoint weighted
             by [0, 1] (it is the active slope on part of the box at most)
             and the sweep is flagged undecided. Guard condition subtrees
             get no contribution — Deriv.diff never differentiates guards. *)
          let weight = Interval.make 0.0 1.0 in
          let rec walk certain idx =
            if idx >= Array.length branches then
              accum default (if certain then a else Interval.mul a weight)
            else begin
              let c, rel, b = branches.(idx) in
              match Ieval.guard_status_of_interval rel fwd.(c) with
              | `True -> accum b (if certain then a else Interval.mul a weight)
              | `False -> walk certain (idx + 1)
              | `Unknown ->
                  decided := false;
                  accum b (Interval.mul a weight);
                  walk false (idx + 1)
            end
          in
          walk true 0
  done;
  !decided

(* Conservative pre-scan over a filled forward register file: does any
   select in the tape have an undecided guard? Mirrors the guard walk of
   [adjoint_pass] (a certainly-True guard shadows everything after it) but
   covers every select, reachable from the root or not — exactly the
   precollected-guard semantics of the symbolic mean-value form (the
   tree-walk oracle in test/tree_oracle.ml). Lets the mean-value
   contractor bail before paying for the adjoint and midpoint passes on
   boxes where it would degrade to the identity anyway; on piecewise-heavy
   DFAs (SCAN) that is most boxes near the seams. *)
let selects_undecided instrs (fwd : Interval.t array) n =
  let undecided = ref false in
  (try
     for i = 0 to n - 1 do
       match instrs.(i) with
       | Iselect { branches; _ } ->
           let rec walk idx =
             if idx < Array.length branches then
               let c, rel, _ = branches.(idx) in
               match Ieval.guard_status_of_interval rel fwd.(c) with
               | `True -> ()
               | `False -> walk (idx + 1)
               | `Unknown ->
                   undecided := true;
                   raise Exit
           in
           walk 0
       | _ -> ()
     done
   with Exit -> ());
  !undecided

type gradient = {
  value : Interval.t;
  partials : Interval.t array;
  decided : bool;
}

let eval_gradient prog box =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length prog.instrs in
  ensure_capacity s n;
  forward_pass prog.instrs s.fwd box n;
  let decided = adjoint_pass prog.instrs s.fwd s.adj s prog.root n in
  let partials = Array.make (Box.dim box) Interval.zero in
  Array.iter
    (fun (reg, slot) -> partials.(slot) <- s.adj.(reg))
    prog.var_regs;
  { value = s.fwd.(prog.root); partials; decided }

(* Tape-native mean-value-form contraction:
     f(X) ⊆ f(m) + Σ_i G_i (X_i − m_i)
   with G the adjoint partials from one reverse sweep, instead of one
   symbolic-gradient tree walk per variable. The
   linear form is solved for each read variable with the relational
   {!Interval.div_rel}, so dimensions whose gradient encloses 0 still
   contract soundly: a strictly straddling gradient yields top (a no-op)
   and a half-open one genuine progress. Degrades to an identity
   contraction whenever the mean value form is not valid on the box: an
   undecided piecewise guard (f may not be differentiable there), a
   midpoint outside the expression's domain, or an empty partial. *)
let contract_mvf prog box =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length prog.instrs in
  ensure_capacity s n;
  forward_pass prog.instrs s.fwd box n;
  if prog.has_select && selects_undecided prog.instrs s.fwd n then
    Contracted box
  else if not (adjoint_pass prog.instrs s.fwd s.adj s prog.root n) then
    Contracted box
  else begin
    let k = Array.length prog.var_regs in
    let g = Array.make k Interval.empty in
    let dx = Array.make k Interval.empty in
    let mids = Array.make k 0.0 in
    let degenerate = ref false in
    Array.iteri
      (fun j (reg, slot) ->
        let gi = s.adj.(reg) in
        if Interval.is_empty gi then degenerate := true
        else begin
          g.(j) <- gi;
          let xi = Box.get_idx box slot in
          let mi = Interval.midpoint xi in
          mids.(j) <- mi;
          dx.(j) <-
            Interval.of_bounds
              (Interval.lo_down (Interval.inf xi -. mi))
              (Interval.hi_up (Interval.sup xi -. mi))
        end)
      prog.var_regs;
    if !degenerate then Contracted box
    else begin
      (* f at the midpoint: one more forward replay on the degenerate
         midpoint box (the adjoints were already copied out above). *)
      forward_pass prog.instrs s.fwd (Box.midpoint_box box) n;
      let fm = s.fwd.(prog.root) in
      if Interval.is_empty fm then Contracted box
      else begin
        let terms = Array.init k (fun j -> Interval.mul g.(j) dx.(j)) in
        let prefix = Array.make (k + 1) fm in
        for j = 0 to k - 1 do
          prefix.(j + 1) <- Interval.add prefix.(j) terms.(j)
        done;
        let suffix = Array.make (k + 1) Interval.zero in
        for j = k - 1 downto 0 do
          suffix.(j) <- Interval.add terms.(j) suffix.(j + 1)
        done;
        if Interval.is_empty (Interval.meet prefix.(k) prog.target) then
          Infeasible
        else begin
          (* Solve the linear form for each variable in turn:
             g_j (x_j - m_j) in target - f(m) - sum_{i<>j} terms_i. *)
          let box' = ref box in
          let infeasible = ref false in
          Array.iteri
            (fun j (_, slot) ->
              if not !infeasible then begin
                let others = Interval.add prefix.(j) suffix.(j + 1) in
                let rhs =
                  Interval.div_rel (Interval.sub prog.target others) g.(j)
                in
                let shifted = Interval.add rhs (Interval.point mids.(j)) in
                let xi = Box.get_idx !box' slot in
                let narrowed = Interval.meet xi shifted in
                if Interval.is_empty narrowed then infeasible := true
                else if not (Interval.equal narrowed xi) then
                  box' := Box.set_idx !box' slot narrowed
              end)
            prog.var_regs;
          if !infeasible then Infeasible else Contracted !box'
        end
      end
    end
  end
