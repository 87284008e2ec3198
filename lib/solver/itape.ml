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
      rat_deriv : (Rat.t * Interval.t) option;
          (* [Some (r - 1, enclosure of r)] when [const_rat] is a
             non-integer [r] and [r - 1] does not overflow: the operands of
             the exact derivative rule, computed once at compile time
             instead of on every adjoint sweep *)
      rat_inv : Rat.t option;
          (* [Some (1 / r)] when [const_rat] is a non-integer [r]: the
             exponent of the backward inverse, computed once at compile
             time instead of on every backward visit *)
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
  const : bool array;
      (* [const.(i)] when register [i] is an [Iconst]: its adjoint is never
         read, so the adjoint sweep skips contributions into it *)
  deps : int array;
      (* [deps.(i)]: the slot bits (see [slot_bit]) of the box dimensions
         register [i] reads, through any path, select guards included;
         [const_bit] when it reads none *)
  skip : skip array;
      (* [skip.(i)]: when register [i]'s backward rule cannot tighten a
         child from the register's own bounded forward value (see
         [skippable]) *)
  plan : plan array;  (* [plan.(i)]: product register [i]'s plan, see [plan] *)
  pre : Interval.Regs.t;
      (* the constant partial products and cofactors the plans name *)
  parts : int;
      (* registers of the partial-product buffer a sweep of this program
         writes: one per product's non-constant partial product *)
}

(* The chain of a product register over operands x_0 .. x_{m-1}, m >= 2
   (Expr unwraps a single factor), as the forward rule folds it:
   P_0 = [1, 1], P_(j+1) = P_j * x_j, and the register is P_m. [lead] is 1
   when x_0 is a constant, and P_1 is then computed once, at compile time,
   into [pre.(at)] with the kernel the sweep uses; for a c x product
   (m = 2) x_1's cofactor P_1 * [1, 1] follows, in [pre.(at + 1)]. Expr
   folds a product's numeric factors into one leading constant, so no
   other operand of a compiled product is constant. A sweep that writes
   the register also writes its partial products P_(lead+1) .. P_(m-1)
   into the register file's partial-product buffer, P_j at [part_slot p j]
   (see [tag]). [cofactor] is the one reader of this layout. *)
and plan = { lead : int; at : int; buf : int }

(* When a backward rule may be skipped: never, always, or [Above (c, x)]
   when child register [c]'s forward lower bound is above [x], inside the
   domain the forward rule clips the child to. *)
and skip = Never | Always | Above of int * float

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
let backward_pow_rat_inv r inv =
  [ Transcend.pow_rat (Interval.meet r Interval.nonneg) inv ]

let backward_pow_rat r rat =
  match Rat.to_int rat with
  | Some n -> backward_pow_int r n
  | None -> backward_pow_rat_inv r (Rat.inv rat)

let backward_abs r =
  let r' = Interval.meet r Interval.nonneg in
  if Interval.is_empty r' then [ Interval.empty ]
  else [ r'; Interval.neg r' ]

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rat_deriv r =
  match Rat.to_int r with
  | Some _ -> None
  | None -> (
      match Rat.sub r Rat.one with
      | rm1 -> Some (rm1, Transcend.enclose_rat r)
      | exception Rat.Overflow -> None)

let rat_inv r =
  match Rat.to_int r with Some _ -> None | None -> Some (Rat.inv r)

(* A register's slot bits: one bit per box dimension it reads, slot mod 62,
   so two slots may share a bit (the forward sweep then recomputes a
   register it could have kept, never the reverse). Bit 62 marks the
   registers that read no slot, constants and their unfolded combinations,
   which only a full sweep writes. *)
let slot_bit s = 1 lsl (s mod 62)
let const_bit = 1 lsl 62

(* The changed-slot mask of a full sweep: every bit, constants included. *)
let all_regs = -1

let deps_of instrs =
  let deps = Array.make (Array.length instrs) 0 in
  Array.iteri
    (fun i ins ->
      let d r = deps.(r) land lnot const_bit in
      let reads =
        match ins with
        | Iconst _ -> 0
        | Ivar s -> slot_bit s
        | Iadd regs | Imul regs -> Array.fold_left (fun m r -> m lor d r) 0 regs
        | Ipow { base; expo; _ } -> d base lor d expo
        | Iunop (_, a) -> d a
        | Iselect { branches; default } ->
            Array.fold_left
              (fun m (c, _, b) -> m lor d c lor d b)
              (d default) branches
      in
      deps.(i) <- (if reads = 0 then const_bit else reads))
    instrs;
  deps

(* Backward rules that leave every child's requirement bit-identical when
   the register's requirement is still its own bounded forward value: the
   requirement then contains the image of the children's forward values,
   the rule's outward-rounded preimage contains each child's forward value
   and so its requirement, and the meet keeps that. The preimage only
   covers the part of a child inside the rule's domain, so a rule whose
   forward pass clips its argument (a non-integer rational power to
   x >= 0, W to x >= -1/e) is skipped only when the child's forward value
   lies strictly inside that domain, which also keeps a zero bound of
   either sign out. Log needs no such test: a clipped argument reaches 0
   and sends the register's lower bound to -inf. Excluded are the rules
   that break this today: an integer power whose reciprocal exponent is
   inexact ([backward_pow_int] roots through fl(1/n) and can cut real
   bounds); the powers with a float or variable exponent are left out
   unargued. The unbounded requirements, where a division of infinities
   empties a product's preimage, are excluded at the call by
   [Regs.same_finite]. *)
let skippable = function
  | Iconst _ | Ivar _ | Iadd _ | Imul _ | Iselect _ -> Always
  | Iunop (Lambert_w, a) ->
      (* any bound above -1/e = -0.36787944... *)
      Above (a, -0.3678)
  | Iunop (_, _) -> Always
  | Ipow { base; const_rat = Some r; _ } -> (
      match Rat.to_int r with
      | None -> Above (base, 0.0)
      | Some n ->
          let m = Stdlib.abs n in
          if m > 0 && m land (m - 1) = 0 then Always else Never)
  | Ipow _ -> Never

let no_plan = { lead = 0; at = 0; buf = 0 }

(* The register of the partial-product buffer holding P_j, lead < j < m. *)
let part_slot p j = p.buf + j - p.lead - 1

(* The plan of every product register, the [pre] file they name and the
   length of the partial-product buffer (see [plan]). *)
let plans instrs const =
  let npre = ref 0 and nparts = ref 0 in
  let plan =
    Array.map
      (function
        | Imul regs ->
            let m = Array.length regs in
            assert (m >= 2);
            let lead = if const.(regs.(0)) then 1 else 0 in
            let p = { lead; at = !npre; buf = !nparts } in
            if lead = 1 then npre := !npre + if m = 2 then 2 else 1;
            nparts := !nparts + m - lead - 1;
            p
        | _ -> no_plan)
      instrs
  in
  let pre = Interval.Regs.create !npre in
  let c0 = Interval.Regs.create 2 in
  Interval.Regs.set c0 0 Interval.one;
  Array.iteri
    (fun i ins ->
      match (ins, plan.(i)) with
      | Imul regs, { lead = 1; at; _ } ->
          (match instrs.(regs.(0)) with
          | Iconst c -> Interval.Regs.set c0 1 c
          | _ -> assert false);
          Interval.Regs.mul pre at c0 0 c0 1;
          if Array.length regs = 2 then Interval.Regs.mul_one pre (at + 1) pre at
      | _ -> ())
    instrs;
  (plan, pre, !nparts)

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
            let const_rat = as_rat x in
            emit
              (Ipow
                 {
                   base = rb;
                   expo = rx;
                   const_expo = as_const x;
                   const_rat;
                   rat_deriv = Option.bind const_rat rat_deriv;
                   rat_inv = Option.bind const_rat rat_inv;
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
  let const = Array.map (function Iconst _ -> true | _ -> false) instrs in
  let plan, pre, parts = plans instrs const in
  {
    instrs;
    root;
    rel = atom.Form.rel;
    target = target_of_relation atom.Form.rel;
    slots = Array.of_list (List.sort_uniq Stdlib.compare !slots);
    var_regs = Array.of_list (List.rev !var_regs);
    has_select = !has_select;
    const;
    deps = deps_of instrs;
    skip = Array.map skippable instrs;
    plan;
    pre;
    parts;
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

(* Structure-of-arrays register files, one set per worker domain, grown on
   demand and reused across every call the domain makes: the forward,
   requirement and adjoint registers, the visited mask, the suffix-fold
   buffer of n-ary backward contributions, a few named temporaries and the
   per-variable terms of the mean-value form. Every interval operation of
   a sweep writes into one of these through an {!Interval.Regs} kernel,
   so sweeping a tape allocates nothing per instruction; only the boxed
   transcendental and power rules allocate, at their call boundary. Keyed
   per domain (not stored in the shared program, which several workers
   revise concurrently).

   The forward file and the mean-value point file each carry a [tag]: the
   program whose sweep they hold (by physical identity) and the bit
   patterns of the slot bounds it was swept on. A register is a pure
   function of the program and the bounds of the slots in its [deps], so
   {!sweep} skips the sweep when no slot bound changed and otherwise
   recomputes only the registers that read a changed slot — the HC4
   revise, the mean-value stage and the status test of one expansion
   usually see the same box, and a split or a contraction changes only
   some of its slots. Bits, not [Interval.equal]: -0 and +0 bounds are
   equal yet can sweep to different registers.

   The tag also owns the file's partial-product buffer. A product's
   partial products are written in the same loop iteration as its
   register, from the same operands, so they are a pure function of the
   same slots: they hold [prog]'s partial products over the swept bounds
   exactly when the registers do. The buffer only grows on a full sweep
   (a program the tag does not hold), which rewrites all of it. *)
type tag = {
  mutable prog : t;  (* the program the file holds a sweep of, or [nothing] *)
  mutable bounds : Interval.Regs.t;
      (* the bounds of [prog]'s slots it was swept on, in [slots] order *)
  mutable part : Interval.Regs.t;
      (* [prog]'s partial products, at the registers its plans name *)
}

type scratch = {
  mutable fwd : Interval.Regs.t;
  fwd_tag : tag;
  mutable pt : Interval.Regs.t;  (* the mean-value midpoint replay *)
  pt_tag : tag;
  mutable req : Interval.Regs.t;
  mutable adj : Interval.Regs.t;
      (* adjoint registers of the reverse-mode gradient sweep *)
  mutable visited : bool array;
  mutable nary : Interval.Regs.t;
      (* suffix-fold buffer for n-ary backward contributions *)
  tmp : Interval.Regs.t;  (* the t_* temporaries below *)
  mutable dx : Interval.Regs.t;  (* mean-value form, one per variable *)
  mutable terms : Interval.Regs.t;
  mutable prefix : Interval.Regs.t;
  mutable suffix : Interval.Regs.t;
  mutable mids : Float.Array.t;
}

(* Temporaries: a running n-ary prefix, the combination of the other
   operands, one operation's result, the [0, 1] branch weight, the
   relation target and the root requirement. *)
let t_acc = 0
let t_rest = 1
let t_res = 2
let t_weight = 3
let t_target = 4
let t_root = 5

(* Held by no register file: [compile] never emits an empty program. *)
let nothing =
  {
    instrs = [||];
    root = 0;
    rel = Form.Eq0;
    target = Interval.zero;
    slots = [||];
    var_regs = [||];
    has_select = false;
    const = [||];
    deps = [||];
    skip = [||];
    plan = [||];
    pre = Interval.Regs.create 0;
    parts = 0;
  }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let tmp = Interval.Regs.create 6 in
      Interval.Regs.set tmp t_weight (Interval.make 0.0 1.0);
      let none = Interval.Regs.create 0 in
      {
        fwd = none;
        fwd_tag = { prog = nothing; bounds = none; part = none };
        pt = none;
        pt_tag = { prog = nothing; bounds = none; part = none };
        req = none;
        adj = none;
        visited = [||];
        nary = none;
        tmp;
        dx = none;
        terms = none;
        prefix = none;
        suffix = none;
        mids = Float.Array.create 0;
      })

let grown r m = Interval.Regs.create (Stdlib.max m (2 * Interval.Regs.length r))

let ensure_capacity s n =
  if Interval.Regs.length s.fwd < n then begin
    s.fwd_tag.prog <- nothing;
    s.pt_tag.prog <- nothing;
    s.fwd <- grown s.fwd n;
    s.pt <- grown s.pt n;
    s.req <- grown s.req n;
    s.adj <- grown s.adj n;
    s.visited <- Array.make (Interval.Regs.length s.fwd) false
  end

let nary_buffer s m =
  if Interval.Regs.length s.nary < m then s.nary <- grown s.nary m;
  s.nary

let ensure_vars s k =
  if Interval.Regs.length s.dx < k + 1 then begin
    s.dx <- grown s.dx (k + 1);
    s.terms <- grown s.terms (k + 1);
    s.prefix <- grown s.prefix (k + 1);
    s.suffix <- grown s.suffix (k + 1);
    s.mids <- Float.Array.make (Interval.Regs.length s.dx) 0.0
  end

let forget () =
  let s = Domain.DLS.get scratch_key in
  s.fwd_tag.prog <- nothing;
  s.pt_tag.prog <- nothing

let guard regs rel c = Ieval.guard_status_of_reg rel regs c

(* ------------------------------------------------------------------ *)
(* Revise                                                              *)
(* ------------------------------------------------------------------ *)

module R = Interval.Regs

(* The backward pass of an n-ary node needs, for every operand, the
   combination of all *other* operands. As in the tree walker this is the
   O(n) prefix/suffix trick, associating the combines exactly as the
   tree's [others] does so the values stay float-identical: the suffixes
   go into one buffer reused from scratch, and the prefixes are a running
   register for a sum and, for a product, the plan's constant prefixes and
   the forward sweep's partial products. *)

(* Mark the registers the tree walker would actually visit: all reachable
   children, except that a certainly-True piecewise guard cuts off the
   remaining branches and the default (certainly-False branch bodies *are*
   walked — the tree records them "for uniformity", and the backward pass
   runs over them too, so the replay must include them). *)
let rec mark_visited instrs fwd visited i =
  if not visited.(i) then begin
    visited.(i) <- true;
    match instrs.(i) with
    | Iconst _ | Ivar _ -> ()
    | Iadd regs | Imul regs ->
        for j = 0 to Array.length regs - 1 do
          mark_visited instrs fwd visited regs.(j)
        done
    | Ipow { base; expo; _ } ->
        mark_visited instrs fwd visited expo;
        mark_visited instrs fwd visited base
    | Iunop (_, a) -> mark_visited instrs fwd visited a
    | Iselect { branches; default } ->
        mark_branches instrs fwd visited branches default 0
  end

and mark_branches instrs fwd visited branches default idx =
  if idx >= Array.length branches then mark_visited instrs fwd visited default
  else begin
    let c, rel, b = branches.(idx) in
    mark_visited instrs fwd visited c;
    mark_visited instrs fwd visited b;
    if guard fwd rel c <> `True then
      mark_branches instrs fwd visited branches default (idx + 1)
  end

(* Hull, into [fwd.(i)], of the branches a select may take. *)
let rec select_forward fwd i branches default idx =
  if idx >= Array.length branches then R.join fwd i fwd i fwd default
  else begin
    let c, rel, b = branches.(idx) in
    match guard fwd rel c with
    | `True -> R.join fwd i fwd i fwd b
    | `False -> select_forward fwd i branches default (idx + 1)
    | `Unknown ->
        R.join fwd i fwd i fwd b;
        select_forward fwd i branches default (idx + 1)
  end

(* Forward evaluation, bottom-up, of the registers whose [deps] meet
   [changed]: every register for [all_regs], else those that read a changed
   slot. Writes into [fwd], and a product's partial products into [part],
   and returns nothing; the caller reads the registers it needs. A product
   starts from its plan's constant prefix P_lead; its P_(lead+1) ..
   P_(m-1) go to [part], P_m to the register. *)
let forward_pass prog fwd part box changed =
  let instrs = prog.instrs and deps = prog.deps in
  let plan = prog.plan and pre = prog.pre in
  for i = 0 to Array.length instrs - 1 do
    if deps.(i) land changed <> 0 then
      match instrs.(i) with
      | Iconst c -> R.set fwd i c
      | Ivar slot -> R.set fwd i (Box.get_idx box slot)
      | Iadd regs ->
          R.set fwd i Interval.zero;
          for j = 0 to Array.length regs - 1 do
            R.add fwd i fwd i fwd regs.(j)
          done
      | Imul regs ->
          let p = plan.(i) and m = Array.length regs in
          if p.lead = 1 && m = 2 then R.mul fwd i pre p.at fwd regs.(1)
          else begin
            let first = part_slot p (p.lead + 1) in
            if p.lead = 0 then R.mul_one part first fwd regs.(0)
            else R.mul part first pre p.at fwd regs.(1);
            for j = p.lead + 2 to m - 1 do
              R.mul part (part_slot p j) part (part_slot p (j - 1)) fwd regs.(j - 1)
            done;
            R.mul fwd i part (part_slot p (m - 1)) fwd regs.(m - 1)
          end
      | Ipow { base; const_rat = Some r; _ } when Rat.den r = 1 ->
          (* an integer exponent: Ieval.pow_node's rule, unboxed *)
          R.pow_int fwd i fwd base (Rat.num r)
      | Ipow { base; expo; const_rat; _ } ->
          R.set fwd i
            (Ieval.pow_node const_rat (R.get fwd base) (R.get fwd expo))
      | Iunop (op, a) -> R.set fwd i (Ieval.apply_unop op (R.get fwd a))
      | Iselect { branches; default } ->
          R.set fwd i Interval.empty;
          select_forward fwd i branches default 0
  done

let m_forward_sweeps =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "itape.forward_sweeps"

let m_forward_partial =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "itape.forward_partial"

let m_forward_reused =
  Obs.Metrics.counter ~clas:Obs.Metrics.Wall "itape.forward_reused"

(* The slot bits of [prog]'s slots whose bounds in [box] differ, bit for
   bit, from those [tag] was swept on ([tag.prog == prog]). *)
let changed_slots tag prog box =
  let slots = prog.slots and changed = ref 0 in
  for k = 0 to Array.length slots - 1 do
    if not (R.same tag.bounds k (Box.get_idx box slots.(k))) then
      changed := !changed lor slot_bit slots.(k)
  done;
  !changed

(* Make [regs] hold [prog]'s forward sweep over [box]: nothing to do when
   [tag] says it already does, only the registers reading a changed slot
   when it holds a sweep of [prog] over other bounds, every register
   otherwise. The tag is cleared before the sweep and set after it, so a
   sweep that raises leaves no stale hit. *)
let sweep regs tag prog box =
  let changed =
    if tag.prog == prog then changed_slots tag prog box else all_regs
  in
  if changed = 0 then `Reused
  else begin
    tag.prog <- nothing;
    if R.length tag.part < prog.parts then tag.part <- grown tag.part prog.parts;
    forward_pass prog regs tag.part box changed;
    let slots = prog.slots in
    let k = Array.length slots in
    if R.length tag.bounds < k then tag.bounds <- grown tag.bounds k;
    for j = 0 to k - 1 do
      R.set tag.bounds j (Box.get_idx box slots.(j))
    done;
    tag.prog <- prog;
    if changed = all_regs then `Full else `Partial
  end

(* Fill [s.fwd] with [prog]'s forward sweep over [box]. *)
let forward s prog box =
  ensure_capacity s (Array.length prog.instrs);
  match sweep s.fwd s.fwd_tag prog box with
  | `Reused -> Obs.Metrics.incr m_forward_reused 1
  | `Full -> Obs.Metrics.incr m_forward_sweeps 1
  | `Partial ->
      Obs.Metrics.incr m_forward_sweeps 1;
      Obs.Metrics.incr m_forward_partial 1

(* req.(c) <- req.(c) ∩ iv, for contributions computed by a boxed rule *)
let tighten req c iv = R.set req c (Interval.meet (R.get req c) iv)

(* Union-of-branches contribution: meet each branch with the current
   requirement first, then hull, preserving gaps the union straddles. *)
let tighten_branches req c branches =
  let cur = R.get req c in
  R.set req c
    (List.fold_left
       (fun acc b -> Interval.join acc (Interval.meet cur b))
       Interval.empty branches)

(* Propagate into a select's branch only when it is certainly the one
   taken on the whole box. *)
let rec select_backward fwd req i branches default idx =
  if idx >= Array.length branches then R.meet req default req default req i
  else begin
    let c, rel, b = branches.(idx) in
    match guard fwd rel c with
    | `True -> R.meet req b req b req i
    | `False -> select_backward fwd req i branches default (idx + 1)
    | `Unknown -> ()
  end

(* [nary_buffer] filled with the suffix products S_j = x_j * S_(j+1) of a
   product's operands for j = m - 1 down to [first], from S_m = [1, 1]
   (which is not stored). *)
let suffix_products s fwd regs first =
  let m = Array.length regs in
  let suffix = nary_buffer s m in
  if first < m then begin
    R.mul_one suffix (m - 1) fwd regs.(m - 1);
    for j = m - 2 downto first do
      R.mul suffix j fwd regs.(j) suffix (j + 1)
    done
  end;
  suffix

(* Into [tmp.(t_rest)], operand j's cofactor P_j * S_(j+1) in a product
   with plan [p] over [m] operands: P_0 = [1, 1], P_lead from [pre], the
   later prefixes from the forward sweep's partial products [part], and
   the suffixes from [suffix] (S_m = [1, 1] is not stored). Each product
   associates as the tree's [others] does, so the value is the float the
   unplanned prefix/suffix fold computes. *)
let cofactor tmp p pre part suffix m j =
  if j = 0 then R.mul_one tmp t_rest suffix 1
  else if j = p.lead then
    if m = 2 then R.copy tmp t_rest pre (p.at + 1)
    else R.mul tmp t_rest pre p.at suffix 2
  else if j = m - 1 then R.mul_one tmp t_rest part (part_slot p j)
  else R.mul tmp t_rest part (part_slot p j) suffix (j + 1)

(* Tighten the children of register [i] from its requirement [req.(i)]
   (non-empty). *)
let propagate s prog i =
  let fwd = s.fwd and req = s.req and tmp = s.tmp in
  match prog.instrs.(i) with
  | Iconst _ | Ivar _ -> ()
  | Iadd regs ->
      let m = Array.length regs in
      let suffix = nary_buffer s (m + 1) in
      R.set suffix m Interval.zero;
      for j = m - 1 downto 1 do
        R.add suffix j fwd regs.(j) suffix (j + 1)
      done;
      R.set tmp t_acc Interval.zero;
      for j = 0 to m - 1 do
        let c = regs.(j) in
        R.add tmp t_rest tmp t_acc suffix (j + 1);
        R.sub tmp t_res req i tmp t_rest;
        R.meet req c req c tmp t_res;
        if j < m - 1 then R.add tmp t_acc tmp t_acc fwd c
      done
  | Imul regs ->
      (* Every operand keeps its quotient and meet, constants too: a
         constant's requirement can still empty and prove the box
         Infeasible. *)
      let m = Array.length regs in
      let suffix = suffix_products s fwd regs 1 in
      for j = 0 to m - 1 do
        (* x * rest = r => x in the relational quotient r / rest: top when
           0 is in both (x * 0 = 0 constrains nothing), empty when
           rest = {0} but 0 is not in r. *)
        let c = regs.(j) in
        cofactor tmp prog.plan.(i) prog.pre s.fwd_tag.part suffix m j;
        if not (R.is_empty tmp t_rest) then begin
          R.div_rel tmp t_res req i tmp t_rest;
          R.meet req c req c tmp t_res
        end
      done
  | Ipow { base; expo; const_expo; const_rat; rat_inv; _ } -> (
      let r = R.get req i in
      match (const_rat, const_expo) with
      | Some rat, _ ->
          tighten_branches req base
            (match rat_inv with
            | Some inv -> backward_pow_rat_inv r inv
            | None -> backward_pow_rat r rat)
      | None, Some p -> tighten_branches req base (backward_pow_const r p)
      | None, None ->
          (* Variable exponent: contract the exponent when the base is
             certainly > 1 or in (0, 1): y = log r / log b. *)
          let fb = R.get fwd base in
          if Interval.certainly_gt fb 0.0 then begin
            let logb = Transcend.log fb in
            let logr = Transcend.log (Interval.meet r Interval.nonneg) in
            if (not (Interval.is_empty logr)) && not (Interval.mem 0.0 logb)
            then tighten req expo (Interval.div logr logb)
          end)
  | Iunop (op, a) -> (
      let r = R.get req i in
      match op with
      | Exp -> tighten req a (Transcend.log r)
      | Log -> tighten req a (Transcend.exp r)
      | Tanh -> tighten req a (Transcend.atanh r)
      | Atan -> tighten req a (Transcend.tan_on_principal r)
      | Abs -> tighten_branches req a (backward_abs r)
      | Lambert_w -> tighten req a (Transcend.w_inverse r)
      | Sin ->
          (* Only invert within a range certainly strictly inside the
             principal monotone branch (round-down pi/2). *)
          let fa = R.get fwd a in
          if
            Interval.is_bounded fa
            && Interval.inf fa >= -.Transcend.half_pi_lo
            && Interval.sup fa <= Transcend.half_pi_lo
          then tighten req a (Transcend.asin_hull r)
      | Cos ->
          let fa = R.get fwd a in
          if
            Interval.is_bounded fa
            && Interval.inf fa >= 0.0
            && Interval.sup fa <= Transcend.pi_lo
          then tighten req a (Transcend.acos_hull r))
  | Iselect { branches; default } ->
      select_backward fwd req i branches default 0

let m_backward_skipped = Obs.Metrics.counter "itape.backward_skipped"

(* Does register [i]'s requirement (non-empty) leave its [skip] rule
   nothing to tighten? *)
let skips skip fwd req i =
  (match skip with
  | Never -> false
  | Always -> true
  | Above (c, x) -> R.lo_above fwd c x)
  && R.same_finite req i fwd i

let revise prog box =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length prog.instrs in
  forward s prog box;
  let fwd = s.fwd and req = s.req and tmp = s.tmp and visited = s.visited in
  R.set tmp t_target prog.target;
  R.meet tmp t_root fwd prog.root tmp t_target;
  if R.is_empty tmp t_root then Infeasible
  else begin
    (* ---- backward pass ------------------------------------------------ *)
    if prog.has_select then begin
      Array.fill visited 0 n false;
      mark_visited prog.instrs fwd visited prog.root
    end;
    R.blit fwd req n;
    R.copy req prog.root tmp t_root;
    (* Registers were emitted children-first, so the reverse scan runs
       parents-first: each register's requirement is final before its
       children are tightened — the same order as the tree walker. *)
    (* A register whose requirement is still its own bounded forward value
       would hand each child back its requirement unchanged under a
       [skip] rule, so that rule is not run. *)
    let infeasible = ref false and skipped = ref 0 in
    let i = ref (n - 1) in
    while (not !infeasible) && !i >= 0 do
      if (not prog.has_select) || visited.(!i) then begin
        if R.is_empty req !i then infeasible := true
        else if skips prog.skip.(!i) fwd req !i then incr skipped
        else propagate s prog !i
      end;
      decr i
    done;
    Obs.Metrics.incr m_backward_skipped !skipped;
    if !infeasible then Infeasible
    else begin
      (* Read contracted variable domains. *)
      let ivs = Box.intervals box in
      let failed = ref false in
      Array.iter
        (fun (i, slot) ->
          if (not prog.has_select) || visited.(i) then begin
            R.set tmp t_res (Box.get_idx box slot);
            R.meet tmp t_res req i tmp t_res;
            if R.is_empty tmp t_res then failed := true
            else ivs.(slot) <- R.get tmp t_res
          end)
        prog.var_regs;
      if !failed then Infeasible else Contracted (Box.with_intervals box ivs)
    end
  end

(* ------------------------------------------------------------------ *)
(* Forward-only evaluation                                             *)
(* ------------------------------------------------------------------ *)

let eval prog box =
  let s = Domain.DLS.get scratch_key in
  forward s prog box;
  R.get s.fwd prog.root

let status_on prog box = Form.status_of_interval (eval prog box) prog.rel

(* ------------------------------------------------------------------ *)
(* Reverse-mode adjoint sweep                                          *)
(* ------------------------------------------------------------------ *)

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

(* adj.(c) <- adj.(c) + adj.(i), the adjoint weighted by [0, 1] when
   [weighted]; nothing for a constant [c], whose adjoint nobody reads *)
let accum_scaled s const c i ~weighted =
  if const.(c) then ()
  else if weighted then begin
    R.mul s.tmp t_res s.adj i s.tmp t_weight;
    R.add s.adj c s.adj c s.tmp t_res
  end
  else R.add s.adj c s.adj c s.adj i

(* adj.(c) <- adj.(c) + v, for contributions computed by a boxed rule *)
let accum_boxed s c v =
  R.set s.tmp t_res v;
  R.add s.adj c s.adj c s.tmp t_res

(* A certainly-True guard makes its branch f on the whole box and stops
   the walk. Undecided guards leave several branches selectable: each
   still-possible body gets its adjoint weighted by [0, 1] (it is the
   active slope on part of the box at most). Guard condition subtrees get
   no contribution — Deriv.diff never differentiates guards. Returns
   whether every guard was decided. *)
let rec select_adjoint s const i branches default certain idx =
  if idx >= Array.length branches then begin
    accum_scaled s const default i ~weighted:(not certain);
    certain
  end
  else begin
    let c, rel, b = branches.(idx) in
    match guard s.fwd rel c with
    | `True ->
        accum_scaled s const b i ~weighted:(not certain);
        certain
    | `False -> select_adjoint s const i branches default certain (idx + 1)
    | `Unknown ->
        accum_scaled s const b i ~weighted:true;
        ignore
          (select_adjoint s const i branches default false (idx + 1) : bool);
        false
  end

(* One reverse walk over an already-filled forward register file computes
   interval enclosures of every partial d(root)/d(register) simultaneously.
   Registers are emitted children-first, so the downward scan visits parents
   before children and each adjoint is final when read. Exact-zero adjoints
   are skipped: their chain-rule contribution is exactly 0, and skipping
   avoids 0 * unbounded widening. Returns [false] when some piecewise guard
   is undecided over the box: the partials then enclose the slopes of every
   still-selectable branch (weighted by [0, 1]) — fine for the smear split
   heuristic, but not a derivative of the (possibly non-differentiable)
   select, so the mean-value contractor must not use them. Only variable
   registers' adjoints are read, so contributions into constants are
   skipped. *)
let adjoint_pass s prog =
  let instrs = prog.instrs and const = prog.const in
  let plan = prog.plan and pre = prog.pre and part = s.fwd_tag.part in
  let n = Array.length instrs in
  let fwd = s.fwd and adj = s.adj and tmp = s.tmp in
  R.fill adj n Interval.zero;
  R.set adj prog.root Interval.one;
  let decided = ref true in
  for i = n - 1 downto 0 do
    if not (R.is_zero adj i) then
      match instrs.(i) with
      | Iconst _ | Ivar _ -> ()
      | Iadd regs ->
          for j = 0 to Array.length regs - 1 do
            let c = regs.(j) in
            if not const.(c) then R.add adj c adj c adj i
          done
      | Imul regs ->
          (* As in [propagate], for the non-constant operands only: a
             constant one leads, so only the suffixes from S_(lead+1) on
             are read. *)
          let m = Array.length regs and p = plan.(i) in
          let suffix = suffix_products s fwd regs (p.lead + 1) in
          for j = p.lead to m - 1 do
            let c = regs.(j) in
            if not const.(c) then begin
              cofactor tmp p pre part suffix m j;
              R.mul tmp t_res adj i tmp t_rest;
              R.add adj c adj c tmp t_res
            end
          done
      | Ipow { base; expo; const_expo; rat_deriv; _ } -> (
          match (rat_deriv, const_expo) with
          | Some (rm1, r), _ ->
              (* d/db b^r = r * b^(r-1) with r exact: both factors carry
                 the rational's rounding, or the mean-value form would
                 enclose the derivative of b^fl(r) instead of b^r *)
              if not const.(base) then begin
                let bq = Transcend.pow_rat (R.get fwd base) rm1 in
                accum_boxed s base
                  (Interval.mul (R.get adj i) (Interval.mul r bq))
              end
          | None, Some p ->
              if p <> 0.0 && not const.(base) then begin
                (* d/db b^p = p * b^(p-1) *)
                let q = p -. 1.0 in
                if Float.is_integer q && Float.abs q <= 1073741823.0 then
                  R.pow_int tmp t_res fwd base (int_of_float q)
                else R.set tmp t_res (Interval.pow (R.get fwd base) q);
                R.set tmp t_acc (Interval.point p);
                R.mul tmp t_res tmp t_acc tmp t_res;
                R.mul tmp t_res adj i tmp t_res;
                R.add adj base adj base tmp t_res
              end
          | None, None ->
              (* d/db b^x = x * b^(x-1) = fi * x / b ; d/dx b^x = fi * ln b *)
              let a = R.get adj i
              and fb = R.get fwd base
              and fx = R.get fwd expo
              and fi = R.get fwd i in
              if not const.(base) then
                accum_boxed s base
                  (Interval.mul a
                     (Interval.mul fi (Interval.mul fx (Interval.inv fb))));
              if not const.(expo) then
                accum_boxed s expo
                  (Interval.mul a (Interval.mul fi (Ieval.apply_unop Log fb))))
      | Iunop (op, c) ->
          if not const.(c) then
            accum_boxed s c
              (Interval.mul (R.get adj i)
                 (d_unop op (R.get fwd c) (R.get fwd i)))
      | Iselect { branches; default } ->
          if not (select_adjoint s const i branches default true 0) then
            decided := false
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
let rec guards_undecided fwd branches idx =
  idx < Array.length branches
  &&
  let c, rel, _ = branches.(idx) in
  match guard fwd rel c with
  | `True -> false
  | `False -> guards_undecided fwd branches (idx + 1)
  | `Unknown -> true

let selects_undecided instrs fwd n =
  let undecided = ref false and i = ref 0 in
  while (not !undecided) && !i < n do
    (match instrs.(!i) with
    | Iselect { branches; _ } -> undecided := guards_undecided fwd branches 0
    | _ -> ());
    incr i
  done;
  !undecided

type gradient = {
  value : Interval.t;
  partials : Interval.t array;
  decided : bool;
}

let eval_gradient prog box =
  let s = Domain.DLS.get scratch_key in
  forward s prog box;
  let decided = adjoint_pass s prog in
  let partials = Array.make (Box.dim box) Interval.zero in
  Array.iter
    (fun (reg, slot) -> partials.(slot) <- R.get s.adj reg)
    prog.var_regs;
  { value = R.get s.fwd prog.root; partials; decided }

let m_mvf_replays_skipped = Obs.Metrics.counter "itape.mvf_replays_skipped"

(* prefix.(j + 1) <- prefix.(j) + terms.(j) for j < k: the mean-value sum
   from the start value in prefix.(0), one association for every start. *)
let mean_value_sum s k =
  let prefix = s.prefix and terms = s.terms in
  for j = 0 to k - 1 do
    R.add prefix (j + 1) prefix j terms j
  done

(* Does the mean-value sum meet the target when it starts from the point
   [endpoint] ([R.lo_point] or [R.hi_point]) takes from the box sweep's
   root? *)
let endpoint_sum_meets s prog k endpoint =
  endpoint s.prefix 0 s.fwd prog.root;
  mean_value_sum s k;
  R.meet s.tmp t_res s.prefix k s.tmp t_target;
  not (R.is_empty s.tmp t_res)

(* With every partial strictly straddling 0, the midpoint replay cannot
   change the stage's answer when the root F of the box sweep is bounded
   and the sum still meets the target from F's inner endpoint (F.lo
   against a lower target bound, F.hi against an upper one; both for =).
   A straddling partial makes every per-dimension quotient top, so the
   replay could only prove Infeasible, which needs the sum from f(m) to
   miss the target. Both sweeps enclose f at the midpoint, so
   f(m).hi >= F.lo and f(m).lo <= F.hi, and the outward-rounded sum is
   monotone in its start: the sum from f(m) reaches at least as far. F
   must be bounded for the answers to stay bit-identical: a root that
   overflows to [inf, inf] meets the target from its endpoint, while the
   replay's per-dimension solve computes inf - inf and answers
   Infeasible. *)
let replay_cannot_decide s prog k =
  R.is_bounded s.fwd prog.root
  &&
  match prog.rel with
  | Form.Ge0 | Form.Gt0 -> endpoint_sum_meets s prog k R.lo_point
  | Form.Le0 | Form.Lt0 -> endpoint_sum_meets s prog k R.hi_point
  | Form.Eq0 ->
      endpoint_sum_meets s prog k R.lo_point
      && endpoint_sum_meets s prog k R.hi_point

(* The mean-value stage from f(m), with the terms already in [s.terms]
   and the target in [t_target]: replay f at the midpoint into the point
   file, test the sum against the target, then solve the linear form for
   each variable in turn. *)
let solve_from_midpoint s prog box k =
  ignore (sweep s.pt s.pt_tag prog (Box.midpoint_box box));
  if R.is_empty s.pt prog.root then Contracted box
  else begin
    let adj = s.adj and terms = s.terms and prefix = s.prefix in
    let suffix = s.suffix and tmp = s.tmp in
    R.copy prefix 0 s.pt prog.root;
    mean_value_sum s k;
    R.set suffix k Interval.zero;
    for j = k - 1 downto 0 do
      R.add suffix j terms j suffix (j + 1)
    done;
    R.meet tmp t_res prefix k tmp t_target;
    if R.is_empty tmp t_res then Infeasible
    else begin
      (* g_j (x_j - m_j) in target - f(m) - sum_{i<>j} terms_i *)
      let ivs = Box.intervals box in
      let infeasible = ref false and j = ref 0 in
      while (not !infeasible) && !j < k do
        let reg, slot = prog.var_regs.(!j) in
        R.add tmp t_rest prefix !j suffix (!j + 1);
        R.sub tmp t_res tmp t_target tmp t_rest;
        R.div_rel tmp t_res tmp t_res adj reg;
        let m = Float.Array.get s.mids !j in
        R.store_bounds tmp t_acc m m;
        R.add tmp t_res tmp t_res tmp t_acc;
        R.set tmp t_acc ivs.(slot);
        R.meet tmp t_res tmp t_acc tmp t_res;
        if R.is_empty tmp t_res then infeasible := true
        else if not (R.equal tmp t_res tmp t_acc) then
          ivs.(slot) <- R.get tmp t_res;
        incr j
      done;
      if !infeasible then Infeasible
      else Contracted (Box.with_intervals box ivs)
    end
  end

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
   midpoint outside the expression's domain, or an empty partial. The
   box sweep stays in [fwd] and the partials in the adjoint registers:
   f at the midpoint is replayed into the separate point file, so a
   status test of the same box afterwards reuses the box sweep. The
   replay is skipped where [replay_cannot_decide]. *)
let contract_mvf prog box =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length prog.instrs in
  forward s prog box;
  if prog.has_select && selects_undecided prog.instrs s.fwd n then
    Contracted box
  else if not (adjoint_pass s prog) then Contracted box
  else begin
    let k = Array.length prog.var_regs in
    ensure_vars s k;
    let adj = s.adj and dx = s.dx and mids = s.mids in
    let degenerate = ref false and straddle = ref true in
    Array.iteri
      (fun j (reg, slot) ->
        if R.is_empty adj reg then degenerate := true
        else begin
          if not (R.straddles_zero adj reg) then straddle := false;
          let xi = Box.get_idx box slot in
          let mi = Interval.midpoint xi in
          Float.Array.set mids j mi;
          R.store_bounds dx j
            (Interval.lo_down (Interval.inf xi -. mi))
            (Interval.hi_up (Interval.sup xi -. mi))
        end)
      prog.var_regs;
    if !degenerate then Contracted box
    else begin
      Array.iteri
        (fun j (reg, _) -> R.mul s.terms j adj reg dx j)
        prog.var_regs;
      R.set s.tmp t_target prog.target;
      if !straddle && replay_cannot_decide s prog k then begin
        Obs.Metrics.incr m_mvf_replays_skipped 1;
        Contracted box
      end
      else solve_from_midpoint s prog box k
    end
  end
