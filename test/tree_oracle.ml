(* Tree-walking reference implementations of the solver's contraction and
   certainty tests. The library contracts only through the compiled
   interval tape (Itape / Hc4.contract_tape / Hc4.mean_value_tape); these
   walk the expression trees directly, with hashtables keyed by node id,
   and serve as independent oracles: the equivalence properties in
   test_itape.ml and test_adjoint.ml check the tape against them bit for
   bit. They share only the backward branch inverses (the Itape.backward_
   functions) and the relation targets with the tape; the adjoint
   reference at the end reads the tape's public instruction view. *)

open Expr

(* Prefix/suffix folds used to compute, for every operand of an n-ary node,
   the combination of all *other* operands in O(n). *)
let others combine unit xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let prefix = Array.make (n + 1) unit in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- combine prefix.(i) arr.(i)
  done;
  let suffix = Array.make (n + 1) unit in
  for i = n - 1 downto 0 do
    suffix.(i) <- combine arr.(i) suffix.(i + 1)
  done;
  List.init n (fun i -> combine prefix.(i) suffix.(i + 1))

let revise box atom =
  let e = atom.Form.expr in
  let env = Box.to_env box in
  (* ---- forward pass -------------------------------------------------- *)
  let fwd : (int, Interval.t) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  (* children-first order *)
  let rec forward e =
    match Hashtbl.find_opt fwd e.id with
    | Some i -> i
    | None ->
        let i =
          match e.node with
          | Num r -> Interval.point (Rat.to_float r)
          | Flt f -> Interval.point f
          | Var v -> (
              match List.assoc_opt v env with
              | Some i -> i
              | None -> raise (Eval.Unbound_variable v))
          | Add terms ->
              List.fold_left
                (fun acc t -> Interval.add acc (forward t))
                Interval.zero terms
          | Mul factors ->
              List.fold_left
                (fun acc f -> Interval.mul acc (forward f))
                Interval.one factors
          | Pow (b, x) -> Ieval.pow_node (as_rat x) (forward b) (forward x)
          | Apply (op, a) -> Ieval.apply_unop op (forward a)
          | Piecewise (branches, default) ->
              let rec walk acc = function
                | [] -> Interval.join acc (forward default)
                | (g, body) :: rest -> (
                    match
                      Ieval.guard_status_of_interval g.grel (forward g.cond)
                    with
                    | `True -> Interval.join acc (forward body)
                    | `False ->
                        (* still record dead branches in fwd for uniformity *)
                        ignore (forward body);
                        walk acc rest
                    | `Unknown -> walk (Interval.join acc (forward body)) rest)
              in
              walk Interval.empty branches
        in
        Hashtbl.add fwd e.id i;
        order := e :: !order;
        i
  in
  let root_fwd = forward e in
  (* ---- backward pass ------------------------------------------------- *)
  let req : (int, Interval.t) Hashtbl.t = Hashtbl.create 256 in
  let requirement n =
    match Hashtbl.find_opt req n.id with
    | Some r -> r
    | None -> Hashtbl.find fwd n.id
  in
  let tighten child contribution =
    Hashtbl.replace req child.id (Interval.meet (requirement child) contribution)
  in
  (* Union-of-branches contribution: meet each branch with the current
     requirement first, then hull, preserving gaps the union straddles
     (crucial for even powers: x^2 >= 4 on [0,10] must yield [2,10]). *)
  let tighten_branches child branches =
    let cur = requirement child in
    let joined =
      List.fold_left
        (fun acc b -> Interval.join acc (Interval.meet cur b))
        Interval.empty branches
    in
    Hashtbl.replace req child.id joined
  in
  let root_req =
    Interval.meet root_fwd (Itape.target_of_relation atom.Form.rel)
  in
  if Interval.is_empty root_req then Hc4.Infeasible
  else begin
    Hashtbl.replace req e.id root_req;
    let infeasible = ref false in
    let propagate n =
      let r = requirement n in
      if Interval.is_empty r then infeasible := true
      else
        match n.node with
        | Num _ | Flt _ | Var _ -> ()
        | Add terms ->
            let fwd_of t = Hashtbl.find fwd t.id in
            let rest_sums =
              others Interval.add Interval.zero (List.map fwd_of terms)
            in
            List.iter2
              (fun t rest -> tighten t (Interval.sub r rest))
              terms rest_sums
        | Mul factors ->
            let fwd_of t = Hashtbl.find fwd t.id in
            let rest_prods =
              others Interval.mul Interval.one (List.map fwd_of factors)
            in
            List.iter2
              (fun t rest ->
                (* x * rest = r => x in the relational quotient r / rest:
                   top when 0 is in both (x * 0 = 0 constrains nothing),
                   empty when rest = {0} but 0 is not in r. *)
                if Interval.is_empty rest then ()
                else tighten t (Interval.div_rel r rest))
              factors rest_prods
        | Pow (b, x) -> (
            match (as_rat x, as_const x) with
            | Some rat, _ -> tighten_branches b (Itape.backward_pow_rat r rat)
            | None, Some p -> tighten_branches b (Itape.backward_pow_const r p)
            | None, None ->
                (* Variable exponent: contract the exponent when the base is
                   certainly > 1 or in (0, 1): y = log r / log b. *)
                let fb = Hashtbl.find fwd b.id in
                if Interval.certainly_gt fb 0.0 then begin
                  let logb = Transcend.log fb in
                  let logr = Transcend.log (Interval.meet r Interval.nonneg) in
                  if
                    (not (Interval.is_empty logr))
                    && not (Interval.mem 0.0 logb)
                  then tighten x (Interval.div logr logb)
                end)
        | Apply (op, a) -> (
            match op with
            | Exp -> tighten a (Transcend.log r)
            | Log -> tighten a (Transcend.exp r)
            | Tanh -> tighten a (Transcend.atanh r)
            | Atan -> tighten a (Transcend.tan_on_principal r)
            | Abs -> tighten_branches a (Itape.backward_abs r)
            | Lambert_w -> tighten a (Transcend.w_inverse r)
            | Sin ->
                (* Only invert within a range certainly strictly inside the
                   principal monotone branch (round-down pi/2). *)
                let fa = Hashtbl.find fwd a.id in
                if
                  Interval.is_bounded fa
                  && Interval.inf fa >= -.Transcend.half_pi_lo
                  && Interval.sup fa <= Transcend.half_pi_lo
                then tighten a (Transcend.asin_hull r)
            | Cos ->
                let fa = Hashtbl.find fwd a.id in
                if
                  Interval.is_bounded fa
                  && Interval.inf fa >= 0.0
                  && Interval.sup fa <= Transcend.pi_lo
                then tighten a (Transcend.acos_hull r))
        | Piecewise (branches, default) ->
            (* Propagate into a branch only when it is certainly the one
               taken on the whole box. *)
            let rec walk = function
              | [] -> tighten default r
              | (g, body) :: rest -> (
                  match
                    Ieval.guard_status_of_interval g.grel
                      (Hashtbl.find fwd g.cond.id)
                  with
                  | `True -> tighten body r
                  | `False -> walk rest
                  | `Unknown -> ())
            in
            walk branches
    in
    (* Nodes were consed onto [order] in post-order (children pushed before
       parents), so the list head-first runs parents-first: each node's
       requirement is final before its children are tightened. *)
    List.iter (fun n -> if not !infeasible then propagate n) !order;
    if !infeasible then Hc4.Infeasible
    else begin
      (* Read contracted variable domains. *)
      let contracted = ref box in
      let failed = ref false in
      List.iter
        (fun n ->
          match n.node with
          | Var v -> (
              match Hashtbl.find_opt req n.id with
              | Some r ->
                  let r = Interval.meet r (Box.get box v) in
                  if Interval.is_empty r then failed := true
                  else contracted := Box.set !contracted v r
              | None -> ())
          | _ -> ())
        !order;
      if !failed then Hc4.Infeasible else Hc4.Contracted !contracted
    end
  end

(* The sweep stop test of Hc4.contract_tape: largest relative width
   reduction over dimensions. *)
let improvement before after =
  let n = Box.dim before in
  let best = ref 0.0 in
  for i = 0 to n - 1 do
    let wb = Interval.width (Box.get_idx before i) in
    let wa = Interval.width (Box.get_idx after i) in
    if wb > 0.0 && Float.is_finite wb then
      best := Float.max !best ((wb -. wa) /. wb)
  done;
  !best

(* One revise per atom per sweep, no agenda: the reference for
   Hc4.contract_tape's results and sweep counts. *)
let contract ?counters:cnt box formula ~rounds =
  let count_revise () =
    match cnt with
    | Some c -> c.Hc4.revise_calls <- c.Hc4.revise_calls + 1
    | None -> ()
  in
  let count_sweep () =
    match cnt with Some c -> c.Hc4.sweeps <- c.Hc4.sweeps + 1 | None -> ()
  in
  let rec sweep box k =
    if k >= rounds then Hc4.Contracted box
    else begin
      count_sweep ();
      let rec apply box = function
        | [] -> Hc4.Contracted box
        | a :: rest -> (
            count_revise ();
            match revise box a with
            | Hc4.Infeasible -> Hc4.Infeasible
            | Hc4.Contracted box' -> apply box' rest)
      in
      match apply box formula with
      | Hc4.Infeasible -> Hc4.Infeasible
      | Hc4.Contracted box' ->
          if improvement box box' < 0.01 then Hc4.Contracted box'
          else sweep box' (k + 1)
    end
  in
  sweep box 0

(* [Form.status_of_interval] of the tree-walk enclosure [Ieval.eval]. *)
let status_on box a =
  Form.status_of_interval (Ieval.eval (Box.to_env box) a.Form.expr) a.Form.rel

(* The symbolic mean-value-form contractor: one symbolic gradient per
   variable, prepared up front and evaluated by tree walks on each box.
   The reference for Itape.contract_mvf. *)
module Taylor = struct
  type prepared = {
    atom : Form.atom;
    grads : (int * Expr.t) list;
        (** (box dimension, symbolic gradient) per free variable — dimensions
            are resolved once at prepare time so the per-box hot path never
            does a name lookup *)
    guards : Expr.guard list;  (** every piecewise guard inside the atom *)
  }

  let collect_guards e =
    fold_dag
      (fun e acc ->
        match e.node with
        | Piecewise (branches, _) -> List.map fst branches @ acc
        | _ -> acc)
      e []

  let prepare ~vars (atom : Form.atom) =
    let slot_of v =
      let rec find i = function
        | [] ->
            invalid_arg
              (Printf.sprintf "Tree_oracle.Taylor.prepare: unbound variable %S"
                 v)
        | v' :: rest -> if String.equal v v' then i else find (i + 1) rest
      in
      find 0 vars
    in
    let grads =
      List.map
        (fun v ->
          (slot_of v, Simplify.simplify (Deriv.diff ~wrt:v atom.Form.expr)))
        (Expr.vars atom.Form.expr)
    in
    { atom; grads; guards = collect_guards atom.Form.expr }

  (* The mean value form is only valid where f is differentiable: every
     piecewise guard must be decided over the whole box. *)
  let differentiable prepared env =
    List.for_all
      (fun g ->
        match Ieval.guard_status env g with
        | `True | `False -> true
        | `Unknown -> false)
      prepared.guards

  (* X_i - m_i, outward rounded *)
  let centred xi =
    let mi = Interval.midpoint xi in
    Interval.of_bounds
      (Interval.lo_down (Interval.inf xi -. mi))
      (Interval.hi_up (Interval.sup xi -. mi))

  let deviations prepared box =
    (* (box dimension, gradient enclosure, X_i - m_i) per dimension. *)
    let env = Box.to_env box in
    List.map
      (fun (slot, grad) ->
        (slot, Ieval.eval env grad, centred (Box.get_idx box slot)))
      prepared.grads

  let midpoint_env box =
    List.map (fun (v, x) -> (v, Interval.point x)) (Box.midpoint box)

  let enclosure prepared box =
    let env = Box.to_env box in
    let natural = Ieval.eval env prepared.atom.Form.expr in
    if not (differentiable prepared env) then natural
    else begin
      let fm = Ieval.eval (midpoint_env box) prepared.atom.Form.expr in
      if Interval.is_empty fm then natural
      else begin
        let mvf =
          List.fold_left
            (fun acc (_, g, dx) -> Interval.add acc (Interval.mul g dx))
            fm (deviations prepared box)
        in
        Interval.meet natural mvf
      end
    end

  (* The mean-value form f(m) + sum_i g_i (X_i - m_i) over [devs]:
     infeasible when it misses [target], else solved for each dimension
     in turn. *)
  let solve target fm devs box =
    let terms = List.map (fun (_, g, dx) -> Interval.mul g dx) devs in
    let total = List.fold_left Interval.add fm terms in
    if Interval.is_empty (Interval.meet total target) then Hc4.Infeasible
    else begin
      (* Solve the linear form for each variable in turn:
         g_i (x_i - m_i) in target - f(m) - sum_{j<>i} terms_j. *)
      let arr = Array.of_list terms in
      let n = Array.length arr in
      let prefix = Array.make (n + 1) fm in
      for i = 0 to n - 1 do
        prefix.(i + 1) <- Interval.add prefix.(i) arr.(i)
      done;
      let suffix = Array.make (n + 1) Interval.zero in
      for i = n - 1 downto 0 do
        suffix.(i) <- Interval.add arr.(i) suffix.(i + 1)
      done;
      let box' = ref box in
      let infeasible = ref false in
      List.iteri
        (fun i (slot, g, _) ->
          if not !infeasible then begin
            let others = Interval.add prefix.(i) suffix.(i + 1) in
            (* Relational division: a gradient enclosing 0 no longer
               skips the dimension. Strictly straddling gradients give
               top (a sound no-op), half-open ones ([0, k]) genuine
               contraction, and g = {0} with 0 outside the numerator a
               correct infeasibility proof. *)
            let rhs = Interval.div_rel (Interval.sub target others) g in
            let xi = Box.get_idx !box' slot in
            let mi = Interval.midpoint xi in
            let shifted = Interval.add rhs (Interval.point mi) in
            let narrowed = Interval.meet xi shifted in
            if Interval.is_empty narrowed then infeasible := true
            else if not (Interval.equal narrowed xi) then
              box' := Box.set_idx !box' slot narrowed
          end)
        devs;
      if !infeasible then Hc4.Infeasible else Hc4.Contracted !box'
    end

  let contract prepared box =
    let env = Box.to_env box in
    if not (differentiable prepared env) then Hc4.Contracted box
    else begin
      let fm = Ieval.eval (midpoint_env box) prepared.atom.Form.expr in
      if Interval.is_empty fm then
        (* Midpoint outside the expression's domain (possible on boxes that
           straddle a domain boundary): no sound linearization point. *)
        Hc4.Contracted box
      else
        solve
          (Itape.target_of_relation prepared.atom.Form.rel)
          fm (deviations prepared box) box
    end

  let contractor prepared box = contract prepared box
end

(* Itape.contract_mvf as it was before it learned to skip the midpoint
   replay: the same mean-value stage with the replay always run, built from
   the tape's public sweeps (Itape.eval_gradient for F and the partials,
   Itape.eval on the midpoint box for f(m)) and Taylor.solve, which runs
   contract_mvf's Interval operations in its order, so the two must agree
   bit for bit. *)
module Mvf_replay = struct
  (* contract_mvf's guard pre-scan: some select, reachable or not, has an
     undecided guard before its first certainly-true one. *)
  let undecided_select env e =
    let rec walk = function
      | [] -> false
      | (g, _) :: rest -> (
          match Ieval.guard_status env g with
          | `True -> false
          | `False -> walk rest
          | `Unknown -> true)
    in
    fold_dag
      (fun e acc ->
        acc
        ||
        match e.node with
        | Piecewise (branches, _) -> walk branches
        | _ -> false)
      e false

  let contract prog (atom : Form.atom) box =
    let g = Itape.eval_gradient prog box in
    let partial slot = g.Itape.partials.(slot) in
    let slots = Array.to_list (Array.map snd (Itape.var_regs prog)) in
    if undecided_select (Box.to_env box) atom.expr || not g.Itape.decided then
      Itape.Contracted box
    else if List.exists (fun slot -> Interval.is_empty (partial slot)) slots
    then Itape.Contracted box
    else
      let fm = Itape.eval prog (Box.midpoint_box box) in
      if Interval.is_empty fm then Itape.Contracted box
      else
        Taylor.solve
          (Itape.target_of_relation atom.rel)
          fm
          (List.map
             (fun slot ->
               (slot, partial slot, Taylor.centred (Box.get_idx box slot)))
             slots)
          box
end

(* Itape.eval_gradient as it was before the tape planned its products: a
   forward sweep and a reverse adjoint sweep over the tape's public
   instruction view, in boxed Interval operations, with every product's
   cofactors built by the generic prefix/suffix folds from [1, 1] and no
   sweep reused. The tape now starts its products from compile-time
   constant prefixes, reads the forward sweep's partial products and
   builds only the suffixes its non-constant operands read; the reference
   for Itape.eval_gradient, bit for bit. *)
module Adjoint = struct
  let guard fwd rel c = Ieval.guard_status_of_interval rel fwd.(c)

  let forward prog box =
    let instrs = Itape.instrs prog in
    let fwd = Array.make (Array.length instrs) Interval.empty in
    Array.iteri
      (fun i ins ->
        fwd.(i) <-
          (match ins with
          | Itape.Iconst c -> c
          | Itape.Ivar slot -> Box.get_idx box slot
          | Itape.Iadd regs ->
              Array.fold_left
                (fun acc r -> Interval.add acc fwd.(r))
                Interval.zero regs
          | Itape.Imul regs ->
              Array.fold_left
                (fun acc r -> Interval.mul acc fwd.(r))
                Interval.one regs
          | Itape.Ipow { base; expo; const_rat; _ } ->
              Ieval.pow_node const_rat fwd.(base) fwd.(expo)
          | Itape.Iunop (op, a) -> Ieval.apply_unop op fwd.(a)
          | Itape.Iselect { branches; default } ->
              let rec walk acc idx =
                if idx >= Array.length branches then
                  Interval.join acc fwd.(default)
                else
                  let c, rel, b = branches.(idx) in
                  match guard fwd rel c with
                  | `True -> Interval.join acc fwd.(b)
                  | `False -> walk acc (idx + 1)
                  | `Unknown -> walk (Interval.join acc fwd.(b)) (idx + 1)
              in
              walk Interval.empty 0))
      instrs;
    fwd

  (* the tape's local derivative rules *)
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

  let eval_gradient prog box =
    let instrs = Itape.instrs prog in
    let n = Array.length instrs in
    let fwd = forward prog box in
    let const c = match instrs.(c) with Itape.Iconst _ -> true | _ -> false in
    let adj = Array.make n Interval.zero in
    adj.(Itape.root prog) <- Interval.one;
    let accum c v = adj.(c) <- Interval.add adj.(c) v in
    let weight = Interval.make 0.0 1.0 in
    let accum_scaled c i ~weighted =
      if not (const c) then
        accum c (if weighted then Interval.mul adj.(i) weight else adj.(i))
    in
    let rec select i branches default certain idx =
      if idx >= Array.length branches then begin
        accum_scaled default i ~weighted:(not certain);
        certain
      end
      else
        let c, rel, b = branches.(idx) in
        match guard fwd rel c with
        | `True ->
            accum_scaled b i ~weighted:(not certain);
            certain
        | `False -> select i branches default certain (idx + 1)
        | `Unknown ->
            accum_scaled b i ~weighted:true;
            ignore (select i branches default false (idx + 1) : bool);
            false
    in
    let decided = ref true in
    for i = n - 1 downto 0 do
      let a = adj.(i) in
      if not (Interval.inf a = 0.0 && Interval.sup a = 0.0) then
        match instrs.(i) with
        | Itape.Iconst _ | Itape.Ivar _ -> ()
        | Itape.Iadd regs ->
            Array.iter (fun c -> if not (const c) then accum c a) regs
        | Itape.Imul regs ->
            let m = Array.length regs in
            let suffix = Array.make (m + 1) Interval.one in
            for j = m - 1 downto 1 do
              suffix.(j) <- Interval.mul fwd.(regs.(j)) suffix.(j + 1)
            done;
            let acc = ref Interval.one in
            for j = 0 to m - 1 do
              let c = regs.(j) in
              if not (const c) then
                accum c (Interval.mul a (Interval.mul !acc suffix.(j + 1)));
              if j < m - 1 then acc := Interval.mul !acc fwd.(c)
            done
        | Itape.Ipow { base; expo; const_expo; rat_deriv; _ } -> (
            match (rat_deriv, const_expo) with
            | Some (rm1, r), _ ->
                if not (const base) then
                  accum base
                    (Interval.mul a
                       (Interval.mul r (Transcend.pow_rat fwd.(base) rm1)))
            | None, Some p ->
                if p <> 0.0 && not (const base) then begin
                  let q = p -. 1.0 in
                  let bq =
                    if Float.is_integer q && Float.abs q <= 1073741823.0 then
                      Interval.pow_int fwd.(base) (int_of_float q)
                    else Interval.pow fwd.(base) q
                  in
                  accum base (Interval.mul a (Interval.mul (Interval.point p) bq))
                end
            | None, None ->
                let fb = fwd.(base) and fx = fwd.(expo) and fi = fwd.(i) in
                if not (const base) then
                  accum base
                    (Interval.mul a
                       (Interval.mul fi (Interval.mul fx (Interval.inv fb))));
                if not (const expo) then
                  accum expo
                    (Interval.mul a (Interval.mul fi (Ieval.apply_unop Log fb))))
        | Itape.Iunop (op, c) ->
            if not (const c) then
              accum c (Interval.mul a (d_unop op fwd.(c) fwd.(i)))
        | Itape.Iselect { branches; default } ->
            if not (select i branches default true 0) then decided := false
    done;
    let partials = Array.make (Box.dim box) Interval.zero in
    Array.iter
      (fun (reg, slot) -> partials.(slot) <- adj.(reg))
      (Itape.var_regs prog);
    { Itape.value = fwd.(Itape.root prog); partials; decided = !decided }
end
