type result = Itape.result = Contracted of Box.t | Infeasible

type counters = { mutable revise_calls : int; mutable sweeps : int }

let counters () = { revise_calls = 0; sweeps = 0 }

let improvement before after =
  (* Largest relative width reduction over dimensions. *)
  let n = Box.dim before in
  let best = ref 0.0 in
  for i = 0 to n - 1 do
    let wb = Interval.width (Box.get_idx before i) in
    let wa = Interval.width (Box.get_idx after i) in
    if wb > 0.0 && Float.is_finite wb then
      best := Float.max !best ((wb -. wa) /. wb)
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Compiled formulas and the contraction agenda                        *)
(* ------------------------------------------------------------------ *)

type compiled = {
  progs : Itape.t array;
  incidence : int array array;
      (* box dimension -> indices of atoms reading it *)
  points : Compile.t array;
      (* each atom's expression as a scalar float tape, for point probes *)
}

let compile ~vars formula =
  let progs = Array.of_list (List.map (Itape.compile ~vars) formula) in
  let points =
    Array.of_list
      (List.map (fun (a : Form.atom) -> Compile.compile ~vars a.expr) formula)
  in
  let nslots = List.length vars in
  let buckets = Array.make nslots [] in
  Array.iteri
    (fun j prog ->
      Array.iter
        (fun slot -> buckets.(slot) <- j :: buckets.(slot))
        (Itape.slots prog))
    progs;
  {
    progs;
    incidence = Array.map (fun js -> Array.of_list (List.rev js)) buckets;
    points;
  }

let progs compiled = compiled.progs
let incidence compiled = compiled.incidence

let statuses_on compiled box =
  Array.to_list
    (Array.map (fun prog -> Itape.status_on prog box) compiled.progs)

(* Compile.run agrees with Eval.eval to the last ulp (up to the sign of a
   zero sum, which no relation or margin comparison sees) without Eval's
   memo table per call. *)
let eval_midpoint compiled j box =
  Compile.run compiled.points.(j)
    (Array.init (Box.dim box) (fun i -> Interval.midpoint (Box.get_idx box i)))

let holds_at_midpoint compiled box =
  let rec go j =
    j >= Array.length compiled.progs
    || Form.satisfies (Itape.rel compiled.progs.(j)) (eval_midpoint compiled j box)
       && go (j + 1)
  in
  go 0

(* The mean-value contractor: one adjoint sweep per atom gives every
   partial at once. Used as a pipeline stage after the HC4 agenda. *)
let mean_value_tape compiled box =
  let nprogs = Array.length compiled.progs in
  let rec go box j =
    if j >= nprogs then Contracted box
    else
      match Itape.contract_mvf compiled.progs.(j) box with
      | Itape.Infeasible -> Infeasible
      | Itape.Contracted box' -> go box' (j + 1)
  in
  go box 0

(* Kearfott smear values, summed over atoms: scores.(i) bounds how much the
   formula can vary across dimension i. Unbounded partials give an infinite
   score (that dimension dominates); dimensions no atom reads keep 0. The
   0 * infinity products of a zero-magnitude partial on an unbounded
   dimension are NaN and are skipped. *)
let smear_scores compiled box =
  let scores = Array.make (Box.dim box) 0.0 in
  Array.iter
    (fun prog ->
      let g = Itape.eval_gradient prog box in
      Array.iteri
        (fun i p ->
          let s = Interval.mag p *. Interval.width (Box.get_idx box i) in
          if not (Float.is_nan s) then scores.(i) <- scores.(i) +. s)
        g.Itape.partials)
    compiled.progs;
  scores

(* Sweeps of a revise per atom, stopped after [rounds] or when a sweep
   improves no dimension by 1%, with an AC-3 style agenda on top: an atom
   is skipped while it is clean — its last revise changed nothing and none
   of its variables were contracted since. Skipping is sound *and*
   result-identical because revise is a deterministic function of the
   atom's own variable domains: re-running a clean atom would return the
   box unchanged. Only [revise_calls] drops below the one-revise-per-atom
   sweep of the tree-walk oracle (test/tree_oracle.ml). *)
let contract_tape ?counters:cnt compiled box ~rounds =
  let count_revise () =
    match cnt with Some c -> c.revise_calls <- c.revise_calls + 1 | None -> ()
  in
  let count_sweep () =
    match cnt with Some c -> c.sweeps <- c.sweeps + 1 | None -> ()
  in
  let nprogs = Array.length compiled.progs in
  let dirty = Array.make nprogs true in
  let rec sweep box k =
    if k >= rounds then Contracted box
    else begin
      count_sweep ();
      let rec apply box j =
        if j >= nprogs then Contracted box
        else if not dirty.(j) then apply box (j + 1)
        else begin
          count_revise ();
          let prog = compiled.progs.(j) in
          match Itape.revise prog box with
          | Itape.Infeasible -> Infeasible
          | Itape.Contracted box' ->
              dirty.(j) <- false;
              (* Re-dirty every atom touching a contracted dimension —
                 including this one, when it contracted its own variables
                 (revise is not idempotent until it reaches a fixpoint). *)
              Array.iter
                (fun slot ->
                  if
                    not
                      (Interval.equal (Box.get_idx box slot)
                         (Box.get_idx box' slot))
                  then
                    Array.iter
                      (fun j' -> dirty.(j') <- true)
                      compiled.incidence.(slot))
                (Itape.slots prog);
              apply box' (j + 1)
        end
      in
      match apply box 0 with
      | Infeasible -> Infeasible
      | Contracted box' ->
          if improvement box box' < 0.01 then Contracted box'
          else sweep box' (k + 1)
    end
  in
  sweep box 0
