type verdict =
  | Unsat
  | Sat of { model : (string * float) list; certified : bool }
  | Timeout

type stats = {
  expansions : int;
  prunes : int;
  max_depth : int;
  revise_calls : int;
  sweeps : int;
}

type native_outcome = {
  n_result : Hc4.result;
  n_statuses : [ `Holds | `Fails | `Unknown ] array;
  n_revise : int;
  n_sweeps : int;
}

type native = Box.t -> native_outcome

type config = {
  delta : float;
  fuel : int;
  contractor_rounds : int;
  faults : Fault.plan option;
  tape : Hc4.compiled option;
  split_heuristic : [ `Widest | `Smear ];
  native : native option;
}

let default_config =
  {
    delta = 1e-3;
    fuel = 5_000;
    contractor_rounds = 4;
    faults = Fault.of_env ();
    tape = None;
    split_heuristic = `Widest;
    native = None;
  }

(* A stable identity for a solver call: the box bounds, bit-exact. Fault
   decisions keyed on it are independent of scheduling order, so injected
   failures hit the same boxes at every worker count. Bounds are collected
   positionally (same order as the variable list) — no name lookups. *)
let fault_key box =
  let rec bounds i acc =
    if i < 0 then acc
    else
      let iv = Box.get_idx box i in
      bounds (i - 1) (Interval.inf iv :: Interval.sup iv :: acc)
  in
  Fault.key_of (bounds (Box.dim box - 1) [])

(* Telemetry: all counters here are deterministic (they count work, which
   for a deadline-free campaign is identical at every worker count); the
   contract/solve phase split is wall-class and flushed once per solver
   call, never per expansion. *)
let m_solves = Obs.Metrics.counter "icp.solves"
let m_expansions = Obs.Metrics.counter "icp.expansions"
let m_prunes = Obs.Metrics.counter "icp.prunes"
let m_revise = Obs.Metrics.counter "icp.revise_calls"
let m_sweeps = Obs.Metrics.counter "icp.sweeps"
let m_unsat = Obs.Metrics.counter "icp.unsat"
let m_sat = Obs.Metrics.counter "icp.sat"
let m_timeout = Obs.Metrics.counter "icp.timeout"
let m_faults = Obs.Metrics.counter "icp.faults_injected"
let m_hc4_tape = Obs.Metrics.counter "hc4.contract_tape"

(* Width-reduction ratio of one contraction burst, scaled to 0..1024 before
   log2 bucketing; a prune (Infeasible) counts as full contraction. *)
let h_ratio = Obs.Metrics.histogram "icp.contraction_ratio"
let ratio_scale = 1024

(* Fuel actually burned per solver call — the reproduction's analogue of
   the paper's per-call dReal budget distribution. *)
let h_expansions = Obs.Metrics.histogram "icp.expansions_per_solve"

let solve_real ~contractors cfg box formula =
  (* Standalone callers (tests, benches) pass no tape: compile it here,
     once per call. The verifier compiles once per pair and always passes
     one. *)
  let compiled =
    match cfg.tape with
    | Some compiled -> compiled
    | None -> Hc4.compile ~vars:(Box.vars box) formula
  in
  let expansions = ref 0 and prunes = ref 0 and max_depth = ref 0 in
  let t_start = Obs.Clock.now_ns () in
  let contract_ns = ref 0 in
  let hc4 = Hc4.counters () in
  let stats () =
    {
      expansions = !expansions;
      prunes = !prunes;
      max_depth = !max_depth;
      revise_calls = hc4.Hc4.revise_calls;
      sweeps = hc4.Hc4.sweeps;
    }
  in
  (* One flush per solver call: counters, per-call histograms, and the
     contract/solve wall split (contract = the engine's steps, statuses
     included; solve = everything else). *)
  let finish verdict =
    let s = stats () in
    Obs.Metrics.incr m_solves 1;
    Obs.Metrics.incr m_expansions s.expansions;
    Obs.Metrics.incr m_prunes s.prunes;
    Obs.Metrics.incr m_revise s.revise_calls;
    Obs.Metrics.incr m_sweeps s.sweeps;
    Obs.Metrics.incr
      (match verdict with
      | Unsat -> m_unsat
      | Sat _ -> m_sat
      | Timeout -> m_timeout)
      1;
    Obs.Metrics.observe h_expansions s.expansions;
    let total = Obs.Clock.now_ns () - t_start in
    Obs.Metrics.add_phase Obs.Metrics.Contract !contract_ns;
    Obs.Metrics.add_phase Obs.Metrics.Solve
      (Stdlib.max 0 (total - !contract_ns));
    (verdict, s)
  in
  (* The contraction engine, chosen once per call. One step contracts one
     box and, when the contracted box is non-empty, reads the per-atom
     statuses on it. The native kernel replays the whole pipeline (HC4
     agenda, the baked-in mean-value stage, the statuses) in one call and
     hands back its revise/sweep deltas, so the [contractors] are not
     applied on top. The interpreted pipeline runs the tape's HC4 sweeps,
     then the [contractors], then the statuses, in that order: each stage
     reuses the forward sweep the one before left for the same box. *)
  let step =
    match cfg.native with
    | Some kernel ->
        fun box ->
          let o = kernel box in
          hc4.Hc4.revise_calls <- hc4.Hc4.revise_calls + o.n_revise;
          hc4.Hc4.sweeps <- hc4.Hc4.sweeps + o.n_sweeps;
          (o.n_result, Array.to_list o.n_statuses)
    | None ->
        fun box ->
          let result =
            match
              Hc4.contract_tape ~counters:hc4 compiled box
                ~rounds:cfg.contractor_rounds
            with
            | Hc4.Infeasible -> Hc4.Infeasible
            | Hc4.Contracted box ->
                List.fold_left
                  (fun acc stage ->
                    match acc with
                    | Hc4.Infeasible -> Hc4.Infeasible
                    | Hc4.Contracted b -> stage b)
                  (Hc4.Contracted box) contractors
          in
          let statuses =
            match result with
            | Hc4.Contracted b when not (Box.is_empty b) ->
                Hc4.statuses_on compiled b
            | _ -> []
          in
          (result, statuses)
  in
  (* Worklist of (box, depth), depth-first. *)
  let rec loop = function
    | [] -> finish Unsat
    | (box, depth) :: rest ->
        if !expansions >= cfg.fuel then finish Timeout
        else begin
          incr expansions;
          if depth > !max_depth then max_depth := depth;
          let before_w = Box.max_width box in
          let c0 = Obs.Clock.now_ns () in
          Obs.Metrics.incr m_hc4_tape 1;
          let contracted, statuses = step box in
          contract_ns := !contract_ns + (Obs.Clock.now_ns () - c0);
          (match contracted with
          | Hc4.Infeasible -> Obs.Metrics.observe h_ratio ratio_scale
          | Hc4.Contracted b ->
              let after_w = Box.max_width b in
              let r =
                if before_w > 0.0 && Float.is_finite before_w then
                  (before_w -. after_w) /. before_w
                else 0.0
              in
              let r = Float.max 0.0 (Float.min 1.0 r) in
              Obs.Metrics.observe h_ratio
                (int_of_float (r *. float_of_int ratio_scale)));
          match contracted with
          | Hc4.Infeasible ->
              incr prunes;
              loop rest
          | Hc4.Contracted box when Box.is_empty box ->
              incr prunes;
              loop rest
          | Hc4.Contracted box ->
              if List.for_all (fun s -> s = `Holds) statuses then
                (* Every point of the box is a model. *)
                finish (Sat { model = Box.midpoint box; certified = true })
              else if List.exists (fun s -> s = `Fails) statuses then begin
                incr prunes;
                loop rest
              end
              else begin
                let mid = Box.midpoint box in
                if Hc4.holds_at_midpoint compiled box then
                  (* A float-arithmetic witness: not box-certified, but it
                     will pass the caller's valid(x) re-check. *)
                  finish (Sat { model = mid; certified = false })
                else if Box.max_width box <= cfg.delta then
                  (* δ-SAT: cannot decide at this resolution. *)
                  finish (Sat { model = mid; certified = false })
                else begin
                  let b1, b2 =
                    match cfg.split_heuristic with
                    | `Smear ->
                        Box.split_smear box
                          ~scores:(Hc4.smear_scores compiled box)
                    | `Widest -> Box.split box
                  in
                  loop ((b1, depth + 1) :: (b2, depth + 1) :: rest)
                end
              end
        end
  in
  loop [ (box, 0) ]

let zero_stats =
  { expansions = 0; prunes = 0; max_depth = 0; revise_calls = 0; sweeps = 0 }

let solve ?(contractors = []) ?(attempt = 0) cfg box formula =
  Itape.forget ();
  let injected =
    match cfg.faults with
    | None -> None
    | Some plan -> Fault.decide plan ~attempt ~key:(fault_key box)
  in
  (match injected with
  | Some _ -> Obs.Metrics.incr m_faults 1
  | None -> ());
  match injected with
  | Some Fault.Raise ->
      raise
        (Fault.Injected
           (Printf.sprintf "injected solver fault (key %Lx, attempt %d)"
              (fault_key box) attempt))
  | Some Fault.Nan ->
      (* An evaluation gone NaN: the solver hands back an uncertified model
         with undefined coordinates, which the caller's valid(x) re-check
         rejects — Algorithm 1's inconclusive outcome. *)
      let model = List.map (fun v -> (v, Float.nan)) (Box.vars box) in
      (Sat { model; certified = false }, zero_stats)
  | Some Fault.Timeout -> (Timeout, zero_stats)
  | None -> solve_real ~contractors cfg box formula

let pp_verdict ppf = function
  | Unsat -> Format.pp_print_string ppf "unsat"
  | Sat { model; certified } ->
      Format.fprintf ppf "%s-sat {"
        (if certified then "certified" else "delta");
      List.iteri
        (fun i (v, x) ->
          if i > 0 then Format.fprintf ppf ", ";
          Format.fprintf ppf "%s = %.6g" v x)
        model;
      Format.fprintf ppf "}"
  | Timeout -> Format.pp_print_string ppf "timeout"
