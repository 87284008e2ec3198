(* Layer replay for the traced run: after a pair is verified, time each
   layer's public entry points on frontier boxes sampled from that pair's
   own painted solver regions, from [Icp.solve] down to [Interval.mul].
   Multiplying these per-call costs by the pair's counter deltas attributes
   the pair's wall time to layers.

   Replays run against a scratch metrics instance, so they never add to the
   counters of the measured passes. *)

let sample_size = 8

type t = {
  solve_ms : float list;  (** one per replayed [Icp.solve] *)
  expansion_ns : float;  (** replayed [Icp.solve] time per expansion *)
  contract_tape_ns : float;
  mean_value_tape_ns : float;
  statuses_ns : float;
  eval_ns : float;
  revise_ns : float;
  gradient_ns : float;
  jit_ns_per_box : float option;
  exp_ns : float;
  log_ns : float;
  pow_rat_ns : float;
  mul_ns : float;
  div_rel_ns : float;
}

(* Mean ns per call of [f] over [items], repeating whole rounds until
   [budget_ns] has elapsed (at least one round). *)
let ns_per_call ?(budget_ns = 2_000_000) items f =
  let n = Array.length items in
  let t0 = Stats.now_ns () in
  let calls = ref 0 in
  let rec round () =
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
    calls := !calls + n;
    if Stats.now_ns () - t0 < budget_ns then round ()
  in
  round ();
  float_of_int (Stats.now_ns () - t0) /. float_of_int !calls

let timed name items f = Spans.with_span name (fun () -> ns_per_call items f)

(* [sample_size] region boxes drawn without replacement by [rng] (all of
   them when the pair painted fewer). *)
let sample_boxes rng (o : Outcome.t) =
  let boxes =
    Ctx.shuffle rng (Array.of_list (List.map (fun r -> r.Outcome.box) o.Outcome.regions))
  in
  Array.sub boxes 0 (min (Array.length boxes) sample_size)

let replay ~rng ~(config : Verify.config) ~plan (p : Encoder.problem)
    (o : Outcome.t) =
  let boxes = sample_boxes rng o in
  if Array.length boxes = 0 then None
  else begin
    let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
    Fun.protect ~finally:(fun () -> ignore (Obs.Metrics.install prev))
    @@ fun () ->
    Spans.with_span "replay" ~args:[ ("pair", Digests.pair_key o) ]
    @@ fun () ->
    (* the solver configuration Verify.run builds for the pair *)
    let compiled = Hc4.compile ~vars:(Box.vars p.Encoder.domain) p.Encoder.negated in
    let contractors =
      if config.Verify.use_taylor then [ Hc4.mean_value_tape compiled ] else []
    in
    let scfg =
      {
        config.Verify.solver with
        Icp.tape = Some compiled;
        split_heuristic = config.Verify.split_heuristic;
        native = Option.map Jit.native_batch plan;
      }
    in
    let rounds = config.Verify.solver.Icp.contractor_rounds in
    (* one latency sample per sampled box (first round), so pairs with cheap
       solves do not dominate the median by repeating more rounds *)
    let solve_ms = ref [] and solve_ns = ref 0 and expansions = ref 0 in
    Spans.with_span "icp.solve" (fun () ->
        let t_start = Stats.now_ns () in
        let rec round first =
          Array.iter
            (fun b ->
              let t0 = Stats.now_ns () in
              let _, st = Icp.solve ~contractors scfg b p.Encoder.negated in
              let dt = Stats.now_ns () - t0 in
              if first then solve_ms := (float_of_int dt /. 1e6) :: !solve_ms;
              solve_ns := !solve_ns + dt;
              expansions := !expansions + st.Icp.expansions)
            boxes;
          if Stats.now_ns () - t_start < 20_000_000 then round false
        in
        round true);
    let prog = (Hc4.progs compiled).(0) in
    let dim i = Array.map (fun b -> Box.get_idx b (i mod Box.dim b)) boxes in
    let x = dim 0 and y = dim 1 in
    let xy = Array.map2 (fun a b -> (a, b)) x y in
    let third = Rat.make 1 3 in
    Some
      {
        solve_ms = !solve_ms;
        expansion_ns =
          float_of_int !solve_ns /. float_of_int (max 1 !expansions);
        contract_tape_ns =
          timed "hc4.contract_tape" boxes (fun b ->
              Hc4.contract_tape compiled b ~rounds);
        mean_value_tape_ns =
          timed "hc4.mean_value_tape" boxes (Hc4.mean_value_tape compiled);
        statuses_ns = timed "hc4.statuses_on" boxes (Hc4.statuses_on compiled);
        eval_ns = timed "itape.eval" boxes (Itape.eval prog);
        revise_ns = timed "itape.revise" boxes (Itape.revise prog);
        gradient_ns = timed "itape.eval_gradient" boxes (Itape.eval_gradient prog);
        jit_ns_per_box =
          Option.map
            (fun plan ->
              timed "jit.contract_batch" [| boxes |] (Jit.contract_batch plan)
              /. float_of_int (Array.length boxes))
            plan;
        exp_ns = timed "transcend.exp" x Transcend.exp;
        log_ns = timed "transcend.log" x Transcend.log;
        pow_rat_ns = timed "transcend.pow_rat" x (fun i -> Transcend.pow_rat i third);
        mul_ns = timed "interval.mul" xy (fun (a, b) -> Interval.mul a b);
        div_rel_ns = timed "interval.div_rel" xy (fun (a, b) -> Interval.div_rel a b);
      }
  end
