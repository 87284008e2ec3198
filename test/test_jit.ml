open Testutil

(* The JIT-compiled contraction kernel (lib/jit).

   The headline property mirrors the itape suite one level down: the
   compiled C kernel must reproduce the interpreted tape pipeline — HC4
   dirty-agenda contraction, the optional mean-value-form stage, and the
   per-atom statuses — bit for bit, for any formula, box and round budget,
   called on one box or on an array of boxes, from one domain or from
   four at once. On top of that sit the operational guarantees: the
   solver makes one single-box native call per expansion, a missing/broken
   C compiler degrades to [Error] (never an exception), and the
   content-addressed cache serves a second plan without invoking the
   compiler. *)

(* ------------------------------------------------------------------ *)
(* Harness *)

let temp_dir () =
  let d = Filename.temp_file "xcvjit-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* One compile cache for the whole suite: across the 1- and 2-worker
   runtest passes the same generated sources recur, so most plans are
   cache hits and the suite stays fast. *)
let cache_dir =
  lazy
    (let d = Filename.concat (Filename.get_temp_dir_name ()) "xcvjit-suite" in
     (match Unix.mkdir d 0o700 with
     | () -> ()
     | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

let wall name =
  match
    List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.wall_counters
  with
  | Some v -> v
  | None -> 0

let with_env key value f =
  let old = Sys.getenv_opt key in
  Unix.putenv key value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv key (Option.value old ~default:""))

(* ------------------------------------------------------------------ *)
(* Generators: test_itape's shapes plus the constructs the plain expr_gen
   never emits — rational powers, logs and Lambert W — so every opcode of
   the emitted tables is crossed. *)

let interval_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun a b -> Interval.make (Float.min a b) (Float.max a b))
          (float_range (-3.0) 3.0) (float_range (-3.0) 3.0);
        return (Interval.point 0.0);
        map (fun x -> Interval.point x) (float_range (-2.0) 2.0);
        map (fun x -> Interval.make 0.0 x) (float_range 0.0 2.0);
      ])

let box_gen =
  QCheck2.Gen.(
    map2
      (fun ix iy -> Box.make [ ("x", ix); ("y", iy) ])
      interval_gen interval_gen)

let rat_gen =
  QCheck2.Gen.(
    map2
      (fun n d -> Rat.make n d)
      (int_range (-7) 7)
      (int_range 1 5))

let atom_expr_gen =
  QCheck2.Gen.(
    let pw =
      map3
        (fun g b d -> Expr.piecewise [ (Expr.guard_le g, b) ] d)
        expr_gen expr_gen expr_gen
    in
    let enriched =
      oneof
        [
          map2 (fun e r -> Expr.powr (Expr.abs e) r) expr_gen rat_gen;
          map (fun e -> Expr.sqrt (Expr.abs e)) expr_gen;
          map
            (fun e -> Expr.log (Expr.add (Expr.abs e) (Expr.const 0.5)))
            expr_gen;
          map (fun e -> Expr.lambert_w (Expr.mul (Expr.const 0.25) e)) expr_gen;
          map2 Expr.pow expr_gen expr_gen;
        ]
    in
    frequency [ (3, expr_gen); (2, enriched); (1, pw) ])

let rel_gen =
  QCheck2.Gen.oneofl [ Form.Le0; Form.Lt0; Form.Ge0; Form.Gt0; Form.Eq0 ]

let atom_gen =
  QCheck2.Gen.map2 (fun e rel -> Form.atom e rel) atom_expr_gen rel_gen

let formula_gen = QCheck2.Gen.(list_size (int_range 1 3) atom_gen)

(* ------------------------------------------------------------------ *)
(* Interpreted reference: exactly the pipeline Icp runs when no native
   kernel is installed (see Icp.solve_real). *)

let interpreted ~mvf ~rounds compiled box =
  let counters = Hc4.counters () in
  let result =
    match Hc4.contract_tape ~counters compiled box ~rounds with
    | Hc4.Infeasible -> Hc4.Infeasible
    | Hc4.Contracted b ->
        if mvf then Hc4.mean_value_tape compiled b else Hc4.Contracted b
  in
  let statuses =
    match result with
    | Hc4.Infeasible -> [||]
    | Hc4.Contracted b -> Array.of_list (Hc4.statuses_on compiled b)
  in
  (result, statuses, counters.Hc4.revise_calls, counters.Hc4.sweeps)

let same_result a b =
  match (a, b) with
  | Hc4.Infeasible, Hc4.Infeasible -> true
  | Hc4.Contracted b1, Hc4.Contracted b2 -> Box.equal b1 b2
  | _ -> false

let pp_status = function
  | `Holds -> "Holds"
  | `Fails -> "Fails"
  | `Unknown -> "Unknown"

let check_outcome label (outcome : Icp.native_outcome) reference =
  let ref_result, ref_statuses, ref_revise, ref_sweeps = reference in
  if not (same_result outcome.Icp.n_result ref_result) then
    QCheck2.Test.fail_reportf "%s: contracted boxes differ" label;
  (match ref_result with
  | Hc4.Infeasible -> ()
  | Hc4.Contracted _ ->
      if outcome.Icp.n_statuses <> ref_statuses then
        QCheck2.Test.fail_reportf "%s: statuses differ (jit %s, tape %s)"
          label
          (String.concat ","
             (Array.to_list (Array.map pp_status outcome.Icp.n_statuses)))
          (String.concat ","
             (Array.to_list (Array.map pp_status ref_statuses))));
  if outcome.Icp.n_revise <> ref_revise then
    QCheck2.Test.fail_reportf "%s: revise calls differ (jit %d, tape %d)"
      label outcome.Icp.n_revise ref_revise;
  if outcome.Icp.n_sweeps <> ref_sweeps then
    QCheck2.Test.fail_reportf "%s: sweeps differ (jit %d, tape %d)" label
      outcome.Icp.n_sweeps ref_sweeps;
  true

(* ------------------------------------------------------------------ *)
(* Bit-identity: JIT pipeline = interpreted pipeline *)

(* One compiled plan checked on many boxes, both one box at a time and as
   one array: 25 formulas x 20 boxes = 500 box-level identity checks per
   run. Skipped (vacuously true) when no C compiler is present — the
   degradation test below still runs. *)
let prop_jit_identity =
  qcheck ~count:25 "jit = interpreted tape (500 boxes: status, box, counters)"
    QCheck2.Gen.(
      quad formula_gen
        (list_size (return 20) box_gen)
        (int_range 1 4) bool)
    (fun (formula, boxes, rounds, mvf) ->
      (not (Jit.available ()))
      ||
      let vars = [ "x"; "y" ] in
      let compiled = Hc4.compile ~vars formula in
      match
        Jit.plan ~cache_dir:(Lazy.force cache_dir) ~mvf ~rounds compiled
      with
      | Error e -> QCheck2.Test.fail_reportf "plan failed: %s" e
      | Ok plan ->
          let boxes = Array.of_list boxes in
          let refs =
            Array.map (interpreted ~mvf ~rounds compiled) boxes
          in
          (* single-box calls *)
          Array.iteri
            (fun i box ->
              let o = (Jit.contract_batch plan [| box |]).(0) in
              ignore (check_outcome (Printf.sprintf "box %d" i) o refs.(i)))
            boxes;
          (* the array form must equal the single-box calls *)
          Array.iteri
            (fun i o ->
              ignore
                (check_outcome (Printf.sprintf "array box %d" i) o refs.(i)))
            (Jit.contract_batch plan boxes);
          true)

(* A fixed formula crossing the certified exp, rational-pow and Lambert W
   kernels in one plan. *)
let exp_pow_w_compiled () =
  Hc4.compile ~vars:[ "x"; "y" ]
    [
      Form.atom
        (Expr.sub
           (Expr.exp (Expr.mul (Expr.const 0.5) (Expr.var "x")))
           (Expr.powr (Expr.abs (Expr.var "y")) (Rat.make 3 2)))
        Form.Le0;
      Form.atom (Expr.lambert_w (Expr.var "x")) Form.Ge0;
    ]

(* The fixed formula on a box that straddles W's zero. *)
let test_identity_fixed_case () =
  if Jit.available () then begin
    let compiled = exp_pow_w_compiled () in
    match
      Jit.plan ~cache_dir:(Lazy.force cache_dir) ~mvf:true ~rounds:3 compiled
    with
    | Error e -> Alcotest.failf "plan failed: %s" e
    | Ok plan ->
        let box =
          Box.make
            [ ("x", Interval.make (-0.25) 2.0); ("y", Interval.make 0.0 1.5) ]
        in
        ignore
          (check_outcome "fixed case"
             (Jit.contract_batch plan [| box |]).(0)
             (interpreted ~mvf:true ~rounds:3 compiled box))
  end

(* Division by a nonpositive divisor with a zero end, in C as in OCaml:
   on x in [-1, -eta] the bounds of x^1 are [-1 - ulp, -0], and 1/x must
   reach -inf. Taking the -0 for +0 made 1/x [-1, +inf] and pruned the
   box as infeasible for 1/x <= -2, though x = -1/4 satisfies it. *)
let test_identity_zero_end_divisor () =
  if Jit.available () then begin
    let formula =
      [
        Form.atom
          (Expr.add (Expr.inv (Expr.var "x")) (Expr.int 2))
          Form.Le0;
      ]
    in
    let compiled = Hc4.compile ~vars:[ "x"; "y" ] formula in
    match
      Jit.plan ~cache_dir:(Lazy.force cache_dir) ~mvf:true ~rounds:3 compiled
    with
    | Error e -> Alcotest.failf "plan failed: %s" e
    | Ok plan ->
        List.iter
          (fun x_hi ->
            let box =
              Box.make
                [ ("x", Interval.make (-1.0) x_hi); ("y", Interval.make 0.0 1.0) ]
            in
            let reference = interpreted ~mvf:true ~rounds:3 compiled box in
            ignore
              (check_outcome
                 (Printf.sprintf "x in [-1, %h]" x_hi)
                 (Jit.contract_batch plan [| box |]).(0)
                 reference);
            let result, _, _, _ = reference in
            match result with
            | Hc4.Infeasible ->
                Alcotest.failf "x in [-1, %h]: pruned a box with models" x_hi
            | Hc4.Contracted b ->
                List.iter
                  (fun x ->
                    check_true
                      (Printf.sprintf "model x = %h kept" x)
                      (Interval.mem x (Box.get b "x")))
                  [ -0.5; -0.25; -1e-3 ])
          [ -0x1p-1074; -0.0; 0.0 ]
  end

(* The atan backward pass past fl(pi/2), in C as in OCaml: on x in
   [3e15, 5e15] the forward enclosure of atan x ends at the float just past
   pi/2, whose tan is about -6e15. Taking that for the upper end of the
   inverse image pruned the box as infeasible for atan x <= 2, though every
   x satisfies it. *)
let test_identity_atan_past_half_pi () =
  if Jit.available () then begin
    let formula =
      [ Form.atom (Expr.sub (Expr.atan (Expr.var "x")) (Expr.int 2)) Form.Le0 ]
    in
    let compiled = Hc4.compile ~vars:[ "x"; "y" ] formula in
    match
      Jit.plan ~cache_dir:(Lazy.force cache_dir) ~mvf:true ~rounds:3 compiled
    with
    | Error e -> Alcotest.failf "plan failed: %s" e
    | Ok plan ->
        let box =
          Box.make
            [ ("x", Interval.make 3e15 5e15); ("y", Interval.make 0.0 1.0) ]
        in
        let reference = interpreted ~mvf:true ~rounds:3 compiled box in
        ignore
          (check_outcome "x in [3e15, 5e15]"
             (Jit.contract_batch plan [| box |]).(0)
             reference);
        let result, _, _, _ = reference in
        (match result with
        | Hc4.Infeasible -> Alcotest.fail "pruned a box whose every x is a model"
        | Hc4.Contracted b ->
            check_true "model x = 4e15 kept" (Interval.mem 4e15 (Box.get b "x")))
  end

(* ------------------------------------------------------------------ *)
(* Degradation: compiler failures are an [Error], counted, never fatal *)

let sample_compiled () =
  Hc4.compile ~vars:[ "x"; "y" ]
    [
      Form.atom
        (Expr.sub (Expr.mul (Expr.var "x") (Expr.var "y")) (Expr.int 1))
        Form.Le0;
    ]

let test_degrades_on_broken_cc () =
  with_env "XCV_CC" "/bin/false" @@ fun () ->
  let before = wall "jit.fallbacks" in
  let dir = temp_dir () in
  (match Jit.plan ~cache_dir:dir ~mvf:false ~rounds:2 (sample_compiled ()) with
  | Ok _ -> Alcotest.fail "plan succeeded under XCV_CC=/bin/false"
  | Error msg ->
      check_true "error mentions the compiler"
        (contains_sub msg "false" || contains_sub msg "exited"));
  check_true "fallback counted" (wall "jit.fallbacks" > before)

let test_degrades_on_missing_cc () =
  with_env "XCV_CC" "/nonexistent/xcv-no-such-cc" @@ fun () ->
  let before = wall "jit.fallbacks" in
  (match Jit.plan ~mvf:false ~rounds:2 (sample_compiled ()) with
  | Ok _ -> Alcotest.fail "plan succeeded under a nonexistent XCV_CC"
  | Error _ -> ());
  check_true "fallback counted" (wall "jit.fallbacks" > before)

(* ------------------------------------------------------------------ *)
(* Compile cache: the second plan of the same source never invokes cc *)

let test_cache_hit () =
  if Jit.available () then begin
    let dir = temp_dir () in
    let compiled = sample_compiled () in
    let plan1 = Jit.plan ~cache_dir:dir ~mvf:true ~rounds:2 compiled in
    (match plan1 with
    | Error e -> Alcotest.failf "first plan failed: %s" e
    | Ok _ -> ());
    let compiles = wall "jit.compiles" in
    let hits = wall "jit.cache_hits" in
    (match Jit.plan ~cache_dir:dir ~mvf:true ~rounds:2 compiled with
    | Error e -> Alcotest.failf "second plan failed: %s" e
    | Ok _ -> ());
    Alcotest.(check int) "no recompilation" compiles (wall "jit.compiles");
    Alcotest.(check int) "cache hit counted" (hits + 1) (wall "jit.cache_hits");
    (* a different config is a different key: must compile again *)
    (match Jit.plan ~cache_dir:dir ~mvf:true ~rounds:3 compiled with
    | Error e -> Alcotest.failf "third plan failed: %s" e
    | Ok _ -> ());
    Alcotest.(check int) "config change recompiles" (compiles + 1)
      (wall "jit.compiles")
  end

let test_cache_key_stable () =
  let compiled = sample_compiled () in
  let src () = Jit.render_source ~mvf:true ~rounds:2 compiled in
  Alcotest.(check string) "render is deterministic" (src ()) (src ());
  let k1 = Jit.cache_key (src ()) in
  let k2 = Jit.cache_key (Jit.render_source ~mvf:false ~rounds:2 compiled) in
  check_true "mvf flag changes the key" (k1 <> k2)

(* ------------------------------------------------------------------ *)
(* Workspace hygiene *)

let test_sweeps_stale_workspaces () =
  let dir = temp_dir () in
  (* a stale workspace of a dead pid, and one of a live pid (ours) *)
  let stale = Filename.concat dir "xcvjit-999999999-00002a" in
  let live =
    Filename.concat dir (Printf.sprintf "xcvjit-%d-00002a" (Unix.getpid ()))
  in
  Unix.mkdir stale 0o700;
  Unix.mkdir live 0o700;
  let oc = open_out (Filename.concat stale "k.c") in
  output_string oc "/* stale */";
  close_out oc;
  Jit.sweep_stale_workspaces ~dir ();
  check_false "dead pid's workspace removed" (Sys.file_exists stale);
  check_true "live pid's workspace kept" (Sys.file_exists live);
  check_true "unrelated entries kept" (Sys.file_exists dir)

(* ------------------------------------------------------------------ *)
(* Verifier-level paint-log identity: Algorithm 1 with the JIT kernel
   installed must paint the same log, byte for byte, as the interpreted
   tape — at 1 worker and at 4. *)

let region_fingerprint (r : Outcome.region) =
  let dims =
    String.concat ","
      (List.map
         (fun v ->
           let iv = Box.get r.Outcome.box v in
           Printf.sprintf "%s=[%h,%h]" v (Interval.inf iv) (Interval.sup iv))
         (Box.vars r.Outcome.box))
  in
  Printf.sprintf "%d|%s|%s" r.Outcome.depth
    (Outcome.status_name r.Outcome.status)
    dims

let paint_config ~jit workers =
  {
    Verify.default_config with
    Verify.threshold = 0.3;
    solver =
      { Icp.default_config with fuel = 60; delta = 1e-2; contractor_rounds = 2 };
    workers;
    jit;
    jit_cache = (if jit then Some (Lazy.force cache_dir) else None);
  }

let test_paint_log_identity () =
  if Jit.available () then begin
    (* a unit circle warped by an arctangent so the kernel's
       transcendental path is on the verdict-critical line *)
    let open Expr in
    let psi =
      Form.atom
        (sub
           (add (sqr (var "x")) (sqr (var "y")))
           (add one (mul (const 0.25) (atan (mul (const 3.0) (var "x"))))))
        Form.Ge0
    in
    let domain =
      Box.make
        [
          ("x", Interval.make (-1.5) 1.5);
          ("y", Interval.make (-1.5) 1.5);
        ]
    in
    let paint ~jit workers =
      let o =
        Verify.run_custom
          ~config:(paint_config ~jit workers)
          ~dfa_label:"jit" ~condition_label:"paint" ~domain ~psi ()
      in
      ( List.map region_fingerprint o.Outcome.regions,
        { o.Outcome.stats with Outcome.elapsed = 0.0 } )
    in
    let ref_log, ref_stats = paint ~jit:false 1 in
    check_true "reference log is non-trivial" (List.length ref_log > 10);
    List.iter
      (fun (jit, workers) ->
        let log, stats = paint ~jit workers in
        Alcotest.(check (list string))
          (Printf.sprintf "paint log (jit=%b, workers=%d)" jit workers)
          ref_log log;
        check_true
          (Printf.sprintf "stats (jit=%b, workers=%d)" jit workers)
          (stats = ref_stats))
      [ (false, 4); (true, 1); (true, 4) ]
  end

(* ------------------------------------------------------------------ *)
(* One box per native call: the solver hands the kernel the box it
   expands and nothing else, so a pair's run makes exactly one native call
   per expansion, each carrying one box. Faulted solver calls neither
   expand nor call the kernel, so this holds under the @jit fault rate. *)

let test_one_box_per_call () =
  if Jit.available () then begin
    let config =
      {
        Verify.default_config with
        Verify.threshold = 0.625;
        solver =
          {
            Icp.default_config with
            fuel = 5;
            delta = 1e-3;
            contractor_rounds = 3;
          };
        workers = test_workers;
        jit = true;
        jit_cache = Some (Lazy.force cache_dir);
      }
    in
    let prev = Obs.Metrics.install (Obs.Metrics.fresh ()) in
    let snap =
      Fun.protect
        ~finally:(fun () -> ignore (Obs.Metrics.install prev))
        (fun () ->
          match
            Verify.run_pair ~config (Registry.find "pbe") Conditions.Ec1
          with
          | Some _ -> Obs.Metrics.snapshot ()
          | None -> Alcotest.fail "PBE/EC1 must be applicable")
    in
    let counter k = List.assoc k snap.Obs.Metrics.counters in
    let expansions = counter "icp.expansions" in
    check_true "the pair expands boxes" (expansions > 0);
    Alcotest.(check int)
      "one native call per expansion" expansions (counter "jit.batches")
  end

(* ------------------------------------------------------------------ *)
(* One plan, four domains at once: each contracts its own boxes while the
   others run theirs and collect, with full major collections between
   rounds. The stub copies a box into C memory before it releases the
   runtime lock and writes the results back after retaking it, and the
   plan stays loaded for the whole call, so every outcome must equal the
   interpreted pipeline bit for bit. *)

let test_concurrent_domains () =
  if Jit.available () then begin
    let compiled = exp_pow_w_compiled () in
    match
      Jit.plan ~cache_dir:(Lazy.force cache_dir) ~mvf:true ~rounds:3 compiled
    with
    | Error e -> Alcotest.failf "plan failed: %s" e
    | Ok plan ->
        let rng = Random.State.make [| 20 |] in
        let bounds lo hi =
          let a = lo +. Random.State.float rng (hi -. lo)
          and b = lo +. Random.State.float rng (hi -. lo) in
          Interval.make (Float.min a b) (Float.max a b)
        in
        let boxes =
          Array.init 4 (fun _ ->
              Array.init 500 (fun _ ->
                  Box.make
                    [ ("x", bounds (-0.5) 2.0); ("y", bounds (-1.5) 1.5) ]))
        in
        let refs =
          Array.map (Array.map (interpreted ~mvf:true ~rounds:3 compiled)) boxes
        in
        for round = 1 to 3 do
          (* a start barrier, so the four domains' calls overlap *)
          let waiting = Atomic.make (Array.length boxes) in
          let domains =
            Array.map
              (fun mine ->
                Domain.spawn (fun () ->
                    Atomic.decr waiting;
                    while Atomic.get waiting > 0 do
                      Domain.cpu_relax ()
                    done;
                    Array.map (Jit.native_batch plan) mine))
              boxes
          in
          Array.iteri
            (fun w d ->
              Array.iteri
                (fun i o ->
                  ignore
                    (check_outcome
                       (Printf.sprintf "round %d, domain %d, box %d" round w i)
                       o refs.(w).(i)))
                (Domain.join d))
            domains;
          Gc.full_major ()
        done
  end

let suite =
  [
    prop_jit_identity;
    case "identity on a fixed exp/pow/W case" test_identity_fixed_case;
    case "identity on a divisor with a zero end"
      test_identity_zero_end_divisor;
    case "identity on atan past fl(pi/2)" test_identity_atan_past_half_pi;
    case "degrades to Error on a broken compiler" test_degrades_on_broken_cc;
    case "degrades to Error on a missing compiler" test_degrades_on_missing_cc;
    case "compile cache serves the second plan" test_cache_hit;
    case "cache key is deterministic and config-sensitive" test_cache_key_stable;
    case "stale workspaces of dead pids are swept" test_sweeps_stale_workspaces;
    case "paint log is byte-identical with the JIT on, at 1 and 4 workers"
      test_paint_log_identity;
    case "a solve makes one single-box native call per expansion"
      test_one_box_per_call;
    case "one plan on four domains at once matches the tape"
      test_concurrent_domains;
  ]
