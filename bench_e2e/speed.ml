(* The machine's speed while the benchmark ran, read from a fixed probe.

   The reference machine is a virtual machine shared with other tenants.
   The same Table I pass took 3.6 s in one minute and 6.5 s a few minutes
   later, in CPU time as well as elapsed time: neighbours contend for the
   core and its caches, and the guest sees no steal. No length of run
   averages that away, because the slow and fast spells last minutes.

   So every timing is read against the speed the machine had while it was
   taken. The probe is a small loop of the benchmark's own: outward-rounded
   interval products and sums over fixed boxes, the instruction mix of the
   verifier's inner loop, kept in registers (it allocates nothing, so the
   library's heap cannot slow it) and calling nothing in the library (so a
   change to the library cannot move it). The benchmark runs it right
   before and after each unit of work, and reports

     reference seconds = seconds x [ref_s] / probe seconds

   the time the work would take at the speed at which the probe takes
   [ref_s]. Over 59 consecutive tape passes the probes tracked the pass
   time with correlation 0.89, and the medians of five passes, which spread
   17-20% in raw CPU time, spread 4-5% in reference seconds. *)

(* Probe seconds that define the reference speed: about what one probe
   takes on the reference machine. *)
let ref_s = 1e-3

(* 20,480 steps of z := z * [0.5, 0.75] + x * x over 64 boxes x, each
   operation rounded outward by one ulp. *)
let kernel () =
  let acc = ref 0. in
  for r = 1 to 40 do
    for b = 0 to 63 do
      let xl = float_of_int b /. 64. in
      let xh = (float_of_int (b + 1) /. 64.) +. (float_of_int r *. 1e-9) in
      let zl = ref xl and zh = ref xh in
      for _ = 1 to 8 do
        let p1 = !zl *. 0.5 and p2 = !zl *. 0.75 and p3 = !zh *. 0.5 and p4 = !zh *. 0.75 in
        let ml = Float.pred (Float.min (Float.min p1 p2) (Float.min p3 p4)) in
        let mh = Float.succ (Float.max (Float.max p1 p2) (Float.max p3 p4)) in
        (* x * x; x >= 0, so the product xh * xl adds nothing *)
        let q1 = xl *. xl and q2 = xl *. xh and q4 = xh *. xh in
        let sl = Float.pred (Float.min (Float.min q1 q2) q4) in
        let sh = Float.succ (Float.max (Float.max q1 q2) q4) in
        zl := Float.pred (ml +. sl);
        zh := Float.succ (mh +. sh)
      done;
      acc := !acc +. !zh
    done
  done;
  !acc

(* One probe: its CPU seconds and its elapsed seconds. *)
let probe () =
  let c0 = Stats.cpu_s () and t0 = Stats.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  (Stats.cpu_s () -. c0, Stats.secs_since t0)

let probe_cpu () = fst (probe ())
let probe_elapsed () = snd (probe ())

(* [ref_s] over the median probe: 1 at the reference speed, below 1 when
   the machine is slower. *)
let of_probes probes = ref_s /. Option.get (Stats.median probes)

(* The speed right now, from the elapsed time of three probes. *)
let current () = of_probes (List.init 3 (fun _ -> probe_elapsed ()))
