(* The serve-mix workload: the verification daemon (Daemon.run) in a child
   process of this executable, driven over its Unix socket by one client
   connection running an open loop — queries go out on a fixed schedule
   whether or not earlier ones were answered, and each query's latency is
   timed from when it was due, so a stall shows up in the queries queued
   behind it.

   The stream is a fixed multiset in a seeded order. One query in ten is a
   write: a pair with a unique threshold nonce (t - k * 1e-9), which misses
   the verdict cache, runs a solve and commits the verdict with an fsync;
   each of the 22 pairs is written equally often, in a fixed cycle whose
   start the seed picks. The rest are reads of the 22 keys set-up warmed,
   allocated across pairs by a Zipf law over canonical pair order and
   shuffled by the seed. Seeds change the order, not the work, so runs at
   different seeds stay comparable. SCAN is left out: its writes take
   seconds and would turn the mix into a SCAN benchmark.

   The tail latency is reported by the traced run, not gated: reads that
   arrive during a write wait for it, so the 90th percentile magnifies the
   machine's drift in solve speed and spread 26-33% between runs on the
   reference machine at every offered load tried (15-80 queries/s). *)

let dfas = [ "pbe"; "lyp"; "am05"; "vwn_rpa" ]

let pairs () =
  List.concat_map
    (fun name ->
      let dfa = Registry.find name in
      List.map (fun c -> (dfa, c)) (Conditions.applicable dfa))
    dfas

(* Pinned offered load: the daemon is about 30% busy on the reference
   machine, so the backlog drains between writes. *)
let rate_qps ~smoke = if smoke then 5. else 60.
let write_every = 10

(* Writes per run: a multiple of the pair count, so every pair is written
   equally often (smoke runs are too short for that). *)
let writes ~n ~npairs =
  let w = n / write_every in
  if w < npairs then max 1 w else w / npairs * npairs

let late_ms = 1000.
let zipf_s = 1.0

let verify_config ~smoke =
  Ctx.verify_config ~smoke ~jit:false ~jit_cache:None

(* The child: serve until SIGTERM. *)
let serve_child ~socket ~cache_dir ~smoke =
  Daemon.run
    {
      Daemon.engine =
        {
          Engine.cache_dir;
          max_inflight = 64;
          default_deadline_ms = None;
          fuel_quota = None;
          verify = verify_config ~smoke;
          io_faults = None;
          kill_after = None;
        };
      socket_path = socket;
      progress_interval_ms = 0;
    }

(* ---- the query stream ------------------------------------------------ *)

type query = { pair : int; nonce : int option (** k for a write *) }

(* Largest-remainder allocation of [total] reads over [n] pairs with Zipf
   weights 1 / (rank + 1)^s. *)
let zipf_counts ~n ~total =
  let w = Array.init n (fun r -> 1. /. Float.pow (float_of_int (r + 1)) zipf_s) in
  let sw = Array.fold_left ( +. ) 0. w in
  let exact = Array.map (fun x -> x /. sw *. float_of_int total) w in
  let counts = Array.map int_of_float exact in
  let left = total - Array.fold_left ( + ) 0 counts in
  let by_rem =
    List.sort
      (fun (a, ra) (b, rb) -> match Float.compare rb ra with 0 -> compare a b | c -> c)
      (List.init n (fun i -> (i, exact.(i) -. float_of_int counts.(i))))
  in
  List.iteri (fun j (i, _) -> if j < left then counts.(i) <- counts.(i) + 1) by_rem;
  counts

(* Write slots cycle through the pairs with a fixed stride coprime to their
   count, so the expensive writes (PBE/ec3's take over 0.1 s) stay evenly
   spaced and the queueing behind them does not hinge on the seed. *)
let write_stride npairs =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec go s = if gcd s npairs = 1 then s else go (s + 1) in
  go 7

let stream ctx ~n ~npairs ~writes =
  let rng = Ctx.rng ctx 3 in
  let stride = write_stride npairs and start = Random.State.int rng npairs in
  let write_pairs = Array.init writes (fun j -> (start + j) * stride mod npairs) in
  let counts = zipf_counts ~n:npairs ~total:(n - writes) in
  let reads =
    Ctx.shuffle rng
      (Array.concat (Array.to_list (Array.mapi (fun p c -> Array.make c p) counts)))
  in
  let r = ref 0 and w = ref 0 in
  Array.init n (fun i ->
      if (i + 1) * writes / n > i * writes / n then begin
        incr w;
        { pair = write_pairs.(!w - 1); nonce = Some !w }
      end
      else begin
        incr r;
        { pair = reads.(!r - 1); nonce = None }
      end)

let nonce_threshold ~smoke k = Ctx.threshold ~smoke -. (float_of_int k *. 1e-9)

(* ---- daemon lifecycle ------------------------------------------------ *)

let connect ~socket ~pid =
  let t0 = Stats.now_ns () in
  let rec go () =
    match Protocol.connect socket with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve child exited during start-up");
        if Stats.secs_since t0 > 60. then failwith "serve child did not listen";
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* Spawn the daemon and wait for its first Pong. *)
let start ~socket ~cache_dir ~smoke =
  let pid =
    Proc.spawn_self
      ([ "serve-child"; socket; cache_dir ] @ if smoke then [ "--smoke" ] else [])
  in
  match connect ~socket ~pid with
  | exception e ->
      Proc.stop_pid pid;
      raise e
  | fd -> (
      match Protocol.call fd Protocol.Ping with
      | [ Protocol.Pong ] -> (pid, fd)
      | _ ->
          Unix.close fd;
          Proc.stop_pid pid;
          failwith "serve child answered Ping without Pong")

let verify_request ~smoke ~id (dfa, cond) nonce =
  Protocol.Verify
    {
      id;
      dfa = dfa.Registry.name;
      condition = Conditions.name cond;
      opts =
        {
          Protocol.no_opts with
          threshold = Option.map (nonce_threshold ~smoke) nonce;
        };
    }

(* ---- the open loop ------------------------------------------------- *)

type window = {
  queries : query array;
  rate : float;
  due : int -> int;  (** scheduled send time of query [i], ns *)
  sent : int array;
  recv : int array;  (** 0 when unanswered *)
  answer : Protocol.response option array;
  backlog_max : int;  (** most queries sent and not yet answered *)
  probes : float list;  (** CPU seconds of the speed probes *)
}

(* A speed probe runs only when nothing is in flight and the next send is
   at least this far off, so it can delay neither a send nor an answer. *)
let probe_gap_ns = 5_000_000

(* Send [payloads] on schedule over [fd], reading answers in between and
   probing the machine's speed in idle gaps (one probe per gap), then drain
   for at most 60 s. Answers are parsed after the loop so parsing never
   delays a send. *)
let drive ~fd ~rate queries payloads =
  let n = Array.length queries in
  let period_ns = 1e9 /. rate in
  let start_ns = Stats.now_ns () + 20_000_000 in
  let due i = start_ns + int_of_float (float_of_int i *. period_ns) in
  let sent = Array.make n 0 and frames = ref [] in
  let outstanding = ref 0 and backlog_max = ref 0 and next = ref 0 in
  let probes = ref [] and probed = ref (-1) in
  let drain_deadline = ref max_int in
  Spans.with_span "window" (fun () ->
      while (!next < n || !outstanding > 0) && Stats.now_ns () < !drain_deadline do
        let now = Stats.now_ns () in
        if !next < n && now >= due !next then begin
          Protocol.write_frame fd payloads.(!next);
          sent.(!next) <- Stats.now_ns ();
          incr next;
          incr outstanding;
          backlog_max := max !backlog_max !outstanding;
          if !next = n then drain_deadline := Stats.now_ns () + 60_000_000_000
        end
        else if !outstanding = 0 && !next < n && !probed < !next && due !next - now > probe_gap_ns
        then begin
          probed := !next;
          probes := Speed.probe_cpu () :: !probes
        end
        else
          let until = if !next < n then due !next else !drain_deadline in
          let timeout = Float.max 0. (float_of_int (until - now) /. 1e9) in
          match Unix.select [ fd ] [] [] timeout with
          | _ :: _, _, _ -> (
              match Protocol.read_frame fd with
              | Some payload ->
                  frames := (Stats.now_ns (), payload) :: !frames;
                  decr outstanding
              | None -> failwith "serve child closed the connection")
          | [], _, _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done);
  let recv = Array.make n 0 and answer = Array.make n None in
  List.iter
    (fun (t, payload) ->
      match Protocol.response_of_string payload with
      | resp -> (
          match Protocol.response_id resp with
          | Some id when id >= 1 && id <= n && answer.(id - 1) = None ->
              recv.(id - 1) <- t;
              answer.(id - 1) <- Some resp
          | _ -> ())
      | exception Parser.Parse_error _ -> ())
    !frames;
  { queries; rate; due; sent; recv; answer; backlog_max = !backlog_max; probes = !probes }

let speed w = Speed.of_probes w.probes

let answered w = List.filter (fun i -> w.answer.(i) <> None) (List.init (Array.length w.queries) Fun.id)
let latency_ms w i = float_of_int (w.recv.(i) - w.due i) /. 1e6

let is_read_hit w i =
  match w.answer.(i) with Some (Protocol.Result { cached = true; _ }) -> true | _ -> false

(* FIFO service estimate: the daemon runs one query at a time in arrival
   order, so a query's service time is its completion minus the later of
   its send and the previous completion; the gap before that is its wait.
   Seconds, 0 for unanswered queries. *)
let service_and_wait w =
  let n = Array.length w.queries in
  let service = Array.make n 0. and wait = Array.make n 0. in
  let prev_done = ref 0 in
  List.iter
    (fun i ->
      service.(i) <- float_of_int (w.recv.(i) - max w.sent.(i) !prev_done) /. 1e9;
      wait.(i) <- float_of_int (max 0 (!prev_done - w.sent.(i))) /. 1e9;
      prev_done := max !prev_done w.recv.(i))
    (answered w);
  (service, wait)

(* ---- metrics --------------------------------------------------------- *)

(* Times are reference seconds (see speed.ml): the daemon's CPU time over
   the window read against the probes' CPU time. Query latency is not among
   them: it is mostly the host waking idle virtual CPUs, and with the same
   code its median went from 1.4 to 3.2 ms within ten minutes while the
   daemon's CPU time spread 3%; the traced run reports it as latency.p50_ms. *)
let end_to_end ~setup_s ~rss ~cpu_s ~ok w =
  let cpu_s = cpu_s *. speed w in
  let fresh_expansions =
    Array.fold_left
      (fun acc a ->
        match a with
        | Some (Protocol.Result { outcome; cached = false; _ }) ->
            acc + outcome.Outcome.stats.Outcome.total_expansions
        | _ -> acc)
      0 w.answer
  in
  let good = List.filter (fun i -> ok.(i) && latency_ms w i <= late_ms) (answered w) in
  let last = Array.fold_left max (w.due 0) w.recv in
  [
    ("setup_s", Some setup_s);
    ("cpu_s", Some cpu_s);
    ("expansions_per_cpu_s", Some (float_of_int fresh_expansions /. cpu_s));
    ("peak_rss_mb", rss);
    ( "goodput_qps",
      Some (float_of_int (List.length good) /. (float_of_int (last - w.due 0) /. 1e9)) );
  ]

(* Replays for the traced run: Ping round trips on the live daemon, the
   cache layer on a copy of the daemon's cache directory, and the in-engine
   cost of a read (encode, hash the key, serialize the reply). *)
let per_layer ~smoke ~fd ~dir ~cache_dir ~pairs ~warm ~stats w =
  let or0 = Option.value ~default:0. in
  let ms xs = List.map (fun s -> s *. 1000.) xs in
  let n = Array.length w.queries in
  let service, wait = service_and_wait w in
  let busy = Array.fold_left ( +. ) 0. service in
  let schedule_s = float_of_int n /. w.rate in
  let pick pred = List.filter_map (fun i -> if pred i then Some service.(i) else None) (answered w) in
  let writes = pick (fun i -> w.queries.(i).nonce <> None) in
  let reads = pick (is_read_hit w) in
  let ping_us =
    Spans.with_span "protocol.ping" (fun () ->
        List.init 200 (fun _ -> snd (Stats.time (fun () -> Protocol.call fd Protocol.Ping)) *. 1e6)
        |> Stats.median |> or0)
  in
  let copy = Filename.concat dir "cache-copy" in
  Proc.copy_dir cache_dir copy;
  let cache = Verdict_cache.open_dir copy in
  let cfg = verify_config ~smoke in
  let problems = Array.map (fun (d, c) -> Option.get (Encoder.encode d c)) pairs in
  let keys =
    Array.map
      (fun p -> (Verify.config_hash cfg, Verify.formula_hash [ p ], p.Encoder.domain))
      problems
  in
  let find (config_hash, formula_hash, box) =
    Verdict_cache.find cache ~config_hash ~formula_hash ~box
  in
  Array.iter (fun k -> ignore (find k)) keys;
  let find_us =
    Spans.with_span "cache.find" (fun () ->
        Layers.ns_per_call ~budget_ns:20_000_000 keys find /. 1e3)
  in
  let put_cfg = { cfg with Verify.threshold = cfg.Verify.threshold -. 1e-6 } in
  let put_ms =
    Spans.with_span "cache.put" (fun () ->
        List.init (min 10 (Array.length pairs)) (fun i ->
            snd
              (Stats.time (fun () ->
                   Verdict_cache.put cache ~config_hash:(Verify.config_hash put_cfg)
                     ~formula_hash:(Verify.formula_hash [ problems.(i) ])
                     warm.(i)))
            *. 1000.)
        |> Stats.median |> or0)
  in
  let read_s =
    Array.mapi
      (fun i (d, c) ->
        let per f = Layers.ns_per_call [| () |] f /. 1e9 in
        per (fun () -> Encoder.encode d c)
        +. per (fun () -> (Verify.config_hash cfg, Verify.formula_hash [ problems.(i) ]))
        +. per (fun () ->
               Protocol.response_to_string
                 (Protocol.Result
                    { id = 1; cached = true; degraded = 0; partial = false; outcome = warm.(i) }))
        +. ((find_us +. ping_us) /. 1e6))
      pairs
  in
  (* layer time: the daemon's own solve time for writes, the replayed
     read cost for reads *)
  let model =
    List.fold_left
      (fun acc i ->
        match w.answer.(i) with
        | Some (Protocol.Result { cached = false; outcome; _ }) ->
            acc +. outcome.Outcome.stats.Outcome.elapsed
        | Some (Protocol.Result { cached = true; _ }) -> acc +. read_s.(w.queries.(i).pair)
        | _ -> acc)
      0. (answered w)
  in
  let encode_ms =
    snd (Stats.time (fun () -> Array.iter (fun (d, c) -> ignore (Encoder.encode d c)) pairs))
    *. 1000.
  in
  let lag_ms = List.init n (fun i -> float_of_int (w.sent.(i) - w.due i) /. 1e6) in
  let lat = List.map (latency_ms w) (answered w) in
  let spans = float_of_int (Spans.count ()) in
  let stat f = Option.fold ~none:0. ~some:(fun s -> float_of_int (f s)) stats in
  [
    ("latency.p50_ms", or0 (Stats.median lat));
    ("latency.p90_ms", or0 (Stats.percentile lat 0.9));
    ("encoder.encode_ms", encode_ms);
    ( "encoder.ops",
      Array.fold_left (fun a p -> a +. float_of_int (Encoder.operation_count p)) 0. problems );
    ( "service.hit_rate",
      Stats.ratio (float_of_int (List.length reads)) (float_of_int (List.length (answered w))) );
    ("service.hit_ms.p50", or0 (Stats.median (ms reads)));
    ("service.miss_ms.p50", or0 (Stats.median (ms writes)));
    ("service.miss_ms.max", Stats.max_of (0. :: ms writes));
    ("service.wait_ms.p50", or0 (Stats.median (ms (Array.to_list wait))));
    ("service.wait_ms.p90", or0 (Stats.percentile (ms (Array.to_list wait)) 0.9));
    ("service.busy_share", busy /. schedule_s);
    ("service.backlog_max", float_of_int w.backlog_max);
    ("service.cache_hits", stat (fun s -> s.Protocol.cache_hits));
    ("service.cache_misses", stat (fun s -> s.Protocol.cache_misses));
    ("cache.find_us", find_us);
    ("cache.put_ms", put_ms);
    ("protocol.ping_us", ping_us);
    ("serve.gen_lag_ms.p90", or0 (Stats.percentile lag_ms 0.9));
    ("serve.gen_lag_ms.max", Stats.max_of lag_ms);
    ("machine.speed", speed w);
    ("trace.overhead_share", spans *. Spans.record_cost_ns () /. 1e9 /. schedule_s);
    ("trace.layer_share", Stats.ratio model busy);
    ("trace.spans", spans);
  ]

(* ---- the run --------------------------------------------------------- *)

let name = "serve-mix"

type daemon = { pid : int; fd : Unix.file_descr; cache_dir : string }

let stop d =
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  Proc.stop_pid d.pid

(* One set-up: spawn a daemon on a fresh cache directory, wait for its first
   Pong, then warm the base keys with one fresh solve each. Returns the
   daemon, the warmed outcomes and the seconds it all took. *)
let set_up ~dir ~socket ~smoke ~pairs k =
  let cache_dir = Filename.concat dir (Printf.sprintf "cache%d" k) in
  Proc.mkdir_p cache_dir;
  let t0 = Stats.now_ns () in
  let pid, fd = Spans.with_span "spawn" (fun () -> start ~socket ~cache_dir ~smoke) in
  let d = { pid; fd; cache_dir } in
  match
    Spans.with_span "warm" (fun () ->
        Array.mapi
          (fun i pc ->
            match Protocol.call fd (verify_request ~smoke ~id:(1_000_000 + i) pc None) with
            | [ Protocol.Result { outcome; cached = false; partial = false; _ } ] -> outcome
            | _ -> failwith "warm-up query was not answered by a fresh solve")
          pairs)
  with
  | warm -> (d, warm, Stats.secs_since t0)
  | exception e ->
      stop d;
      raise e

(* Set up [times] times and keep the last daemon; set-up time is the mean,
   for the reason [Campaign_load.cold_start] gives, of reference seconds,
   each set-up read against the speed just before it. *)
let set_up_mean ~dir ~socket ~smoke ~pairs ~times =
  let rec go k acc =
    let speed = Speed.current () in
    let d, warm, s = set_up ~dir ~socket ~smoke ~pairs k in
    let s = s *. speed in
    if k = times then (d, warm, Stats.mean (s :: acc))
    else begin
      stop d;
      go (k + 1) (s :: acc)
    end
  in
  go 1 []

let run (ctx : Ctx.t) =
  let smoke = ctx.Ctx.smoke in
  (* the daemon verifies the table1 problems, so its base outcomes are
     checked against the table1 pins *)
  let set = Ctx.set ctx "table1" in
  let pairs = Array.of_list (pairs ()) in
  let npairs = Array.length pairs in
  let dir = Filename.concat ctx.Ctx.work "serve" in
  let socket = Filename.concat dir "sock" in
  Proc.mkdir_p dir;
  Spans.with_span "workload" ~args:[ ("workload", name) ] @@ fun () ->
  let d, warm, setup_s =
    Spans.with_span "setup" (fun () ->
        set_up_mean ~dir ~socket ~smoke ~pairs ~times:(if smoke then 1 else 5))
  in
  let fd = d.fd and cache_dir = d.cache_dir in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let rate = rate_qps ~smoke in
  let n = max 1 (int_of_float (Float.round (rate *. ctx.Ctx.seconds))) in
  let queries = stream ctx ~n ~npairs ~writes:(writes ~n ~npairs) in
  let payloads =
    Array.mapi
      (fun i q ->
        Protocol.request_to_string (verify_request ~smoke ~id:(i + 1) pairs.(q.pair) q.nonce))
      queries
  in
  let cpu0 = Proc.cpu_s d.pid in
  let w = drive ~fd ~rate queries payloads in
  let cpu_s = Proc.cpu_s d.pid -. cpu0 in
  Printf.printf "  window: daemon %.2f CPU s at speed %.3f (%d probes)\n" cpu_s (speed w)
    (List.length w.probes);
  (* a read must be byte-identical to the write that filled its key, a
     write must paint like its base key *)
  let warm_bytes = Array.map Serialize.to_string warm in
  let warm_paint = Array.map Serialize.paint_to_string warm in
  let ok =
    Array.mapi
      (fun i q ->
        match (w.answer.(i), q.nonce) with
        | Some (Protocol.Result { outcome; _ }), None ->
            String.equal (Serialize.to_string outcome) warm_bytes.(q.pair)
        | Some (Protocol.Result { outcome; cached = false; partial = false; _ }), Some _ ->
            String.equal (Serialize.paint_to_string outcome) warm_paint.(q.pair)
        | _ -> false)
      queries
  in
  let failed = Array.fold_left (fun a b -> if b then a else a + 1) 0 ok in
  if failed > 0 then Printf.eprintf "%s: %d of %d queries failed\n%!" name failed n;
  let pins = Array.map (Ctx.pin_ok ctx set) warm in
  let pinned = Array.for_all (( <> ) None) pins in
  let pins_ok = Array.for_all (( <> ) (Some false)) pins in
  if not pins_ok then Printf.eprintf "%s: a base key painted differently from its pin\n%!" name;
  if not pinned then Printf.eprintf "%s: digest set %S is not pinned\n%!" name set;
  let stats =
    match Protocol.call fd (Protocol.Stats 0) with
    | [ Protocol.Stats_reply { stats; _ } ] -> Some stats
    | _ -> None
  in
  let rss = Proc.peak_rss_mb (string_of_int d.pid) in
  (* query spans, after the fact: due time to answer *)
  List.iter
    (fun i ->
      Spans.add
        ~name:(Printf.sprintf "query:%d" (i + 1))
        ~args:
          [
            ("pair", Digests.pair_key warm.(queries.(i).pair));
            ("cached", string_of_bool (is_read_hit w i));
          ]
        ~start_ns:(w.due i) ~dur_ns:(w.recv.(i) - w.due i) ())
    (answered w);
  let values =
    if ctx.Ctx.traced then
      Ledger.layer_values (per_layer ~smoke ~fd ~dir ~cache_dir ~pairs ~warm ~stats w)
    else Ledger.defined (end_to_end ~setup_s ~rss ~cpu_s ~ok w)
  in
  ( {
      Ledger.workload = name;
      seed = ctx.Ctx.seed;
      traced = ctx.Ctx.traced;
      correct = failed = 0 && pins_ok && pinned;
      attempted = n;
      failed;
      skipped = None;
      digest = List.assoc "all" (Digests.entries (Array.to_list warm));
      values;
      samples = [ ("query latency", List.map (latency_ms w) (answered w)) ];
    },
    None )
