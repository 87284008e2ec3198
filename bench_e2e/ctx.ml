(* What one benchmark run was asked to do. *)

type t = {
  seed : int;  (** sets pair order, frontier samples and the query stream *)
  seconds : float;  (** measurement length *)
  traced : bool;  (** record spans, replay layers, report per-layer metrics *)
  smoke : bool;  (** tiny budgets: keeps the harness running, measures nothing *)
  dir : string;  (** the benchmark's directory (digests.json, results/) *)
  work : string;  (** scratch directory of this process, removed at exit *)
  pinned : Digests.t;
}

(* Solver budget per call and splitting threshold, shared by every
   workload so they all verify the same problems. The full sizing keeps a
   tape pass of the 29 pairs near 4 s, so a run holds several passes; the
   smoke sizing only checks that the harness runs. *)
let fuel = 5
let threshold ~smoke = if smoke then 2.5 else 0.625

(* The CLI's campaign configuration (3 contraction rounds, mean-value
   stage, widest-first splitting), deadline-free and without the ambient
   fault-injection hook, so runs are deterministic. *)
let verify_config ~smoke ~jit ~jit_cache =
  {
    Verify.threshold = threshold ~smoke;
    solver =
      {
        Icp.default_config with
        fuel;
        delta = 1e-3;
        contractor_rounds = 3;
        faults = None;
      };
    deadline_seconds = None;
    workers = 1;
    use_taylor = true;
    use_tape = true;
    split_heuristic = `Widest;
    retry = Verify.no_retry;
    jit;
    jit_cache;
  }

(* Digest set names: the smoke configuration verifies different boxes, so
   it is pinned separately. *)
let set t name = if t.smoke then "smoke." ^ name else name

(* Whether every outcome's paint matches its pin; [None] when the set is
   not pinned yet. *)
let pin_ok t set (o : Outcome.t) =
  Option.map
    (fun d -> String.equal d (Digests.paint_digest o))
    (Digests.lookup t.pinned set (Digests.pair_key o))

let rng t salt = Random.State.make [| t.seed; salt |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a
