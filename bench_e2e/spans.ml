(* Span recorder for the traced benchmark run, written out as Chrome
   trace-event JSON (load it in chrome://tracing or Perfetto).

   Spans are recorded by the benchmark itself around its calls into each
   layer; nothing inside the library is instrumented. They live in memory
   and are written once, when the run ends. Recording is single-threaded:
   only the benchmark's main domain opens spans. (Named [Spans] so it does
   not shadow the library's [Trace] module.) *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start_ns : int;
  dur_ns : int;
  args : (string * string) list;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []
let origin_ns = ref 0

let enable () =
  enabled := true;
  origin_ns := Stats.now_ns ()

let count () = List.length !spans
let current () = match !stack with p :: _ -> p | [] -> 0

(* [add] records a span timed elsewhere, as a child of the innermost open
   span. *)
let add ?(args = []) ~name ~start_ns ~dur_ns () =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    spans := { id; parent = current (); name; start_ns; dur_ns; args } :: !spans
  end

(* [with_span name f] times [f] as a child of the innermost open span. *)
let with_span ?(args = []) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = current () in
    stack := id :: !stack;
    let t0 = Stats.now_ns () in
    let finish () =
      let dur_ns = Stats.now_ns () - t0 in
      stack := List.tl !stack;
      spans := { id; parent; name; start_ns = t0; dur_ns; args } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Self time of each layer: span duration minus the part its children
   cover, summed over the spans of that layer (the name up to its first
   ':', so "pair:PBE/ec1" counts as "pair"), in seconds. *)
let self_seconds () =
  let layer name =
    match String.index_opt name ':' with Some i -> String.sub name 0 i | None -> name
  in
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ns s.parent
          (s.dur_ns + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    !spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let own =
        s.dur_ns - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      let k = layer s.name in
      Hashtbl.replace self k (own + Option.value ~default:0 (Hashtbl.find_opt self k)))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, float_of_int v /. 1e9) :: acc) self []
  |> List.sort compare

(* Cost of recording one span, measured by recording dummies into a
   scratch list: what tracing adds per span to the traced run. *)
let record_cost_ns () =
  let saved = (!enabled, !spans, !next_id, !stack) in
  enabled := true;
  spans := [];
  stack := [];
  let n = 20_000 in
  let t0 = Stats.now_ns () in
  for _ = 1 to n do
    with_span "probe" (fun () -> ())
  done;
  let per = float_of_int (Stats.now_ns () - t0) /. float_of_int n in
  let e, s, i, st = saved in
  enabled := e;
  spans := s;
  next_id := i;
  stack := st;
  per

let to_json () =
  let module J = Serialize.Json in
  let us ns = J.Num (float_of_int ns /. 1000.) in
  let events =
    List.rev_map
      (fun s ->
        J.Obj
          [
            ("name", J.Str s.name);
            ("cat", J.Str "bench");
            ("ph", J.Str "X");
            ("ts", us (s.start_ns - !origin_ns));
            ("dur", us s.dur_ns);
            ("pid", J.Num 1.);
            ("tid", J.Num 1.);
            ( "args",
              J.Obj
                ((("id", J.Num (float_of_int s.id))
                  :: ("parent", J.Num (float_of_int s.parent))
                  :: List.map (fun (k, v) -> (k, J.Str v)) s.args)) );
          ])
      !spans
  in
  J.Obj [ ("traceEvents", J.Arr events); ("displayTimeUnit", J.Str "ms") ]

let write path =
  let oc = open_out_bin path in
  output_string oc (Serialize.Json.to_string (to_json ()));
  output_char oc '\n';
  close_out oc
