module S = Parser.Sexp

let fail fmt = Format.kasprintf (fun s -> raise (Parser.Parse_error s)) fmt

type query_opts = {
  deadline_ms : int option;
  fuel : int option;
  threshold : float option;
}

let no_opts = { deadline_ms = None; fuel = None; threshold = None }

type request =
  | Ping
  | Stats of int
  | Cancel of int
  | Verify of { id : int; dfa : string; condition : string; opts : query_opts }
  | Campaign of { id : int; dfa : string; opts : query_opts }

type stats_payload = {
  cache_hits : int;
  cache_misses : int;
  solver_calls : int;
  pending : int;
  quota_remaining : int option;
}

type response =
  | Pong
  | Progress of { id : int; label : string; boxes : int; solver_calls : int }
  | Result of {
      id : int;
      cached : bool;
      degraded : int;
      partial : bool;
      outcome : Outcome.t;
    }
  | Done of { id : int; count : int }
  | Overloaded of { id : int; inflight : int; max_inflight : int }
  | Refused of { id : int; reason : string }
  | Stats_reply of { id : int; stats : stats_payload }
  | Failed of { id : int; message : string }

(* ---- sexp building blocks ------------------------------------------- *)

let atom_int n = S.Atom (string_of_int n)

let atom_str s = S.Atom (Serialize.percent_encode s)
let field name v = S.List [ S.Atom name; v ]
let int_field name n = field name (atom_int n)
let str_field name s = field name (atom_str s)

let int_of_atom what = function
  | S.Atom a -> (
      match int_of_string_opt a with
      | Some n -> n
      | None -> fail "service: %s: not an integer: %s" what a)
  | S.List _ -> fail "service: %s: expected integer atom" what

let str_of_atom what = function
  | S.Atom a -> Serialize.percent_decode a
  | S.List _ -> fail "service: %s: expected atom" what

(* fields are (name value) pairs; unknown names are ignored so the codec
   tolerates additive protocol evolution *)
let assoc fields =
  List.filter_map
    (function
      | S.List [ S.Atom k; v ] -> Some (k, v)
      | _ -> None)
    fields

let get what kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> fail "service: %s: missing field %s" what k

let get_int what kvs k = int_of_atom (what ^ "." ^ k) (get what kvs k)
let get_str what kvs k = str_of_atom (what ^ "." ^ k) (get what kvs k)

let opt_int kvs k = Option.map (int_of_atom k) (List.assoc_opt k kvs)

let sexp_to_string sexp =
  let buf = Buffer.create 256 in
  S.print buf sexp;
  Buffer.contents buf

(* ---- query options --------------------------------------------------- *)

let opts_fields o =
  List.concat
    [
      (match o.deadline_ms with
      | Some d -> [ int_field "deadline-ms" d ]
      | None -> []);
      (match o.fuel with Some f -> [ int_field "fuel" f ] | None -> []);
      (match o.threshold with
      | Some t -> [ field "threshold" (S.Atom (Printf.sprintf "%h" t)) ]
      | None -> []);
    ]

let opts_of kvs =
  {
    deadline_ms = opt_int kvs "deadline-ms";
    fuel = opt_int kvs "fuel";
    threshold =
      Option.map
        (function
          | S.Atom a -> (
              match float_of_string_opt a with
              | Some f -> f
              | None -> fail "service: threshold: not a float: %s" a)
          | S.List _ -> fail "service: threshold: expected atom")
        (List.assoc_opt "threshold" kvs);
  }

(* ---- requests -------------------------------------------------------- *)

let request_to_sexp = function
  | Ping -> S.List [ S.Atom "ping" ]
  | Stats id -> S.List [ S.Atom "stats"; atom_int id ]
  | Cancel id -> S.List [ S.Atom "cancel"; atom_int id ]
  | Verify { id; dfa; condition; opts } ->
      S.List
        (S.Atom "verify" :: int_field "id" id :: str_field "dfa" dfa
        :: str_field "condition" condition :: opts_fields opts)
  | Campaign { id; dfa; opts } ->
      S.List
        (S.Atom "campaign" :: int_field "id" id :: str_field "dfa" dfa
        :: opts_fields opts)

let request_of_sexp = function
  | S.List [ S.Atom "ping" ] -> Ping
  | S.List [ S.Atom "stats"; id ] -> Stats (int_of_atom "stats.id" id)
  | S.List [ S.Atom "cancel"; id ] -> Cancel (int_of_atom "cancel.id" id)
  | S.List (S.Atom "verify" :: fields) ->
      let kvs = assoc fields in
      Verify
        {
          id = get_int "verify" kvs "id";
          dfa = get_str "verify" kvs "dfa";
          condition = get_str "verify" kvs "condition";
          opts = opts_of kvs;
        }
  | S.List (S.Atom "campaign" :: fields) ->
      let kvs = assoc fields in
      Campaign
        {
          id = get_int "campaign" kvs "id";
          dfa = get_str "campaign" kvs "dfa";
          opts = opts_of kvs;
        }
  | _ -> fail "service: unknown request"

let request_to_string r = sexp_to_string (request_to_sexp r)
let request_of_string s = request_of_sexp (S.parse s)

(* ---- responses ------------------------------------------------------- *)

(* The one printer of result frames: the outcome is spliced in as the bytes
   Serialize printed for it, so a reply built from a cache entry's stored
   bytes is byte-identical to one printed from the outcome. *)
let result_payload ~id ~cached ~degraded ~partial outcome_bytes =
  let flag b = if b then "1" else "0" in
  String.concat ""
    [
      "(result (id "; string_of_int id; ") (cached "; flag cached;
      ") (degraded "; string_of_int degraded; ") (partial "; flag partial;
      ") "; outcome_bytes; ")";
    ]

let response_to_string resp =
  let print items = sexp_to_string (S.List items) in
  match resp with
  | Pong -> print [ S.Atom "pong" ]
  | Progress { id; label; boxes; solver_calls } ->
      print
        [
          S.Atom "progress"; int_field "id" id; str_field "label" label;
          int_field "boxes" boxes; int_field "solver-calls" solver_calls;
        ]
  | Result { id; cached; degraded; partial; outcome } ->
      result_payload ~id ~cached ~degraded ~partial (Serialize.to_string outcome)
  | Done { id; count } ->
      print [ S.Atom "done"; int_field "id" id; int_field "count" count ]
  | Overloaded { id; inflight; max_inflight } ->
      print
        [
          S.Atom "overloaded"; int_field "id" id; int_field "inflight" inflight;
          int_field "max" max_inflight;
        ]
  | Refused { id; reason } ->
      print [ S.Atom "refused"; int_field "id" id; str_field "reason" reason ]
  | Stats_reply { id; stats } ->
      print
        [
          S.Atom "stats"; int_field "id" id;
          int_field "cache-hits" stats.cache_hits;
          int_field "cache-misses" stats.cache_misses;
          int_field "solver-calls" stats.solver_calls;
          int_field "pending" stats.pending;
          field "quota"
            (match stats.quota_remaining with
            | Some q -> atom_int q
            | None -> S.Atom "none");
        ]
  | Failed { id; message } ->
      print [ S.Atom "failed"; int_field "id" id; str_field "message" message ]

type reply = { response : response; payload : string }

let reply response = { response; payload = response_to_string response }

let result ~id ~cached ~degraded ~partial outcome outcome_bytes =
  {
    response = Result { id; cached; degraded; partial; outcome };
    payload = result_payload ~id ~cached ~degraded ~partial outcome_bytes;
  }

let response_of_sexp = function
  | S.List [ S.Atom "pong" ] -> Pong
  | S.List (S.Atom "progress" :: fields) ->
      let kvs = assoc fields in
      Progress
        {
          id = get_int "progress" kvs "id";
          label = get_str "progress" kvs "label";
          boxes = get_int "progress" kvs "boxes";
          solver_calls = get_int "progress" kvs "solver-calls";
        }
  | S.List (S.Atom "result" :: rest) ->
      let fields, outcome_sexp =
        match List.rev rest with
        | outcome :: rev_fields -> (List.rev rev_fields, outcome)
        | [] -> fail "service: result: empty"
      in
      let kvs = assoc fields in
      Result
        {
          id = get_int "result" kvs "id";
          cached = get_int "result" kvs "cached" <> 0;
          degraded = get_int "result" kvs "degraded";
          partial = get_int "result" kvs "partial" <> 0;
          outcome = Serialize.outcome_of_sexp outcome_sexp;
        }
  | S.List (S.Atom "done" :: fields) ->
      let kvs = assoc fields in
      Done { id = get_int "done" kvs "id"; count = get_int "done" kvs "count" }
  | S.List (S.Atom "overloaded" :: fields) ->
      let kvs = assoc fields in
      Overloaded
        {
          id = get_int "overloaded" kvs "id";
          inflight = get_int "overloaded" kvs "inflight";
          max_inflight = get_int "overloaded" kvs "max";
        }
  | S.List (S.Atom "refused" :: fields) ->
      let kvs = assoc fields in
      Refused
        {
          id = get_int "refused" kvs "id";
          reason = get_str "refused" kvs "reason";
        }
  | S.List (S.Atom "stats" :: fields) ->
      let kvs = assoc fields in
      Stats_reply
        {
          id = get_int "stats" kvs "id";
          stats =
            {
              cache_hits = get_int "stats" kvs "cache-hits";
              cache_misses = get_int "stats" kvs "cache-misses";
              solver_calls = get_int "stats" kvs "solver-calls";
              pending = get_int "stats" kvs "pending";
              quota_remaining =
                (match get "stats" kvs "quota" with
                | S.Atom "none" -> None
                | v -> Some (int_of_atom "stats.quota" v));
            };
        }
  | S.List (S.Atom "failed" :: fields) ->
      let kvs = assoc fields in
      Failed
        {
          id = get_int "failed" kvs "id";
          message = get_str "failed" kvs "message";
        }
  | _ -> fail "service: unknown response"

let response_of_string s = response_of_sexp (S.parse s)

let request_id = function
  | Ping -> None
  | Stats id | Cancel id | Verify { id; _ } | Campaign { id; _ } -> Some id

let response_id = function
  | Pong -> None
  | Progress { id; _ }
  | Result { id; _ }
  | Done { id; _ }
  | Overloaded { id; _ }
  | Refused { id; _ }
  | Stats_reply { id; _ }
  | Failed { id; _ } ->
      Some id

let is_terminal req resp =
  match (req, resp) with
  | _, (Overloaded _ | Refused _ | Failed _) -> true
  | Ping, Pong -> true
  | Stats _, Stats_reply _ -> true
  | Verify _, Result _ -> true
  | Campaign _, Done _ -> true
  | Cancel _, _ -> true (* cancel gets no reply of its own *)
  | _, _ -> false

(* ---- framing --------------------------------------------------------- *)

let max_payload = 16 * 1024 * 1024

let write_frame ?io_faults fd payload =
  if String.length payload > max_payload then
    invalid_arg "Protocol.write_frame: payload too large";
  Serialize.faulted_write ?io_faults ~what:"socket write" fd
    (Printf.sprintf "%08x\n%s\n" (String.length payload) payload)

let read_exactly fd n ~what =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k =
        try Unix.read fd b off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      if k = 0 && off < n then
        if off = 0 then raise End_of_file
        else failwith (Printf.sprintf "service: EOF mid-%s" what)
      else go (off + k)
    end
  in
  go 0;
  Bytes.unsafe_to_string b

let read_frame fd =
  match read_exactly fd 9 ~what:"frame header" with
  | exception End_of_file -> None
  | header ->
      if header.[8] <> '\n' then failwith "service: malformed frame header";
      let len =
        match int_of_string_opt ("0x" ^ String.sub header 0 8) with
        | Some n when n >= 0 && n <= max_payload -> n
        | _ -> failwith "service: malformed frame length"
      in
      let payload =
        try read_exactly fd (len + 1) ~what:"frame payload"
        with End_of_file -> failwith "service: EOF mid-frame payload"
      in
      if payload.[len] <> '\n' then
        failwith "service: malformed frame terminator";
      Some (String.sub payload 0 len)

(* ---- client helpers -------------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  fd

let call ?(on_progress = fun _ -> ()) fd req =
  write_frame fd (request_to_string req);
  if match req with Cancel _ -> true | _ -> false then []
  else begin
    let acc = ref [] in
    let rec loop () =
      match read_frame fd with
      | None -> failwith "service: connection closed before terminal response"
      | Some payload ->
          let resp = response_of_string payload in
          (* responses to other ids may interleave on a shared connection *)
          let mine =
            match (request_id req, response_id resp) with
            | Some rid, Some id -> rid = id
            | _ -> true
          in
          if not mine then loop ()
          else begin
            (match resp with
            | Progress _ -> on_progress resp
            | r -> acc := r :: !acc);
            if is_terminal req resp then List.rev !acc else loop ()
          end
    in
    loop ()
  end
