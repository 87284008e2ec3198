module S = Parser.Sexp

let format_version = 3

(* v2 archives (no [error] status, no [retries] stat) are still loadable;
   anything else is rejected rather than guessed at. *)
let readable_versions = [ 2; 3 ]

let fail fmt = Format.kasprintf (fun s -> raise (Parser.Parse_error s)) fmt

(* Labels may contain spaces ("VWN RPA") or parentheses, which would break
   atom lexing; percent-encode everything outside a safe set. *)
let encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | '+' | '/' ->
          Buffer.add_char buf c
      | _ -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
    s;
  Buffer.contents buf

let decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char buf
          (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

(* Hex float atoms round-trip bit-exactly. *)
let atom_of_float f = S.Atom (Printf.sprintf "%h" f)

let float_of_atom = function
  | S.Atom a -> (
      match float_of_string_opt a with
      | Some f -> f
      | None -> fail "expected float, got %S" a)
  | S.List _ -> fail "expected float atom"

let sexp_of_interval name iv =
  S.List [ S.Atom name; atom_of_float (Interval.inf iv); atom_of_float (Interval.sup iv) ]

let sexp_of_box box =
  S.List
    (S.Atom "box"
    :: List.map (fun v -> sexp_of_interval v (Box.get box v)) (Box.vars box))

let box_of_sexp = function
  | S.List (S.Atom "box" :: dims) ->
      Box.make
        (List.map
           (function
             | S.List [ S.Atom v; lo; hi ] ->
                 (v, Interval.make (float_of_atom lo) (float_of_atom hi))
             | _ -> fail "malformed box dimension")
           dims)
  | _ -> fail "expected (box ...)"

let sexp_of_model model =
  S.List
    (S.Atom "model"
    :: List.map
         (fun (v, x) -> S.List [ S.Atom v; atom_of_float x ])
         model)

let model_of_sexp = function
  | S.List (S.Atom "model" :: bindings) ->
      List.map
        (function
          | S.List [ S.Atom v; x ] -> (v, float_of_atom x)
          | _ -> fail "malformed model binding")
        bindings
  | _ -> fail "expected (model ...)"

let sexp_of_status = function
  | Outcome.Verified -> S.List [ S.Atom "verified" ]
  | Outcome.Timeout -> S.List [ S.Atom "timeout" ]
  | Outcome.Counterexample m -> S.List [ S.Atom "counterexample"; sexp_of_model m ]
  | Outcome.Inconclusive m -> S.List [ S.Atom "inconclusive"; sexp_of_model m ]
  | Outcome.Error msg -> S.List [ S.Atom "error"; S.Atom (encode msg) ]

let status_of_sexp = function
  | S.List [ S.Atom "verified" ] -> Outcome.Verified
  | S.List [ S.Atom "timeout" ] -> Outcome.Timeout
  | S.List [ S.Atom "counterexample"; m ] -> Outcome.Counterexample (model_of_sexp m)
  | S.List [ S.Atom "inconclusive"; m ] -> Outcome.Inconclusive (model_of_sexp m)
  | S.List [ S.Atom "error"; S.Atom msg ] -> Outcome.Error (decode msg)
  | _ -> fail "malformed status"

let sexp_of_region (r : Outcome.region) =
  S.List
    [
      S.Atom "region";
      S.Atom (string_of_int r.Outcome.depth);
      sexp_of_status r.Outcome.status;
      sexp_of_box r.Outcome.box;
    ]

let region_of_sexp = function
  | S.List [ S.Atom "region"; S.Atom depth; status; box ] ->
      {
        Outcome.depth = int_of_string depth;
        status = status_of_sexp status;
        box = box_of_sexp box;
      }
  | _ -> fail "malformed region"

let sexp_of_outcome (o : Outcome.t) =
  S.List
    [
      S.Atom "outcome";
      S.Atom (string_of_int format_version);
      S.List [ S.Atom "dfa"; S.Atom (encode o.Outcome.dfa) ];
      S.List [ S.Atom "condition"; S.Atom (encode o.Outcome.condition) ];
      sexp_of_box o.Outcome.domain;
      S.List
        [
          S.Atom "stats";
          S.Atom (string_of_int o.Outcome.stats.Outcome.solver_calls);
          S.Atom (string_of_int o.Outcome.stats.Outcome.total_expansions);
          S.Atom (string_of_int o.Outcome.stats.Outcome.total_prunes);
          S.Atom (string_of_int o.Outcome.stats.Outcome.total_revise_calls);
          S.Atom (string_of_int o.Outcome.stats.Outcome.retries);
          atom_of_float o.Outcome.stats.Outcome.elapsed;
        ];
      S.List (S.Atom "regions" :: List.map sexp_of_region o.Outcome.regions);
    ]

(* v2 stats carry four counters + elapsed; v3 adds [retries] before
   [elapsed] (0 when reading a v2 archive). *)
let stats_of_sexp = function
  | S.List
      [
        S.Atom "stats"; S.Atom calls; S.Atom expansions; S.Atom prunes;
        S.Atom revise; elapsed;
      ] ->
      {
        Outcome.solver_calls = int_of_string calls;
        total_expansions = int_of_string expansions;
        total_prunes = int_of_string prunes;
        total_revise_calls = int_of_string revise;
        retries = 0;
        elapsed = float_of_atom elapsed;
      }
  | S.List
      [
        S.Atom "stats"; S.Atom calls; S.Atom expansions; S.Atom prunes;
        S.Atom revise; S.Atom retries; elapsed;
      ] ->
      {
        Outcome.solver_calls = int_of_string calls;
        total_expansions = int_of_string expansions;
        total_prunes = int_of_string prunes;
        total_revise_calls = int_of_string revise;
        retries = int_of_string retries;
        elapsed = float_of_atom elapsed;
      }
  | _ -> fail "malformed stats"

let outcome_of_sexp = function
  | S.List
      [
        S.Atom "outcome"; S.Atom version;
        S.List [ S.Atom "dfa"; S.Atom dfa ];
        S.List [ S.Atom "condition"; S.Atom condition ];
        domain;
        stats;
        S.List (S.Atom "regions" :: regions);
      ] ->
      if not (List.mem (int_of_string version) readable_versions) then
        fail "unsupported outcome format version %s" version;
      {
        Outcome.dfa = decode dfa;
        condition = decode condition;
        domain = box_of_sexp domain;
        regions = List.map region_of_sexp regions;
        stats = stats_of_sexp stats;
      }
  | _ -> fail "malformed outcome"

let to_string o =
  let buf = Buffer.create 4096 in
  S.print buf (sexp_of_outcome o);
  Buffer.contents buf

let of_string s = outcome_of_sexp (S.parse s)

let save path outcomes =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun o ->
          output_string oc (to_string o);
          output_char oc '\n')
        outcomes)

(* ------------------------------------------------------------------ *)
(* Crash-safe byte primitives — the substrate the verdict cache and the
   service journal are built on. Both honour an optional I/O fault plan
   (Fault.io_plan): every write consults the plan first, so torn entries,
   full disks and interrupted writes are deterministically injectable. *)

(* One logical write. EINTR faults re-roll (bounded); a short write lands a
   prefix of the buffer and then raises — exactly the bytes a process
   killed mid-write would leave behind. *)
let faulted_write ?io_faults ~what fd bytes =
  let len = String.length bytes in
  let write_all () =
    let rec go off =
      if off < len then
        let n =
          try Unix.write_substring fd bytes off (len - off)
          with Unix.Unix_error (Unix.EINTR, _, _) -> 0
        in
        go (off + n)
    in
    go 0
  in
  match io_faults with
  | None -> write_all ()
  | Some plan ->
      let key = Fault.key_of_string bytes in
      let rec attempt k =
        match Fault.io_decide plan ~attempt:k ~key with
        | None -> write_all ()
        | Some Fault.Eintr ->
            (* interrupted before any byte landed; retry re-rolls the dice,
               bounded so a rate-1.0 plan still terminates *)
            if k >= 8 then raise (Fault.Io_injected (Fault.Eintr, what))
            else attempt (k + 1)
        | Some Fault.Enospc ->
            raise (Fault.Io_injected (Fault.Enospc, what))
        | Some Fault.Short_write ->
            let torn = Stdlib.max 1 (len / 2) in
            let rec go off =
              if off < torn then
                let n =
                  try Unix.write_substring fd bytes off (torn - off)
                  with Unix.Unix_error (Unix.EINTR, _, _) -> 0
                in
                go (off + n)
            in
            go 0;
            raise (Fault.Io_injected (Fault.Short_write, what))
      in
      attempt 0

let append_line ?io_faults ?(fsync = false) path line =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* one write(2) for the whole line: O_APPEND positions atomically, so
         concurrent writers interleave whole lines, never bytes *)
      faulted_write ?io_faults ~what:path fd (line ^ "\n");
      if fsync then Unix.fsync fd)

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      Fun.protect
        ~finally:(fun () -> Unix.close dfd)
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())

let write_file_atomic ?io_faults path content =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         faulted_write ?io_faults ~what:tmp fd content;
         Unix.fsync fd)
   with e ->
     (* destination untouched on any failure — that is the whole point *)
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp path;
  (* make the rename itself durable *)
  fsync_dir path

let percent_encode = encode
let percent_decode = decode

(* ------------------------------------------------------------------ *)
(* Digests — the identity of a campaign's configuration and formula set,
   carried in checkpoint headers so resume and shard merge can refuse
   checkpoints from a different run. FNV-style byte fold through the
   splitmix64 finalizer; 16 hex chars, safe as an s-expression atom. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let digest s =
  let h = ref 0x9e3779b97f4a7c15L in
  String.iter
    (fun c ->
      h :=
        mix64
          (Int64.add
             (Int64.mul !h 0x100000001b3L)
             (Int64.of_int (Char.code c))))
    s;
  Printf.sprintf "%016Lx" !h

(* ------------------------------------------------------------------ *)
(* Campaign headers and sharded checkpoint entries *)

type header = {
  config_hash : string;
  formula_hash : string;
  shard : (int * int) option;
}

let sexp_of_header h =
  S.List
    ((S.Atom "campaign-header"
     :: S.Atom (string_of_int format_version)
     :: S.List [ S.Atom "config"; S.Atom h.config_hash ]
     :: S.List [ S.Atom "formula"; S.Atom h.formula_hash ]
     :: [])
    @
    match h.shard with
    | None -> []
    | Some (i, n) ->
        [
          S.List
            [ S.Atom "shard"; S.Atom (string_of_int i); S.Atom (string_of_int n) ];
        ])

let header_of_sexp = function
  | S.List (S.Atom "campaign-header" :: S.Atom version :: fields) ->
      if not (List.mem (int_of_string version) readable_versions) then
        fail "unsupported campaign header version %s" version;
      let config = ref None and formula = ref None and shard = ref None in
      List.iter
        (function
          | S.List [ S.Atom "config"; S.Atom h ] -> config := Some h
          | S.List [ S.Atom "formula"; S.Atom h ] -> formula := Some h
          | S.List [ S.Atom "shard"; S.Atom i; S.Atom n ] ->
              shard := Some (int_of_string i, int_of_string n)
          | _ -> fail "malformed campaign header field")
        fields;
      (match (!config, !formula) with
      | Some c, Some f -> { config_hash = c; formula_hash = f; shard = !shard }
      | _ -> fail "campaign header missing config/formula hash")
  | _ -> fail "expected (campaign-header ...)"

let header_to_string h =
  let buf = Buffer.create 128 in
  S.print buf (sexp_of_header h);
  Buffer.contents buf

let header_of_string s = header_of_sexp (S.parse s)

(* A header mismatch is an operator error (resuming with different flags,
   merging files from different campaigns), not a parse error. *)
let check_header ~path ~expect (h : header) =
  if not (String.equal h.config_hash expect.config_hash) then
    failwith
      (Printf.sprintf
         "%s: checkpoint was written under a different configuration \
          (config hash %s, expected %s) — match the original flags or start \
          a fresh run"
         path h.config_hash expect.config_hash);
  if not (String.equal h.formula_hash expect.formula_hash) then
    failwith
      (Printf.sprintf
         "%s: checkpoint is from a different campaign (formula hash %s, \
          expected %s)"
         path h.formula_hash expect.formula_hash)

type entry = {
  outcome : Outcome.t;
  paths : int list list option;
  metrics_json : string option;
}

let sexp_of_path p = S.List (List.map (fun i -> S.Atom (string_of_int i)) p)

let path_of_sexp = function
  | S.List l ->
      List.map
        (function
          | S.Atom a -> int_of_string a | S.List _ -> fail "malformed path")
        l
  | S.Atom _ -> fail "malformed region path"

let sexp_of_entry e =
  S.List
    ((S.Atom "entry" :: sexp_of_outcome e.outcome :: [])
    @ (match e.paths with
      | None -> []
      | Some ps -> [ S.List (S.Atom "paths" :: List.map sexp_of_path ps) ])
    @
    match e.metrics_json with
    | None -> []
    | Some j -> [ S.List [ S.Atom "metrics"; S.Atom (encode j) ] ])

let entry_of_sexp = function
  | S.List (S.Atom "entry" :: outcome :: rest) ->
      let paths = ref None and metrics = ref None in
      List.iter
        (function
          | S.List (S.Atom "paths" :: ps) ->
              paths := Some (List.map path_of_sexp ps)
          | S.List [ S.Atom "metrics"; S.Atom j ] -> metrics := Some (decode j)
          | _ -> fail "malformed checkpoint entry field")
        rest;
      { outcome = outcome_of_sexp outcome; paths = !paths; metrics_json = !metrics }
  (* plain outcome lines (archives, pre-shard checkpoints) read as entries
     without paths or metrics *)
  | sexp -> { outcome = outcome_of_sexp sexp; paths = None; metrics_json = None }

let entry_to_string e =
  let buf = Buffer.create 4096 in
  S.print buf (sexp_of_entry e);
  Buffer.contents buf

type line = Header of header | Entry of entry

let line_of_string s =
  let sexp = S.parse s in
  match sexp with
  | S.List (S.Atom "campaign-header" :: _) -> Header (header_of_sexp sexp)
  | _ -> Entry (entry_of_sexp sexp)

type checkpoint = {
  cp_header : header option;
  entries : entry list;
  truncated : bool;
  valid_bytes : int;
}

let read_checkpoint path =
  if not (Sys.file_exists path) then
    { cp_header = None; entries = []; truncated = false; valid_bytes = 0 }
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go header acc valid first =
          match input_line ic with
          | exception End_of_file ->
              {
                cp_header = header;
                entries = List.rev acc;
                truncated = false;
                valid_bytes = valid;
              }
          | line -> (
              if String.trim line = "" then go header acc (pos_in ic) first
              else
                match line_of_string line with
                | Header h when first -> go (Some h) acc (pos_in ic) false
                | Header _ ->
                    (* a header below the first line can only be torn-write
                       debris *)
                    {
                      cp_header = header;
                      entries = List.rev acc;
                      truncated = true;
                      valid_bytes = valid;
                    }
                | Entry e -> go header (e :: acc) (pos_in ic) false
                | exception _ ->
                    (* stop at the first malformed line — anything after a
                       torn write is untrustworthy; the valid prefix is the
                       resume point *)
                    {
                      cp_header = header;
                      entries = List.rev acc;
                      truncated = true;
                      valid_bytes = valid;
                    })
        in
        go None [] 0 true)

let repair_checkpoint path =
  let ck = read_checkpoint path in
  if ck.truncated then Unix.truncate path ck.valid_bytes;
  ck

let write_header path header =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header_to_string header);
      output_char oc '\n')

(* Strict archive loading: malformed lines raise; header lines (written by
   checkpointing campaigns) are skipped and entry wrappers unwrapped, so a
   finished checkpoint doubles as an archive for [replay]. *)
let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
            let acc =
              if String.trim line = "" then acc
              else
                match line_of_string line with
                | Header _ -> acc
                | Entry e -> e.outcome :: acc
            in
            go acc
        | exception End_of_file -> List.rev acc
      in
      go [])

(* ------------------------------------------------------------------ *)
(* Paint log — the region lines alone, one s-expression per line: the
   byte-comparable rendering shard-merge certification pins down (stats
   carry wall-clock elapsed and are excluded by design). *)

let paint_to_string (o : Outcome.t) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      S.print buf (sexp_of_region r);
      Buffer.add_char buf '\n')
    o.Outcome.regions;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON — the trace export format. S-expressions stay the archival
   format for outcomes; traces are meant for external tooling (jq,
   plotting scripts), where JSON is the lingua franca. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Shortest decimal that round-trips; integers without a fraction part
     so counters read naturally. JSON has no NaN/infinity — encode them as
     strings, which the parser maps back. *)
  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f

  let rec print buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num f ->
        if Float.is_nan f then Buffer.add_string buf "\"nan\""
        else if f = Float.infinity then Buffer.add_string buf "\"inf\""
        else if f = Float.neg_infinity then Buffer.add_string buf "\"-inf\""
        else Buffer.add_string buf (number f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Arr items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            print buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            print buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 1024 in
    print buf j;
    Buffer.contents buf

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos >= n || s.[!pos] <> c then fail "JSON: expected %c at %d" c !pos;
      advance ()
    in
    let literal lit v =
      String.iter (fun c -> expect c) lit;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "JSON: unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "JSON: dangling escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then fail "JSON: truncated \\u escape";
                let code =
                  int_of_string ("0x" ^ String.sub s (!pos + 1) 4)
                in
                pos := !pos + 4;
                (* traces only ever escape control bytes *)
                if code < 0x100 then Buffer.add_char buf (Char.chr code)
                else fail "JSON: non-latin \\u escape unsupported"
            | c -> fail "JSON: bad escape \\%c" c);
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let lexeme = String.sub s start (!pos - start) in
      match float_of_string_opt lexeme with
      | Some f -> f
      | None -> fail "JSON: bad number %S" lexeme
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> (
          let str = parse_string () in
          (* the encodings of the three non-finite numbers *)
          match str with
          | "nan" -> Num Float.nan
          | "inf" -> Num Float.infinity
          | "-inf" -> Num Float.neg_infinity
          | _ -> Str str)
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "JSON: expected , or ] at %d" !pos
            in
            items []
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "JSON: expected , or } at %d" !pos
            in
            fields []
      | Some _ -> Num (parse_number ())
      | None -> fail "JSON: unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "JSON: trailing garbage at %d" !pos;
    v

  let member key = function
    | Obj fields -> (
        match List.assoc_opt key fields with
        | Some v -> v
        | None -> fail "JSON: missing field %S" key)
    | _ -> fail "JSON: expected object for field %S" key

  let to_float = function
    | Num f -> f
    | _ -> fail "JSON: expected number"

  let to_int j =
    let f = to_float j in
    if Float.is_integer f then int_of_float f
    else fail "JSON: expected integer, got %g" f

  let to_str = function Str s -> s | _ -> fail "JSON: expected string"
  let to_list = function Arr l -> l | _ -> fail "JSON: expected array"
end

let trace_format_version = 2

(* v1 traces (no [retry] events) are still loadable. *)
let readable_trace_versions = [ 1; 2 ]

let json_of_box box =
  Json.Obj
    (List.map
       (fun v ->
         let iv = Box.get box v in
         (v, Json.Arr [ Json.Num (Interval.inf iv); Json.Num (Interval.sup iv) ]))
       (Box.vars box))

let box_of_json = function
  | Json.Obj dims ->
      Box.make
        (List.map
           (fun (v, bounds) ->
             match bounds with
             | Json.Arr [ lo; hi ] ->
                 (v, Interval.make (Json.to_float lo) (Json.to_float hi))
             | _ -> fail "JSON: malformed box dimension %S" v)
           dims)
  | _ -> fail "JSON: expected box object"

let json_of_event (ev : Trace.event) =
  let base =
    [
      ("path", Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) ev.Trace.path));
      ("depth", Json.Num (float_of_int ev.Trace.depth));
      ("step", Json.Num (float_of_int ev.Trace.step));
      ("box", json_of_box ev.Trace.box);
      ("kind", Json.Str (Trace.kind_name ev.Trace.kind));
    ]
  in
  let payload =
    match ev.Trace.kind with
    | Trace.Contract { revise_calls; sweeps } ->
        [
          ("revise_calls", Json.Num (float_of_int revise_calls));
          ("sweeps", Json.Num (float_of_int sweeps));
        ]
    | Trace.Solve { fuel; prunes } ->
        [
          ("fuel", Json.Num (float_of_int fuel));
          ("prunes", Json.Num (float_of_int prunes));
        ]
    | Trace.Verdict status -> [ ("status", Json.Str status) ]
    | Trace.Split children -> [ ("children", Json.Num (float_of_int children)) ]
    | Trace.Retry { attempt; reason; fuel } ->
        [
          ("attempt", Json.Num (float_of_int attempt));
          ("reason", Json.Str reason);
          ("fuel", Json.Num (float_of_int fuel));
        ]
  in
  Json.Obj (base @ payload)

let event_of_json j =
  let kind =
    match Json.to_str (Json.member "kind" j) with
    | "contract" ->
        Trace.Contract
          {
            revise_calls = Json.to_int (Json.member "revise_calls" j);
            sweeps = Json.to_int (Json.member "sweeps" j);
          }
    | "solve" ->
        Trace.Solve
          {
            fuel = Json.to_int (Json.member "fuel" j);
            prunes = Json.to_int (Json.member "prunes" j);
          }
    | "verdict" -> Trace.Verdict (Json.to_str (Json.member "status" j))
    | "split" -> Trace.Split (Json.to_int (Json.member "children" j))
    | "retry" ->
        Trace.Retry
          {
            attempt = Json.to_int (Json.member "attempt" j);
            reason = Json.to_str (Json.member "reason" j);
            fuel = Json.to_int (Json.member "fuel" j);
          }
    | k -> fail "JSON: unknown event kind %S" k
  in
  {
    Trace.path = List.map Json.to_int (Json.to_list (Json.member "path" j));
    depth = Json.to_int (Json.member "depth" j);
    step = Json.to_int (Json.member "step" j);
    box = box_of_json (Json.member "box" j);
    kind;
  }

let json_of_trace events =
  Json.Obj
    [
      ("version", Json.Num (float_of_int trace_format_version));
      ("events", Json.Arr (List.map json_of_event events));
    ]

let trace_of_json j =
  let version = Json.to_int (Json.member "version" j) in
  if not (List.mem version readable_trace_versions) then
    fail "unsupported trace format version %d" version;
  List.map event_of_json (Json.to_list (Json.member "events" j))

let trace_to_string events = Json.to_string (json_of_trace events)
let trace_of_string s = trace_of_json (Json.of_string s)

let trace_report (o : Outcome.t) events =
  Json.to_string
    (Json.Obj
       [
         ("dfa", Json.Str o.Outcome.dfa);
         ("condition", Json.Str o.Outcome.condition);
         ( "stats",
           Json.Obj
             [
               ("solver_calls", Json.Num (float_of_int o.Outcome.stats.Outcome.solver_calls));
               ( "total_expansions",
                 Json.Num (float_of_int o.Outcome.stats.Outcome.total_expansions) );
               ("total_prunes", Json.Num (float_of_int o.Outcome.stats.Outcome.total_prunes));
               ( "total_revise_calls",
                 Json.Num (float_of_int o.Outcome.stats.Outcome.total_revise_calls) );
               ("retries", Json.Num (float_of_int o.Outcome.stats.Outcome.retries));
               ("elapsed", Json.Num o.Outcome.stats.Outcome.elapsed);
             ] );
         ("trace", json_of_trace events);
       ])

(* ------------------------------------------------------------------ *)
(* Metrics snapshots — parse the JSON that [Obs.Metrics.to_json] emits
   back into a snapshot, so per-shard metrics files (and the per-pair
   snapshots embedded in shard checkpoints) can be folded with
   [Obs.Metrics.merge] at merge time. *)

let metrics_of_json_string s =
  let j = Json.of_string s in
  (match Json.to_int (Json.member "version" j) with
  | 1 -> ()
  | v -> fail "unsupported metrics snapshot version %d" v);
  let int_assoc what = function
    | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.to_int v)) fields
    | _ -> fail "JSON: expected object of integers for %s" what
  in
  let det = Json.member "deterministic" j in
  let wall = Json.member "wall" j in
  let histograms =
    match Json.member "histograms" det with
    | Json.Obj hs ->
        List.map
          (fun (name, buckets) ->
            ( name,
              List.map
                (fun (bk, c) -> (int_of_string bk, c))
                (int_assoc name buckets) ))
          hs
    | _ -> fail "JSON: expected histograms object"
  in
  {
    Obs.Metrics.counters = int_assoc "counters" (Json.member "counters" det);
    histograms;
    wall_counters = int_assoc "wall counters" (Json.member "counters" wall);
    gauges = int_assoc "gauges" (Json.member "gauges" wall);
    timers = int_assoc "timers" (Json.member "timers_ns" wall);
    elapsed_ns = Json.to_int (Json.member "elapsed_ns" wall);
  }
