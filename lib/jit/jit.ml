(* JIT driver: render a compiled tape as C, compile it once into a shared
   object (content-addressed cache), dlopen it through the stubs, and expose
   the kernel as an [Icp.native] contractor, one box per call.

   Design notes:
   - The generated translation unit is [#define]s + {!Jit_runtime.engine} +
     static instruction tables + {!Jit_runtime.entry}. The emitter only
     produces data; all control flow lives in the handwritten engine, so the
     bit-identity argument reduces to one audited transliteration instead of
     per-formula codegen.
   - Floats are rendered as C99 hex literals ([%h]) — exact round trips, no
     decimal rounding in the pipeline.
   - Compilation failures, a missing compiler and dlopen errors all return
     [Error _]; callers stay on the interpreted tape. [jit.fallbacks] makes
     the degradation visible in metrics, per the Obs determinism contract
     these environment-dependent counters are [Wall]-classified. *)

external stub_open : string -> nativeint = "xcvjit_stub_open"
external stub_close : nativeint -> unit = "xcvjit_stub_close"

(* Contracts one box: [bounds] holds the dim lower then dim upper bounds
   and is contracted in place; [out] receives the revise and sweep counts,
   then one status per atom (0 holds, 1 fails, 2 unknown) when the box
   survives. Returns [true] when the box is infeasible. *)
external stub_contract : nativeint -> Float.Array.t -> int array -> bool
  = "xcvjit_stub_contract"

(* Compiler invocations and cache hits depend on on-disk cache state and the
   environment, never on the verification inputs — Wall class. Kernel
   calls replay deterministically for a fixed config. *)
let m_compiles = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "jit.compiles"
let m_compile_ms = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "jit.compile_ms"
let m_cache_hits = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "jit.cache_hits"
let m_fallbacks = Obs.Metrics.counter ~clas:Obs.Metrics.Wall "jit.fallbacks"
let m_batches = Obs.Metrics.counter "jit.batches"

type t = {
  handle : nativeint;
  dim : int;
  natoms : int;
  so_path : string;
}

(* ================= C source emission ================= *)

let bpf = Printf.bprintf

(* C99 hex float literal: exact, locale-independent round trip. *)
let cfloat x =
  if Float.is_nan x then "NAN"
  else if x = Float.infinity then "INFINITY"
  else if x = Float.neg_infinity then "-INFINITY"
  else Printf.sprintf "%h" x

let crat_zero = "{0}"

(* crat image of a [Rat.t]: the integer fast path plus the exact data the
   certified rational-power kernel reads ([cert_pow_rat_point] receives the
   numerator/denominator as the same float images the OCaml code computes). *)
let crat_of rat =
  let isint, i =
    match Rat.to_int rat with Some n -> 1, n | None -> 0, 0
  in
  Printf.sprintf
    "{ .i = INT64_C(%d), .f = %s, .num = %s, .den = %s, .isint = %d, .sign = \
     %d }"
    i
    (cfloat (Rat.to_float rat))
    (cfloat (float_of_int (Rat.num rat)))
    (cfloat (float_of_int (Rat.den rat)))
    isint (Rat.sign rat)

let unop_code : Expr.unop -> int = function
  | Expr.Exp -> 0
  | Expr.Log -> 1
  | Expr.Atan -> 2
  | Expr.Abs -> 3
  | Expr.Lambert_w -> 4

let rel_code : Expr.rel -> int = function Expr.Le -> 0 | Expr.Lt -> 1

let relation_code : Form.relation -> int = function
  | Form.Le0 -> 0
  | Form.Lt0 -> 1
  | Form.Ge0 -> 2
  | Form.Gt0 -> 3
  | Form.Eq0 -> 4

(* One jinstr designated initializer. Unused fields stay zeroed so the
   tables diff cleanly and the digest only varies with semantic content. *)
let instr_line push_args (instr : Itape.instr) =
  let ji ?(a = 0) ?(b = 0) ?(u = 0) ?(d = 0) ?(rm1_ok = 0) ?(clo = "0x0p+0")
      ?(chi = "0x0p+0") ?(p = "0x0p+0") ?(r = crat_zero) ?(rinv = crat_zero)
      ?(rm1 = crat_zero) op =
    Printf.sprintf
      "  { .op = %d, .a = %d, .b = %d, .u = %d, .d = %d, .rm1_ok = %d, .clo \
       = %s, .chi = %s, .p = %s,\n\
      \    .r = %s,\n\
      \    .rinv = %s,\n\
      \    .rm1 = %s }"
      op a b u d rm1_ok clo chi p r rinv rm1
  in
  match instr with
  | Itape.Iconst iv ->
      ji 0 ~clo:(cfloat (Interval.inf iv)) ~chi:(cfloat (Interval.sup iv))
  | Itape.Ivar slot -> ji 1 ~a:slot
  | Itape.Iadd regs ->
      let off = push_args (Array.to_list regs) in
      ji 2 ~a:off ~b:(Array.length regs)
  | Itape.Imul regs ->
      let off = push_args (Array.to_list regs) in
      ji 3 ~a:off ~b:(Array.length regs)
  | Itape.Ipow { base; expo; const_expo; const_rat; rat_deriv; rat_inv } -> (
      let p = match const_expo with Some v -> cfloat v | None -> "0x0p+0" in
      match const_rat with
      | Some rat ->
          (* Forward: rational kernel. Adjoint: the tape's exact-rational
             rule ([rat_deriv]) when it has one, else the const-float rule,
             and so do we. *)
          let enc = Transcend.enclose_rat rat in
          let clo = cfloat (Interval.inf enc)
          and chi = cfloat (Interval.sup enc) in
          let rinv =
            match rat_inv with Some inv -> crat_of inv | None -> crat_zero
          in
          let d, rm1_ok, rm1 =
            match rat_deriv with
            | Some (rm1, _) -> (2, 1, crat_of rm1)
            | None -> ((if const_expo <> None then 1 else 0), 0, crat_zero)
          in
          ji 4 ~a:base ~b:expo ~u:2 ~d ~rm1_ok ~clo ~chi ~p ~r:(crat_of rat)
            ~rinv ~rm1
      | None ->
          let kind = if const_expo <> None then 1 else 0 in
          ji 4 ~a:base ~b:expo ~u:kind ~d:kind ~p)
  | Itape.Iunop (un, arg) -> ji 5 ~a:arg ~u:(unop_code un)
  | Itape.Iselect { branches; default } ->
      let triples =
        Array.to_list branches
        |> List.concat_map (fun (cnd, rel, body) -> [ cnd; rel_code rel; body ])
      in
      let off = push_args triples in
      ji 6 ~a:off ~b:(Array.length branches) ~d:default

(* C99 rejects empty initializer lists; pad with one zero and keep the real
   length in the consuming table. *)
let int_table b name ints =
  let body = if ints = [] then "0" else String.concat ", " (List.map string_of_int ints) in
  bpf b "static const int32_t %s[] = { %s };\n" name body

let emit_prog b k (p : Itape.t) =
  let ins = Itape.instrs p in
  let rev_args = ref [] in
  let n_args = ref 0 in
  let push_args l =
    let off = !n_args in
    List.iter
      (fun v ->
        rev_args := v :: !rev_args;
        incr n_args)
      l;
    off
  in
  let lines = Array.to_list (Array.map (instr_line push_args) ins) in
  int_table b (Printf.sprintf "xcv_args_%d" k) (List.rev !rev_args);
  int_table b
    (Printf.sprintf "xcv_slots_%d" k)
    (Array.to_list (Itape.slots p));
  int_table b
    (Printf.sprintf "xcv_vregs_%d" k)
    (List.concat_map
       (fun (reg, slot) -> [ reg; slot ])
       (Array.to_list (Itape.var_regs p)));
  bpf b "static const jinstr xcv_ins_%d[] = {\n%s\n};\n\n" k
    (String.concat ",\n" lines)

let prog_entry k (p : Itape.t) =
  let target = Itape.target p in
  Printf.sprintf
    "  { .ins = xcv_ins_%d, .args = xcv_args_%d, .slots = xcv_slots_%d,\n\
    \    .var_regs = xcv_vregs_%d, .n = %d, .root = %d, .rel = %d,\n\
    \    .has_select = %d, .nslots = %d, .nvars = %d, .tlo = %s, .thi = %s }"
    k k k k
    (Array.length (Itape.instrs p))
    (Itape.root p)
    (relation_code (Itape.rel p))
    (if Itape.has_select p then 1 else 0)
    (Array.length (Itape.slots p))
    (Array.length (Itape.var_regs p))
    (cfloat (Interval.inf target))
    (cfloat (Interval.sup target))

let render_source ~mvf ~rounds compiled =
  let progs = Hc4.progs compiled in
  let incidence = Hc4.incidence compiled in
  let dim = Array.length incidence in
  let nprogs = Array.length progs in
  let maxregs = ref 1 and maxarity = ref 1 and maxvars = ref 1 in
  Array.iter
    (fun p ->
      maxregs := max !maxregs (Array.length (Itape.instrs p));
      maxvars := max !maxvars (Array.length (Itape.var_regs p));
      Array.iter
        (function
          | Itape.Iadd regs | Itape.Imul regs ->
              maxarity := max !maxarity (Array.length regs)
          | _ -> ())
        (Itape.instrs p))
    progs;
  let b = Buffer.create (1 lsl 16) in
  bpf b "/* xcverifier JIT kernel — generated; do not edit. */\n";
  bpf b "#define XCV_DIM %d\n" (max 1 dim);
  bpf b "#define XCV_NPROGS %d\n" (max 1 nprogs);
  bpf b "#define XCV_ROUNDS %d\n" (max 1 rounds);
  bpf b "#define XCV_DO_MVF %d\n" (if mvf then 1 else 0);
  bpf b "#define XCV_MAXREGS %d\n" !maxregs;
  bpf b "#define XCV_MAXARITY %d\n" !maxarity;
  bpf b "#define XCV_MAXVARS %d\n" !maxvars;
  Buffer.add_string b Jit_runtime.engine;
  bpf b "\n/* ================= instruction tables ================= */\n\n";
  Array.iteri (emit_prog b) progs;
  bpf b "static const jprog xcv_progs[XCV_NPROGS] = {\n%s\n};\n\n"
    (String.concat ",\n" (Array.to_list (Array.mapi prog_entry progs)));
  Array.iteri
    (fun d row ->
      int_table b (Printf.sprintf "xcv_inc_%d" d) (Array.to_list row))
    incidence;
  bpf b "static const int32_t *const xcv_incidence[XCV_DIM] = { %s };\n"
    (if dim = 0 then "0"
     else
       String.concat ", "
         (List.init dim (fun d -> Printf.sprintf "xcv_inc_%d" d)));
  bpf b "static const int32_t xcv_inc_len[XCV_DIM] = { %s };\n"
    (if dim = 0 then "0"
     else
       String.concat ", "
         (List.init dim (fun d -> string_of_int (Array.length incidence.(d)))));
  Buffer.add_string b Jit_runtime.entry;
  Buffer.contents b

(* ================= toolchain and workspaces ================= *)

let abi_tag = "xcvjit-abi-2\n"
let cache_key source = Digest.to_hex (Digest.string (abi_tag ^ source))

let find_cc () =
  match Sys.getenv_opt "XCV_CC" with
  | Some cc when cc <> "" -> Some cc
  | _ ->
      let dirs =
        String.split_on_char ':'
          (Option.value (Sys.getenv_opt "PATH") ~default:"")
      in
      List.find_opt
        (fun name ->
          List.exists
            (fun d -> d <> "" && Sys.file_exists (Filename.concat d name))
            dirs)
        [ "cc"; "gcc" ]

let available () = find_cc () <> None

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let workspace_prefix = "xcvjit-"

(* "xcvjit-<pid>-<hex>" → Some pid *)
let workspace_pid name =
  if not (String.length name > String.length workspace_prefix
          && String.sub name 0 (String.length workspace_prefix)
             = workspace_prefix)
  then None
  else
    let rest =
      String.sub name
        (String.length workspace_prefix)
        (String.length name - String.length workspace_prefix)
    in
    match String.index_opt rest '-' with
    | None -> None
    | Some i -> int_of_string_opt (String.sub rest 0 i)

let sweep_stale_workspaces ?dir () =
  let dir = Option.value dir ~default:(Filename.get_temp_dir_name ()) in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun name ->
          match workspace_pid name with
          | Some pid when pid <> Unix.getpid () -> (
              match Unix.kill pid 0 with
              | () -> () (* owner alive *)
              | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
                  (try rm_rf (Filename.concat dir name) with _ -> ())
              | exception Unix.Unix_error _ -> () (* EPERM: alive, not ours *))
          | _ -> ())
        entries

let workspaces : string list ref = ref []
let cleanup_registered = ref false

let register_cleanup () =
  if not !cleanup_registered then begin
    cleanup_registered := true;
    at_exit (fun () ->
        List.iter (fun d -> try rm_rf d with _ -> ()) !workspaces)
  end

let workspace_counter = ref 0

let make_workspace ~base =
  register_cleanup ();
  let rec go attempts =
    if attempts > 100 then Error "xcvjit: cannot create a temp workspace"
    else begin
      incr workspace_counter;
      let name =
        Printf.sprintf "%s%d-%06x" workspace_prefix (Unix.getpid ())
          !workspace_counter
      in
      let path = Filename.concat base name in
      match Unix.mkdir path 0o700 with
      | () ->
          workspaces := path :: !workspaces;
          Ok path
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (attempts + 1)
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "xcvjit: mkdir %s: %s" path (Unix.error_message e))
    end
  in
  go 0

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_head path =
  try
    let ic = open_in path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    line
  with Sys_error _ -> ""

let cflags =
  (* -ffp-contract=off: no fma contraction, the interpreted tape has none.
     -fno-builtin-exp/-atan: the engine derives its few runtime constants
     from exp/atan of literals; constant folding would substitute the
     compiler's correctly-rounded values for the libm bits the OCaml side
     computes at run time. *)
  "-std=c99 -O2 -fPIC -shared -ffp-contract=off -fno-builtin-exp \
   -fno-builtin-atan"

let compile_so ~cc ~src_path ~so_path =
  let log_path = src_path ^ ".log" in
  let cmd =
    Printf.sprintf "%s %s -o %s %s -lm 2> %s" (Filename.quote cc) cflags
      (Filename.quote so_path) (Filename.quote src_path)
      (Filename.quote log_path)
  in
  let t0 = Unix.gettimeofday () in
  let rc = Sys.command cmd in
  let elapsed_ms =
    int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1000.))
  in
  Obs.Metrics.incr m_compiles 1;
  Obs.Metrics.incr m_compile_ms (max 0 elapsed_ms);
  if rc = 0 then Ok ()
  else
    let head = read_head log_path in
    Error
      (Printf.sprintf "xcvjit: %s exited %d%s" cc rc
         (if head = "" then "" else ": " ^ head))

(* ================= planning ================= *)

let fallback msg =
  Obs.Metrics.incr m_fallbacks 1;
  Error msg

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "xcvjit: mkdir %s: %s" dir (Unix.error_message e))

let ( let* ) r f = match r with Ok v -> f v | Error e -> fallback e

let plan ?cache_dir ~mvf ~rounds compiled =
  let incidence = Hc4.incidence compiled in
  let progs = Hc4.progs compiled in
  let dim = Array.length incidence in
  let natoms = Array.length progs in
  if dim = 0 || natoms = 0 then fallback "xcvjit: formula has no atoms"
  else begin
    let source = render_source ~mvf ~rounds compiled in
    let key = cache_key source in
    let* () =
      match cache_dir with Some d -> ensure_dir d | None -> Ok ()
    in
    sweep_stale_workspaces ?dir:cache_dir ();
    let cached_so =
      Option.map (fun d -> Filename.concat d (key ^ ".so")) cache_dir
    in
    let* so_path =
      match cached_so with
      | Some so when Sys.file_exists so ->
          Obs.Metrics.incr m_cache_hits 1;
          Ok so
      | _ -> (
          match find_cc () with
          | None -> Error "xcvjit: no C compiler (XCV_CC, cc, gcc)"
          | Some cc ->
              (* Build inside a workspace on the destination filesystem so
                 publishing into the cache is a single atomic rename. *)
              let base =
                match cache_dir with
                | Some d -> d
                | None -> Filename.get_temp_dir_name ()
              in
              let* ws = make_workspace ~base in
              let src_path = Filename.concat ws (key ^ ".c") in
              let tmp_so = Filename.concat ws (key ^ ".so") in
              let* () =
                match write_file src_path source with
                | () -> Ok ()
                | exception Sys_error e ->
                    Error (Printf.sprintf "xcvjit: write source: %s" e)
              in
              let* () = compile_so ~cc ~src_path ~so_path:tmp_so in
              (match cached_so with
              | None -> Ok tmp_so
              | Some so -> (
                  match Sys.rename tmp_so so with
                  | () -> Ok so
                  | exception Sys_error e ->
                      Error (Printf.sprintf "xcvjit: publish to cache: %s" e)))
          )
    in
    match stub_open so_path with
    | handle ->
        let t = { handle; dim; natoms; so_path } in
        Gc.finalise (fun t -> stub_close t.handle) t;
        Ok t
    | exception Failure msg -> fallback msg
  end

(* ================= dispatch ================= *)

let native_batch t box =
  if Box.dim box <> t.dim then
    invalid_arg "Jit.native_batch: box dimension mismatch";
  let bounds = Float.Array.create (2 * t.dim) in
  for d = 0 to t.dim - 1 do
    let iv = Box.get_idx box d in
    Float.Array.set bounds d (Interval.inf iv);
    Float.Array.set bounds (t.dim + d) (Interval.sup iv)
  done;
  let out = Array.make (2 + t.natoms) 0 in
  let infeasible = stub_contract t.handle bounds out in
  (* [t]'s finaliser unloads the kernel: keep [t] reachable until the call
     has returned. *)
  ignore (Sys.opaque_identity t);
  Obs.Metrics.incr m_batches 1;
  let n_revise = out.(0) and n_sweeps = out.(1) in
  if infeasible then
    {
      Icp.n_result = Hc4.Infeasible;
      n_statuses = Array.make t.natoms `Unknown;
      n_revise;
      n_sweeps;
    }
  else begin
    let bx = ref box in
    for d = 0 to t.dim - 1 do
      let iv = Box.get_idx box d in
      let lo = Float.Array.get bounds d
      and hi = Float.Array.get bounds (t.dim + d) in
      (* bit-exact comparison: a bound moving from 0.0 to -0.0 is a real
         update on the interpreted path too *)
      if
        Int64.bits_of_float lo <> Int64.bits_of_float (Interval.inf iv)
        || Int64.bits_of_float hi <> Int64.bits_of_float (Interval.sup iv)
      then bx := Box.set_idx !bx d (Interval.of_bounds lo hi)
    done;
    let n_statuses =
      Array.init t.natoms (fun j ->
          match out.(2 + j) with 0 -> `Holds | 1 -> `Fails | _ -> `Unknown)
    in
    { Icp.n_result = Hc4.Contracted !bx; n_statuses; n_revise; n_sweeps }
  end

let contract_batch t boxes = Array.map (native_batch t) boxes
