(* Pinned verdict digests (digests.json). A set ("table1", "serve", and
   their smoke-sized twins) maps each pair "<DFA>/<cond>" to the
   [Serialize.digest] of its paint log, plus "all": the digest of the
   concatenated paint logs in canonical pair order. A speed-up that changes
   an answer fails the run. [--write-digests] re-pins the sets a run
   computed; the sets depend on the fixed workload configuration (fuel,
   threshold), so changing that configuration means re-pinning. *)

module J = Serialize.Json

type t = (string * (string * string) list) list

let load path : t =
  if not (Sys.file_exists path) then []
  else
    match J.of_string (Proc.read_file path) with
    | J.Obj sets ->
        List.map
          (fun (set, v) ->
            ( set,
              match v with
              | J.Obj kv ->
                  List.filter_map
                    (function k, J.Str d -> Some (k, d) | _ -> None)
                    kv
              | _ -> [] ))
          sets
    | _ -> failwith (path ^ ": expected a JSON object")

let save path (t : t) =
  let body =
    String.concat ",\n"
      (List.map
         (fun (set, kv) ->
           Printf.sprintf "  %s: {\n%s\n  }" (J.to_string (J.Str set))
             (String.concat ",\n"
                (List.map
                   (fun (k, d) ->
                     Printf.sprintf "    %s: %s" (J.to_string (J.Str k))
                       (J.to_string (J.Str d)))
                   kv)))
         t)
  in
  Proc.write_file path ("{\n" ^ body ^ "\n}\n")

let pair_key (o : Outcome.t) = o.Outcome.dfa ^ "/" ^ o.Outcome.condition
let paint_digest o = Serialize.digest (Serialize.paint_to_string o)

(* The set's entries for outcomes in canonical order. *)
let entries outcomes =
  ("all", Serialize.digest (String.concat "" (List.map Serialize.paint_to_string outcomes)))
  :: List.map (fun o -> (pair_key o, paint_digest o)) outcomes

let lookup (t : t) set key =
  Option.bind (List.assoc_opt set t) (List.assoc_opt key)

let update (t : t) set kv : t =
  if List.mem_assoc set t then
    List.map (fun (s, old) -> if s = set then (s, kv) else (s, old)) t
  else t @ [ (set, kv) ]
