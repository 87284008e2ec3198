type t = { names : string array; ivs : Interval.t array }

let make bindings =
  if bindings = [] then invalid_arg "Box.make: empty box";
  let names = Array.of_list (List.map fst bindings) in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Box.make: duplicate variable %S" n);
      Hashtbl.add seen n ())
    names;
  { names; ivs = Array.of_list (List.map snd bindings) }

let vars b = Array.to_list b.names
let dim b = Array.length b.names

let index b v =
  let n = Array.length b.names in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal b.names.(i) v then i
    else find (i + 1)
  in
  find 0

let get b v = b.ivs.(index b v)
let get_idx b i = b.ivs.(i)

let set_idx b i iv =
  let ivs = Array.copy b.ivs in
  ivs.(i) <- iv;
  { b with ivs }

let set b v iv = set_idx b (index b v) iv
let intervals b = Array.copy b.ivs

let with_intervals b ivs =
  if Array.length ivs <> Array.length b.ivs then
    invalid_arg "Box.with_intervals: dimension mismatch";
  { b with ivs }
let is_empty b = Array.exists Interval.is_empty b.ivs

let to_env b =
  Array.to_list (Array.map2 (fun n iv -> (n, iv)) b.names b.ivs)

let max_width b =
  Array.fold_left (fun acc iv -> Float.max acc (Interval.width iv)) 0.0 b.ivs

let widest_dim b =
  let best = ref (-1) and best_w = ref 0.0 in
  Array.iteri
    (fun i iv ->
      let w = Interval.width iv in
      if w > !best_w then begin
        best := i;
        best_w := w
      end)
    b.ivs;
  if !best < 0 then invalid_arg "Box.widest_dim: degenerate box";
  !best

let split_dim b i =
  let a, c = Interval.split b.ivs.(i) in
  (set_idx b i a, set_idx b i c)

let split b = split_dim b (widest_dim b)

(* Kearfott's maximal-smear rule: split where the constraint is most
   sensitive, |df/dx_i| * width(x_i). Scores come from the caller (the
   adjoint tape); non-finite or non-positive scores never win, and when no
   dimension has a usable score the choice degrades to widest-first — so
   the heuristic can only change *which* sound split happens, never whether
   one does. *)
let smear_dim b ~scores =
  if Array.length scores <> dim b then
    invalid_arg "Box.smear_dim: score/dimension mismatch";
  let best = ref (-1) and best_s = ref 0.0 in
  Array.iteri
    (fun i iv ->
      let s = scores.(i) in
      if
        Interval.width iv > 0.0
        && (not (Float.is_nan s))
        && s > !best_s
      then begin
        best := i;
        best_s := s
      end)
    b.ivs;
  if !best >= 0 then !best else widest_dim b

let split_smear b ~scores = split_dim b (smear_dim b ~scores)

let split_all b =
  let splittable i =
    let iv = b.ivs.(i) in
    (not (Interval.is_empty iv)) && not (Interval.is_point iv)
  in
  let rec go i boxes =
    if i >= dim b then boxes
    else if splittable i then
      go (i + 1)
        (List.concat_map
           (fun bx ->
             let a, c = split_dim bx i in
             [ a; c ])
           boxes)
    else go (i + 1) boxes
  in
  go 0 [ b ]

let midpoint b =
  Array.to_list
    (Array.map2 (fun n iv -> (n, Interval.midpoint iv)) b.names b.ivs)

let midpoint_box b =
  { b with ivs = Array.map (fun iv -> Interval.point (Interval.midpoint iv)) b.ivs }

let mem point b =
  let n = Array.length b.names in
  let rec go i =
    if i >= n then true
    else
      match List.assoc_opt b.names.(i) point with
      | Some x -> Interval.mem x b.ivs.(i) && go (i + 1)
      | None -> false
  in
  go 0

let volume b =
  Array.fold_left (fun acc iv -> acc *. Interval.width iv) 1.0 b.ivs

let equal a b =
  a.names = b.names && Array.for_all2 Interval.equal a.ivs b.ivs

let pp ppf b =
  Format.fprintf ppf "{";
  Array.iteri
    (fun i n ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%s in %a" n Interval.pp b.ivs.(i))
    b.names;
  Format.fprintf ppf "}"
