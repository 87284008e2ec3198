type result = {
  dfa : string;
  condition : Conditions.id;
  mesh : Mesh.t;
  satisfied_mask : bool array;
  satisfied : bool;
  violation_fraction : float;
  first_violations : (string * float) list list;
}

let c_lo = 2.27

let mesh_for ?(n = 100) ?(n_alpha = 20) dfa =
  let rs_lo, rs_hi = Domain_spec.rs_bounds in
  let s_lo, s_hi = Domain_spec.s_bounds in
  let a_lo, a_hi = Domain_spec.alpha_bounds in
  let axis v =
    if String.equal v Dft_vars.rs_name then (v, Mesh.linspace rs_lo rs_hi n)
    else if String.equal v Dft_vars.s_name then (v, Mesh.linspace s_lo s_hi n)
    else (v, Mesh.linspace a_lo a_hi n_alpha)
  in
  Mesh.make (List.map axis (Registry.variables dfa))

(* Evaluate a compiled tape at every mesh point. *)
let tabulate mesh tape =
  Array.init (Mesh.size mesh) (fun i -> Compile.run tape (Mesh.values mesh i))

let check ?(n = 100) ?(n_alpha = 20) (dfa : Registry.t) cond =
  if not (Conditions.applies cond dfa) then None
  else begin
    let vars = Registry.variables dfa in
    let mesh = mesh_for ~n ~n_alpha dfa in
    let rs_axis =
      match mesh.Mesh.axes with (_, xs) :: _ -> xs | [] -> assert false
    in
    let shape = Mesh.shape mesh in
    let total = Mesh.size mesh in
    let f_c = Enhancement.f_of (Option.get dfa.eps_c) in
    let fc_tape = Compile.compile ~vars f_c in
    let fc = tabulate mesh fc_tape in
    let dfc =
      Numdiff.gradient_axis fc ~shape ~axis:0 ~coords:rs_axis
    in
    let d2fc =
      Numdiff.gradient_axis dfc ~shape ~axis:0 ~coords:rs_axis
    in
    (* F_c at the rs -> infinity stand-in, constant along the rs axis. *)
    let fc_inf =
      lazy
        (Array.init total (fun i ->
             let v = Mesh.values mesh i in
             v.(0) <- Enhancement.rs_infinity;
             Compile.run fc_tape v))
    in
    let fxc =
      lazy
        (let e = Option.get (Registry.eps_xc dfa) in
         tabulate mesh (Compile.compile ~vars (Enhancement.f_of e)))
    in
    let margin i =
      let rs = (Mesh.values mesh i).(0) in
      match cond with
      | Conditions.Ec1 -> fc.(i)
      | Conditions.Ec2 -> dfc.(i)
      | Conditions.Ec3 -> d2fc.(i) +. (2.0 /. rs *. dfc.(i))
      | Conditions.Ec4 -> c_lo -. ((Lazy.force fxc).(i) +. (rs *. dfc.(i)))
      | Conditions.Ec5 -> c_lo -. (Lazy.force fxc).(i)
      | Conditions.Ec6 -> (((Lazy.force fc_inf).(i) -. fc.(i)) /. rs) -. dfc.(i)
      | Conditions.Ec7 -> (fc.(i) /. rs) -. dfc.(i)
    in
    let mask = Array.init total (fun i ->
        let m = margin i in
        (* NaN margins (e.g. removable singularities at mesh edges) are
           counted as violations: the implementation failed to produce a
           value satisfying the condition there. *)
        m >= 0.0)
    in
    let violations = ref [] and nviol = ref 0 in
    Array.iteri
      (fun i ok ->
        if not ok then begin
          incr nviol;
          if List.length !violations < 10 then
            violations := Mesh.point mesh i :: !violations
        end)
      mask;
    Some
      {
        dfa = dfa.Registry.label;
        condition = cond;
        mesh;
        satisfied_mask = mask;
        satisfied = !nviol = 0;
        violation_fraction = float_of_int !nviol /. float_of_int total;
        first_violations = List.rev !violations;
      }
  end

let check_all ?n ?n_alpha dfas =
  List.concat_map
    (fun dfa ->
      List.filter_map (fun c -> check ?n ?n_alpha dfa c) Conditions.all)
    dfas

let violation_boundary_s r =
  let best = ref Float.infinity in
  Array.iteri
    (fun i ok ->
      if not ok then
        match List.assoc_opt Dft_vars.s_name (Mesh.point r.mesh i) with
        | Some s -> if s < !best then best := s
        | None -> ())
    r.satisfied_mask;
  if Float.is_finite !best then Some !best else None

let pp_summary ppf r =
  Format.fprintf ppf "PB %s / %s: %s (%.2f%% of %d grid points violate)"
    r.dfa (Conditions.name r.condition)
    (if r.satisfied then "satisfied" else "violated")
    (100.0 *. r.violation_fraction)
    (Mesh.size r.mesh)
