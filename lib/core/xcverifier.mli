(** XCVerifier — public façade.

    One-call entry points over the full pipeline
    (registry → encoder → Algorithm 1 → report), for users who do not need
    the individual stages. The underlying modules remain available:
    {!Registry} (functionals), {!Conditions} (exact conditions),
    {!Encoder}, {!Verify} (Algorithm 1), {!Outcome}, {!Render}, {!Report},
    {!Pbcheck} (grid baseline), and below them {!Expr}/{!Deriv} (symbolic
    engine) and {!Icp}/{!Hc4} (δ-complete solver). *)

(** [verify ~dfa ~condition ()] runs Algorithm 1 for a functional and
    condition named as in the paper (e.g. ["pbe"], ["ec1"]).
    @raise Not_found for unknown names; returns [None] when the condition
    does not apply to the functional. *)
val verify :
  ?config:Verify.config -> dfa:string -> condition:string -> unit ->
  Outcome.t option

(** [figure ~dfa ~condition outcome pb] — ASCII region map in the layout of
    the paper's figures. *)
val figure : Outcome.t -> Pbcheck.result option -> string

(** Library version. *)
val version : string
