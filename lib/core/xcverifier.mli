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

(** [verify_all ()] runs the paper's full campaign: every applicable
    condition for the five DFAs of Table I, returning the outcomes of
    {!Verify.campaign} ([checkpoint]/[resume] as there). *)
val verify_all :
  ?config:Verify.config -> ?checkpoint:string -> ?resume:string -> unit ->
  Outcome.t list

(** [baseline ~dfa ~condition ()] runs the Pederson-Burke grid check. *)
val baseline :
  ?n:int -> dfa:string -> condition:string -> unit -> Pbcheck.result option

(** [table1 outcomes] / [table2 outcomes pb] — formatted result tables. *)
val table1 : Outcome.t list -> string

val table2 : Outcome.t list -> Pbcheck.result list -> string

(** [figure ~dfa ~condition outcome pb] — ASCII region map in the layout of
    the paper's figures. *)
val figure : Outcome.t -> Pbcheck.result option -> string

(** Library version. *)
val version : string
