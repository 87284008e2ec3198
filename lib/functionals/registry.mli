(** The functional registry: metadata and lookup for every DFA this library
    implements, mirroring LibXC's role as the catalogue the verifier draws
    from. *)

(** Rung of Jacob's ladder. *)
type family = Lda | Gga | Mgga

(** Design philosophy — the paper's empirical / non-empirical distinction. *)
type design = Empirical | Non_empirical

type t = {
  name : string;  (** canonical lower-case identifier, e.g. ["pbe"] *)
  label : string;  (** display name, e.g. ["PBE"] *)
  family : family;
  design : design;
  eps_x : Expr.t option;  (** exchange energy density, if implemented *)
  eps_c : Expr.t option;  (** correlation energy density, if implemented *)
  description : string;
}

(** The five DFAs evaluated in the paper, in its order:
    PBE, SCAN, LYP, AM05, VWN RPA. *)
val paper_five : t list

(** All registered functionals (the paper's five plus the substrate and
    extension functionals: PW92, PZ81, VWN5, rSCAN). *)
val all : t list

(** [find name] looks up a functional by canonical name (case-insensitive).
    @raise Not_found for unknown names. *)
val find : string -> t

val find_opt : string -> t option

(** Variables a functional's expressions depend on, in canonical order
    ([rs]; [rs, s]; or [rs, s, alpha]). *)
val variables : t -> string list

(** [eps_xc f] is the total energy density — present only when both parts
    are ([None] otherwise), matching the paper's rule that the Lieb-Oxford
    conditions only apply to functionals with both exchange and
    correlation. *)
val eps_xc : t -> Expr.t option

val pp : Format.formatter -> t -> unit
