(** Generic s-expressions, the syntax in which {!Serialize} persists
    verification outcomes and {!Protocol} frames its messages. *)

exception Parse_error of string

module Sexp : sig
  type t = Atom of string | List of t list

  (** @raise Parse_error on malformed input. *)
  val parse : string -> t

  val print : Buffer.t -> t -> unit
end
