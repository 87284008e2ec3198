(** Parsing of expression text.

    Infix grammar (no command-line surface parses it; the test suite's
    print/parse round-trip properties are its only callers):

    {v
    expr   := term  (('+' | '-') term)*
    term   := power (('*' | '/') power)*
    power  := '-' power | atom ('^' power)?   -- '^' right-assoc, binds
                                              -- tighter than unary '-'
    atom   := float | ident | ident '(' expr ')' | '(' expr ')'
    v}

    So [-y^2] parses as [-(y^2)] and exponents may carry signs ([x^-2]).
    Known function identifiers: [exp log sqrt cbrt sin cos tanh atan abs
    lambertw]; [pi], [inf] and [nan] are float constants. Any other
    identifier is a variable. *)

exception Parse_error of string

(** [of_string s] parses infix syntax.
    @raise Parse_error with a message pointing at the offending token. *)
val of_string : string -> Expr.t

(** [sexp_of_string s] parses the s-expression syntax emitted by
    {!Printer.pp_sexp}. Operators: [+ * ^ / le lt piecewise] and the
    function identifiers above.
    @raise Parse_error on malformed input. *)
val sexp_of_string : string -> Expr.t

(** Generic s-expressions — shared with {!Serialize}, which persists
    verification outcomes in this syntax. *)
module Sexp : sig
  type t = Atom of string | List of t list

  (** @raise Parse_error on malformed input. *)
  val parse : string -> t

  val print : Buffer.t -> t -> unit
end
