(** Rendering of symbolic expressions.

    Three formats are provided:
    - {!pp} / {!to_string}: human-readable infix notation with minimal
      parentheses,
    - {!pp_sexp}: fully parenthesized s-expressions with exact
      rationals and hex floats, the stable text that {!Verify.formula_hash}
      digests,
    - {!pp_python}: Python/NumPy syntax, mirroring the paper's
      Maple-[CodeGeneration]-to-Python step so encoded functionals can be
      compared against reference implementations. *)

val pp : Format.formatter -> Expr.t -> unit
val to_string : Expr.t -> string
val pp_sexp : Format.formatter -> Expr.t -> unit
val sexp_to_string : Expr.t -> string
val pp_python : Format.formatter -> Expr.t -> unit
val python_to_string : Expr.t -> string

(** C99 definitions the emitted functions may call: [xcv_pow_int] (the
    evaluator's binary-exponentiation loop, same multiply order as
    {!Eval.eval} so integer powers agree bit for bit) and
    [xcv_lambert_w] (a reference transliteration of {!Lambert.w0}'s
    initial guess plus Halley iteration). Prepend once per translation
    unit, after [#include <math.h>]; the block is include-guarded so
    concatenating generated files stays legal. *)
val c_prelude : string

(** [pp_c ~name ~vars ppf e] emits a complete C99 function
    [double name(double v1, ...)] computing [e] — the reverse of the
    paper's Maple-to-code step, and the shape LibXC itself ships.
    Common subexpressions become local [t<n>] temporaries (one per shared
    DAG node), piecewise bodies become conditional expressions, integer
    powers up to the evaluator's 64 cutoff become [xcv_pow_int] chains,
    rational exponents print as exact [num/den] divisions, and
    [lambert_w] calls [xcv_lambert_w] — both helpers live in
    {!c_prelude}. *)
val pp_c : name:string -> vars:string list -> Format.formatter -> Expr.t -> unit

val c_to_string : name:string -> vars:string list -> Expr.t -> string
