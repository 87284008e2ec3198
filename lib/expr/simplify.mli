(** Algebraic simplification beyond the light normalization performed by the
    smart constructors.

    [simplify] rebuilds an expression bottom-up — re-running constant folding
    and like-term collection on every level, which matters after
    differentiation — and applies a set of sound local rewrites:
    - [log (exp x) = x] and [exp (log x) = x] (the latter only where [log] is
      defined, which is exactly where the original expression was defined),
    - [(exp x)^c = exp (c*x)],
    - [|x|^(2n) = x^(2n)] and [| |x| | = |x|],
    - nested piecewise flattening when a branch body repeats the default.

    All rewrites preserve the function on its natural domain; none enlarge
    the domain (so a verification verdict about the simplified form carries
    over to the original implementation). *)

val simplify : Expr.t -> Expr.t

(** [with_nonneg vars e] simplifies under the assumption that every variable
    in [vars] is nonnegative — true of all DFA inputs ([rs > 0], [s >= 0],
    [alpha >= 0]). This licenses rewrites that are unsound in general but
    hold on the nonnegative orthant under extended-real power semantics:

    - [(x^a)^b = x^(a b)] for any constant exponents,
    - [(x*y)^p] distributes when the factors are recognizably nonnegative,
    - [|x| = x],
    - [sqrt(x^2) = x].

    The encoder applies this to every local condition: the verification
    domains satisfy the assumption, and flatter power towers contract much
    better in the HC4 backward pass. *)
val with_nonneg : string list -> Expr.t -> Expr.t
