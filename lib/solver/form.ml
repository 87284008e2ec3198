type relation = Le0 | Lt0 | Ge0 | Gt0 | Eq0

type atom = { expr : Expr.t; rel : relation }

type t = atom list

let atom expr rel = { expr; rel }
let le expr = { expr; rel = Le0 }
let ge expr = { expr; rel = Ge0 }
let gt expr = { expr; rel = Gt0 }
let eq expr = { expr; rel = Eq0 }

let negate_atom a =
  match a.rel with
  | Le0 -> { a with rel = Gt0 }
  | Lt0 -> { a with rel = Ge0 }
  | Ge0 -> { a with rel = Lt0 }
  | Gt0 -> { a with rel = Le0 }
  | Eq0 -> invalid_arg "Form.negate_atom: cannot negate an equality"

let satisfies rel v =
  if Float.is_nan v then false
  else
    match rel with
    | Le0 -> v <= 0.0
    | Lt0 -> v < 0.0
    | Ge0 -> v >= 0.0
    | Gt0 -> v > 0.0
    | Eq0 -> v = 0.0

let holds_at env a = satisfies a.rel (Eval.eval env a.expr)

let all_hold_at env f = List.for_all (holds_at env) f

let status_of_interval i rel =
  if Interval.is_empty i then
    (* The expression is nowhere defined on this box: no point can satisfy
       (or falsify) the atom — treat as failing everywhere for SAT search. *)
    `Fails
  else
    match rel with
    | Le0 ->
        if Interval.certainly_le i 0.0 then `Holds
        else if Interval.certainly_gt i 0.0 then `Fails
        else `Unknown
    | Lt0 ->
        if Interval.certainly_lt i 0.0 then `Holds
        else if Interval.certainly_ge i 0.0 then `Fails
        else `Unknown
    | Ge0 ->
        if Interval.certainly_ge i 0.0 then `Holds
        else if Interval.certainly_lt i 0.0 then `Fails
        else `Unknown
    | Gt0 ->
        if Interval.certainly_gt i 0.0 then `Holds
        else if Interval.certainly_le i 0.0 then `Fails
        else `Unknown
    | Eq0 ->
        if Interval.is_point i && Interval.inf i = 0.0 then `Holds
        else if not (Interval.mem 0.0 i) then `Fails
        else `Unknown

let vars f =
  List.concat_map (fun a -> Expr.vars a.expr) f |> List.sort_uniq String.compare

let rel_string = function
  | Le0 -> "<= 0"
  | Lt0 -> "< 0"
  | Ge0 -> ">= 0"
  | Gt0 -> "> 0"
  | Eq0 -> "= 0"

let pp_atom ppf a =
  Format.fprintf ppf "%a %s" Printer.pp a.expr (rel_string a.rel)

let pp ppf f =
  match f with
  | [] -> Format.pp_print_string ppf "true"
  | a :: rest ->
      pp_atom ppf a;
      List.iter (fun a -> Format.fprintf ppf " /\\ %a" pp_atom a) rest
