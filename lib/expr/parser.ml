exception Parse_error of string

let fail msg = raise (Parse_error msg)

module Sexp = struct
  type t = Atom of string | List of t list

  let parse s =
    let n = String.length s in
    let rec skip i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t') then skip (i + 1) else i in
    let rec parse i =
      let i = skip i in
      if i >= n then fail "unexpected end of s-expression"
      else if s.[i] = '(' then begin
        let rec items acc i =
          let i = skip i in
          if i >= n then fail "unterminated s-expression"
          else if s.[i] = ')' then (List (List.rev acc), i + 1)
          else
            let item, i = parse i in
            items (item :: acc) i
        in
        items [] (i + 1)
      end
      else begin
        let start = i in
        let rec stop i =
          if i < n && s.[i] <> ' ' && s.[i] <> '(' && s.[i] <> ')' && s.[i] <> '\n' && s.[i] <> '\t'
          then stop (i + 1)
          else i
        in
        let j = stop i in
        (Atom (String.sub s start (j - start)), j)
      end
    in
    let e, i = parse 0 in
    let i = skip i in
    if i <> n then fail "trailing characters after s-expression";
    e

  let rec print buf = function
    | Atom a -> Buffer.add_string buf a
    | List items ->
        Buffer.add_char buf '(';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ' ';
            print buf item)
          items;
        Buffer.add_char buf ')'
end
