(** Recursive-descent parser for the specification's formula syntax.

    Grammar (mirroring the paper's annotation language, Figure 1):

    {v
    formula  ::= "forall" "(" tvars ")" ":-" formula
               | "exists" "(" tvars ")" ":-" formula
               | iff
    iff      ::= impl ( "<=>" impl )*
    impl     ::= orf ( "=>" impl )?
    orf      ::= andf ( "or" andf )*
    andf     ::= notf ( "and" notf )*
    notf     ::= "not" notf | primary
    primary  ::= "true" | "false" | "(" formula ")" | operand ( cmp operand )?
    operand  ::= nexpr | term
    nexpr    ::= "#" ident "(" args ")" | int | ident "(" args ")" | ident
    term     ::= ident | "'" ident | "*"
    tvars    ::= tvar ( "," tvar )*
    tvar     ::= ident ":" ident | ident      (bare name inherits last sort)
    v}

    Variables are bare identifiers; constants are ['quoted]; [*] is the
    wildcard. An identifier followed by a comparison operator (and not by
    an argument list) parses as a named integer constant ([NConst]). *)

open Ast

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | QCONST of string
  | INT of int
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | TURNSTILE (* :- *)
  | ARROW (* => *)
  | DARROW (* <=> *)
  | LE
  | LT
  | GE
  | GT
  | EQEQ
  | NEQ
  | HASH
  | PLUS
  | MINUS
  | STAR
  | ASSIGN (* := , used by the spec-file parser *)
  | EOF

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %S" s
  | QCONST s -> Fmt.pf ppf "constant '%s" s
  | INT n -> Fmt.pf ppf "integer %d" n
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | COMMA -> Fmt.string ppf "','"
  | COLON -> Fmt.string ppf "':'"
  | TURNSTILE -> Fmt.string ppf "':-'"
  | ARROW -> Fmt.string ppf "'=>'"
  | DARROW -> Fmt.string ppf "'<=>'"
  | LE -> Fmt.string ppf "'<='"
  | LT -> Fmt.string ppf "'<'"
  | GE -> Fmt.string ppf "'>='"
  | GT -> Fmt.string ppf "'>'"
  | EQEQ -> Fmt.string ppf "'=='"
  | NEQ -> Fmt.string ppf "'!='"
  | HASH -> Fmt.string ppf "'#'"
  | PLUS -> Fmt.string ppf "'+'"
  | MINUS -> Fmt.string ppf "'-'"
  | STAR -> Fmt.string ppf "'*'"
  | ASSIGN -> Fmt.string ppf "':='"
  | EOF -> Fmt.string ppf "end of input"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** Tokenize a whole string. *)
let tokenize (s : string) : token list =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev (EOF :: acc)
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if is_ident_start c then (
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        go !j (IDENT (String.sub s i (!j - i)) :: acc))
      else if is_digit c then (
        let j = ref i in
        while !j < n && is_digit s.[!j] do
          incr j
        done;
        go !j (INT (int_of_string (String.sub s i (!j - i))) :: acc))
      else
        let two = if i + 1 < n then String.sub s i 2 else "" in
        match two with
        | ":-" -> go (i + 2) (TURNSTILE :: acc)
        | ":=" -> go (i + 2) (ASSIGN :: acc)
        | "=>" -> go (i + 2) (ARROW :: acc)
        | "==" -> go (i + 2) (EQEQ :: acc)
        | "!=" -> go (i + 2) (NEQ :: acc)
        | ">=" -> go (i + 2) (GE :: acc)
        | "<=" ->
            if i + 2 < n && s.[i + 2] = '>' then go (i + 3) (DARROW :: acc)
            else go (i + 2) (LE :: acc)
        | _ -> (
            match c with
            | '(' -> go (i + 1) (LPAREN :: acc)
            | ')' -> go (i + 1) (RPAREN :: acc)
            | ',' -> go (i + 1) (COMMA :: acc)
            | ':' -> go (i + 1) (COLON :: acc)
            | '<' -> go (i + 1) (LT :: acc)
            | '>' -> go (i + 1) (GT :: acc)
            | '#' -> go (i + 1) (HASH :: acc)
            | '+' -> go (i + 1) (PLUS :: acc)
            | '-' -> go (i + 1) (MINUS :: acc)
            | '*' -> go (i + 1) (STAR :: acc)
            | '\'' ->
                let j = ref (i + 1) in
                while !j < n && is_ident_char s.[!j] do
                  incr j
                done;
                if !j = i + 1 then fail "empty quoted constant at offset %d" i;
                go !j (QCONST (String.sub s (i + 1) (!j - i - 1)) :: acc)
            | _ -> fail "unexpected character %C at offset %d" c i)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = { mutable toks : token list }

let peek st = match st.toks with [] -> EOF | t :: _ -> t

let peek2 st =
  match st.toks with [] | [ _ ] -> EOF | _ :: t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else fail "expected %a but found %a" pp_token tok pp_token got

let expect_ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> fail "expected identifier, found %a" pp_token t

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_term_tok st : term =
  match peek st with
  | IDENT s ->
      advance st;
      Var s
  | QCONST s ->
      advance st;
      Const s
  | STAR ->
      advance st;
      Star
  | t -> fail "expected term, found %a" pp_token t

let parse_args st : term list =
  expect st LPAREN;
  if peek st = RPAREN then (
    advance st;
    [])
  else
    let rec loop acc =
      let t = parse_term_tok st in
      match peek st with
      | COMMA ->
          advance st;
          loop (t :: acc)
      | RPAREN ->
          advance st;
          List.rev (t :: acc)
      | tok -> fail "expected ',' or ')', found %a" pp_token tok
    in
    loop []

(* tvars: Sort:name, name, Sort2:name2 ... *)
let parse_tvars st : tvar list =
  let rec loop last_sort acc =
    let first = expect_ident st in
    let v =
      if peek st = COLON then (
        advance st;
        let name = expect_ident st in
        { vname = name; vsort = first })
      else
        match last_sort with
        | Some s -> { vname = first; vsort = s }
        | None -> fail "variable %s has no sort" first
    in
    match peek st with
    | COMMA ->
        advance st;
        loop (Some v.vsort) (v :: acc)
    | _ -> List.rev (v :: acc)
  in
  loop None []

let cmp_of_token = function
  | LE -> Some Le
  | LT -> Some Lt
  | GE -> Some Ge
  | GT -> Some Gt
  | EQEQ -> Some EqN
  | NEQ -> Some NeN
  | _ -> None

(* An operand is either a numeric expression or a plain term; which one it
   is becomes clear from context once the comparison operator (or absence
   of one) is known. *)
type operand = O_num of nexpr | O_term of term | O_atom of string * term list

let rec parse_nexpr_operand st : operand =
  let base =
    match peek st with
    | HASH ->
        advance st;
        let p = expect_ident st in
        let args = parse_args st in
        O_num (Card (p, args))
    | INT n ->
        advance st;
        O_num (Int n)
    | QCONST s ->
        advance st;
        O_term (Const s)
    | STAR ->
        advance st;
        O_term Star
    | IDENT s -> (
        advance st;
        if peek st = LPAREN then
          let args = parse_args st in
          O_atom (s, args)
        else O_term (Var s))
    | t -> fail "expected operand, found %a" pp_token t
  in
  match peek st with
  | PLUS ->
      advance st;
      let rhs = parse_nexpr_operand st in
      O_num (NAdd (num_of_operand base, num_of_operand rhs))
  | MINUS ->
      advance st;
      let rhs = parse_nexpr_operand st in
      O_num (NSub (num_of_operand base, num_of_operand rhs))
  | _ -> base

and num_of_operand = function
  | O_num n -> n
  | O_term (Var v) -> NConst v
  | O_term (Const c) -> fail "constant '%s cannot be used numerically" c
  | O_term Star -> fail "wildcard cannot be used numerically"
  | O_atom (f, args) -> NFun (f, args)

let rec parse_formula_prec st : formula =
  match peek st with
  | IDENT "forall" when peek2 st = LPAREN ->
      advance st;
      expect st LPAREN;
      let vs = parse_tvars st in
      expect st RPAREN;
      expect st TURNSTILE;
      let body = parse_formula_prec st in
      Forall (vs, body)
  | IDENT "exists" when peek2 st = LPAREN ->
      advance st;
      expect st LPAREN;
      let vs = parse_tvars st in
      expect st RPAREN;
      expect st TURNSTILE;
      let body = parse_formula_prec st in
      Exists (vs, body)
  | _ -> parse_iff st

and parse_iff st =
  let lhs = parse_impl st in
  if peek st = DARROW then (
    advance st;
    let rhs = parse_impl st in
    Iff (lhs, rhs))
  else lhs

and parse_impl st =
  let lhs = parse_or st in
  if peek st = ARROW then (
    advance st;
    let rhs = parse_impl st in
    Implies (lhs, rhs))
  else lhs

and parse_or st =
  let lhs = parse_and st in
  let rec loop acc =
    match peek st with
    | IDENT "or" ->
        advance st;
        let rhs = parse_and st in
        loop (Or (acc, rhs))
    | _ -> acc
  in
  loop lhs

and parse_and st =
  let lhs = parse_not st in
  let rec loop acc =
    match peek st with
    | IDENT "and" ->
        advance st;
        let rhs = parse_not st in
        loop (And (acc, rhs))
    | _ -> acc
  in
  loop lhs

and parse_not st =
  match peek st with
  | IDENT "not" ->
      advance st;
      let f = parse_not st in
      Not f
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | IDENT "true" when peek2 st <> LPAREN ->
      advance st;
      True
  | IDENT "false" when peek2 st <> LPAREN ->
      advance st;
      False
  | IDENT ("forall" | "exists") when peek2 st = LPAREN ->
      parse_formula_prec st
  | LPAREN ->
      advance st;
      let f = parse_formula_prec st in
      expect st RPAREN;
      f
  | _ -> (
      let lhs = parse_nexpr_operand st in
      match cmp_of_token (peek st) with
      | Some op -> (
          advance st;
          let rhs = parse_nexpr_operand st in
          (* term == term is equality; anything numeric is Cmp *)
          match (op, lhs, rhs) with
          | EqN, O_term a, O_term b -> Eq (a, b)
          | NeN, O_term a, O_term b -> Not (Eq (a, b))
          | _ -> Cmp (op, num_of_operand lhs, num_of_operand rhs))
      | None -> (
          match lhs with
          | O_atom (p, args) -> Atom (p, args)
          | O_term (Var v) ->
              (* nullary predicate written without parens *)
              Atom (v, [])
          | _ -> fail "expected formula"))

(** Parse a complete formula from a string. *)
let parse_formula (s : string) : formula =
  let st = { toks = tokenize s } in
  let f = parse_formula_prec st in
  (match peek st with
  | EOF -> ()
  | t -> fail "trailing input after formula: %a" pp_token t);
  f
