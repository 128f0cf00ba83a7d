(** The lexer of the [.ipa] language and the recursive-descent parser for
    its formulas.  The declaration layer ({!Ipa_spec.Spec_parser}) lexes
    a whole specification with {!tokenize} and reads argument lists,
    [Sort:name] lists and formulas with the functions below, over the
    same token stream.

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
    args     ::= "(" ( term ( "," term )* )? ")"
    tvars    ::= tvar ( "," tvar )*
    tvar     ::= ident ":" ident | ident      (bare name inherits last sort)
    v}

    Variables are bare identifiers; constants are ['quoted]; [*] is the
    wildcard. An identifier followed by a comparison operator (and not by
    an argument list) parses as a named integer constant ([NConst]).

    Lexical rules: identifiers are [[A-Za-z_][A-Za-z0-9_]*], integers
    are unsigned digit runs.  [//], and [#] when no identifier character
    follows it, start a comment that runs to the end of the line; [#p]
    is the cardinality operator.  A character the lexer cannot read
    becomes a {!BAD} token, which the parser rejects where it stands. *)

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
  | LBRACK
  | RBRACK
  | COMMA
  | COLON
  | DOT
  | TURNSTILE (* :- *)
  | ASSIGN (* := *)
  | EQ
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
  | BAD of string
  | EOF

type lexeme = { tok : token; line : int; start : int; stop : int }

(* the tokens spelled one way, each before its prefixes *)
let symbols =
  [
    ("<=>", DARROW); (":-", TURNSTILE); (":=", ASSIGN); ("=>", ARROW);
    ("==", EQEQ); ("!=", NEQ); ("<=", LE); (">=", GE); ("(", LPAREN);
    (")", RPAREN); ("[", LBRACK); ("]", RBRACK); (",", COMMA); (":", COLON);
    (".", DOT); ("=", EQ); ("<", LT); (">", GT); ("#", HASH); ("+", PLUS);
    ("-", MINUS); ("*", STAR);
  ]

let pp_token ppf = function
  | IDENT s -> Fmt.pf ppf "identifier %S" s
  | QCONST s -> Fmt.pf ppf "constant '%s" s
  | INT n -> Fmt.pf ppf "integer %d" n
  | BAD s -> Fmt.pf ppf "unreadable %S" s
  | EOF -> Fmt.string ppf "end of input"
  | t -> Fmt.pf ppf "'%s'" (fst (List.find (fun (_, u) -> u = t) symbols))

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

(* [sym] is spelled at offset [i] of [s], from its [j]th character on *)
let rec spelled s i sym j =
  j = String.length sym
  || i + j < String.length s
     && s.[i + j] = sym.[j]
     && spelled s i sym (j + 1)

(* the entry of [symbols] spelled at offset [i] of [s] *)
let rec symbol s i = function
  | [] -> None
  | ((sym, _) as e) :: rest ->
      if spelled s i sym 0 then Some e else symbol s i rest

(* the end of the run of [p] characters of [s] from [i] *)
let rec scan s p i =
  if i < String.length s && p s.[i] then scan s p (i + 1) else i

(* a comment starts at offset [i] of [s]: [//], or [#] with no
   identifier character after it *)
let comment s i =
  spelled s i "//" 0
  || s.[i] = '#'
     && not (i + 1 < String.length s && is_ident_char s.[i + 1])

(* the token at offset [i] of [s] (not a blank or a comment), and its end *)
let token s i =
  let c = s.[i] in
  if c = '\'' then
    let j = scan s is_ident_char (i + 1) in
    let text = String.sub s (i + 1) (j - i - 1) in
    (j, if text = "" then BAD "'" else QCONST text)
  else if is_ident_start c then
    let j = scan s is_ident_char i in
    (j, IDENT (String.sub s i (j - i)))
  else if is_digit c then
    let j = scan s is_digit i in
    let text = String.sub s i (j - i) in
    (j, match int_of_string_opt text with Some k -> INT k | None -> BAD text)
  else
    match symbol s i symbols with
    | Some (sym, tok) -> (i + String.length sym, tok)
    | None -> (i + 1, BAD (String.make 1 c))

(** Lex a whole source text; lines count from 1. *)
let tokenize (s : string) : lexeme list =
  let n = String.length s in
  let rec go i line acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '\n' -> go (i + 1) (line + 1) acc
      | ' ' | '\t' | '\r' -> go (i + 1) line acc
      | _ when comment s i -> go (scan s (fun c -> c <> '\n') i) line acc
      | _ ->
          let stop, tok = token s i in
          go stop line ({ tok; line; start = i; stop } :: acc)
  in
  go 0 1 []

(* ------------------------------------------------------------------ *)
(* Token stream                                                        *)
(* ------------------------------------------------------------------ *)

type stream = { src : string; toks : lexeme array; mutable pos : int }

let stream src lexemes = { src; toks = Array.of_list lexemes; pos = 0 }

let peek st =
  if st.pos < Array.length st.toks then st.toks.(st.pos).tok else EOF

let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok else EOF

let advance st = if st.pos < Array.length st.toks then st.pos <- st.pos + 1

let line st =
  let k = Array.length st.toks in
  if k = 0 then 1 else st.toks.(min st.pos (k - 1)).line

let until st stop =
  let first = st.pos in
  while peek st <> stop && peek st <> EOF do
    advance st
  done;
  if st.pos = first then ([], "")
  else
    let a = st.toks.(first) and b = st.toks.(st.pos - 1) in
    ( List.init (st.pos - first) (fun k -> st.toks.(first + k).tok),
      String.sub st.src a.start (b.stop - a.start) )

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

let args st : term list =
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
let tvars st : tvar list =
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
        O_num (Card (p, args st))
    | INT n ->
        advance st;
        O_num (Int n)
    | QCONST s ->
        advance st;
        O_term (Const s)
    | STAR ->
        advance st;
        O_term Star
    | IDENT s ->
        advance st;
        if peek st = LPAREN then O_atom (s, args st) else O_term (Var s)
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

let rec formula st : formula =
  match peek st with
  | IDENT (("forall" | "exists") as q) when peek2 st = LPAREN ->
      advance st;
      expect st LPAREN;
      let vs = tvars st in
      expect st RPAREN;
      expect st TURNSTILE;
      let body = formula st in
      if q = "forall" then Forall (vs, body) else Exists (vs, body)
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
  | IDENT ("forall" | "exists") when peek2 st = LPAREN -> formula st
  | LPAREN ->
      advance st;
      let f = formula st in
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
  let st = stream s (tokenize s) in
  let f = formula st in
  (match peek st with
  | EOF -> ()
  | t -> fail "trailing input after formula: %a" pp_token t);
  f
