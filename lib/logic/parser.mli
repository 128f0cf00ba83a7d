(** Recursive-descent parser for the specification's formula syntax
    (see the grammar in the implementation header).  Variables are bare
    identifiers, constants are ['quoted], [*] is the wildcard. *)

exception Parse_error of string

(** Lexer tokens, exposed for reuse by the specification-file parser. *)
type token =
  | IDENT of string
  | QCONST of string
  | INT of int
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | TURNSTILE
  | ARROW
  | DARROW
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
  | ASSIGN
  | EOF

val tokenize : string -> token list

(** Parse a complete formula; raises {!Parse_error}. *)
val parse_formula : string -> Ast.formula
