(** The lexer of the [.ipa] language and the recursive-descent parser for
    its formulas (see the grammar and the lexical rules in the
    implementation header).  Variables are bare identifiers, constants
    are ['quoted], [*] is the wildcard. *)

exception Parse_error of string

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
  | TURNSTILE  (** [:-] *)
  | ASSIGN  (** [:=] *)
  | EQ
  | ARROW  (** [=>] *)
  | DARROW  (** [<=>] *)
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
  | BAD of string  (** text the lexer cannot read *)
  | EOF

val pp_token : Format.formatter -> token -> unit

(** A token, the line it is on and the offsets of its first character
    and one past its last. *)
type lexeme = { tok : token; line : int; start : int; stop : int }

(** Lex a whole source text, comments skipped; lines count from 1. *)
val tokenize : string -> lexeme list

(** {1 Token streams} *)

type stream

(** [stream src lexemes] reads [lexemes], lexed from [src]; past the
    last one it reads [EOF]. *)
val stream : string -> lexeme list -> stream

val peek : stream -> token
val advance : stream -> unit

(** Consume the next token, which must be the given one. *)
val expect : stream -> token -> unit

val expect_ident : stream -> string

(** The line of the next token (of the last one at the end). *)
val line : stream -> int

(** Consume the tokens before the next [tok] (or the end) and return
    them with the source text they span, as written. *)
val until : stream -> token -> token list * string

(** {1 Grammar} *)

(** ["(" term, ... ")"] *)
val args : stream -> Ast.term list

(** [Sort:name, name, ...]: a bare name inherits the previous sort. *)
val tvars : stream -> Ast.tvar list

val formula : stream -> Ast.formula

(** Parse a complete formula; raises {!Parse_error}. *)
val parse_formula : string -> Ast.formula
