(** Parser for the [.ipa] specification DSL: a declaration layer over
    {!Ipa_logic.Parser}, which lexes the whole text and parses every
    argument list, parameter list and formula.

    The format carries the same information as the paper's annotated
    Java interfaces (Figure 1); [docs/SPEC_LANGUAGE.md] describes it
    with examples.

    Declaration grammar, one declaration per logical line ([formula],
    [args] and [tvars] are {!Ipa_logic.Parser}'s):

    {v
    decl   ::= "app" text                       (the rest of the line)
             | "sort" ident
             | "const" ident "=" int
             | "predicate" ident "(" sorts ")"
             | "numeric" ident "(" sorts ")" ( "in" "[" int "," int "]" )?
             | "invariant" tag? name ":" formula
             | "rule" ident ":" ( "add-wins" | "rem-wins" | "lww" )
             | "operation" name "(" tvars? ")"
             | effect                           (under an operation)
    tag    ::= "[" ( "unique" | "sequential" ) "]"
    effect ::= ident args value "touch"?
    value  ::= ":=" ( "true" | "false" ) | ( "+" | "-" ) "=" int
    sorts  ::= ( ident ( "," ident )* )?
    name   ::= ident | text "." ident           (Compose's App.name)
    int    ::= "-"? digits
    v}

    A line whose first token is a keyword not applied as a predicate
    ([rule(x)] is not a head) starts a declaration; any other line
    directly after an invariant continues that invariant's formula.
    Comments ([//], or [#] without an identifier character after it)
    run to the end of their line.  A [touch] suffix requests the
    payload-preserving add (§4.2.1): [player(p) := true touch]. *)

open Ipa_logic
open Types

exception Syntax_error of { line : int; msg : string }

(* declaration errors surface as the lexer's and formula parser's do,
   and are located at the stream's position once, in [parse_string] *)
let fail fmt = Fmt.kstr (fun s -> raise (Parser.Parse_error s)) fmt

let keywords =
  [
    "app"; "sort"; "const"; "predicate"; "numeric"; "invariant"; "rule";
    "operation";
  ]

(* the keyword a physical line's tokens start a declaration with *)
let head : Parser.lexeme list -> string option = function
  | { tok = IDENT k; _ } :: rest when List.mem k keywords -> (
      match rest with { tok = LPAREN; _ } :: _ -> None | _ -> Some k)
  | _ -> None

(* physical lines (those holding tokens), then logical ones: a line
   that starts no declaration continues an invariant right above it *)
let logical_lines (lexemes : Parser.lexeme list) : Parser.lexeme list list =
  let physical =
    List.fold_left
      (fun acc (l : Parser.lexeme) ->
        match acc with
        | (m :: _ as cur) :: tl when m.Parser.line = l.line -> (l :: cur) :: tl
        | _ -> [ l ] :: acc)
      [] lexemes
    |> List.rev_map List.rev
  in
  List.fold_left
    (fun acc l ->
      match acc with
      | cur :: tl when head cur = Some "invariant" && head l = None ->
          (cur @ l) :: tl
      | _ -> l :: acc)
    [] physical
  |> List.rev

let int st =
  let sign =
    if Parser.peek st = MINUS then (
      Parser.advance st;
      -1)
    else 1
  in
  match Parser.peek st with
  | INT k ->
      Parser.advance st;
      sign * k
  | t -> fail "expected an integer, found %a" Parser.pp_token t

(* the sort names of a predicate declaration *)
let sorts st =
  List.map
    (function Ast.Var s -> s | _ -> fail "expected sort names")
    (Parser.args st)

(* a declared name before [stop]: an identifier, or Compose's qualified
   [App.name], the app name as written on its app line *)
let name st ~stop ~form =
  match Parser.until st stop with
  | [ IDENT _ ], text -> text
  | toks, text -> (
      match List.rev toks with
      | IDENT _ :: DOT :: _ :: _ -> text
      | _ -> fail "expected '%s'" form)

let effect st : annotated_effect =
  let epred = Parser.expect_ident st in
  let eargs = Parser.args st in
  let evalue =
    match Parser.peek st with
    | ASSIGN -> (
        Parser.advance st;
        match Parser.expect_ident st with
        | "true" -> Set true
        | "false" -> Set false
        | other -> fail "expected true or false, got %S" other)
    | (PLUS | MINUS) as t ->
        Parser.advance st;
        Parser.expect st EQ;
        Delta (if t = PLUS then int st else -int st)
    | _ -> fail "effect must use :=, += or -="
  in
  let mode =
    if Parser.peek st = IDENT "touch" then (
      Parser.advance st;
      Touch)
    else Write
  in
  { eff = { epred; eargs; evalue }; mode }

(* the declaration after keyword [k], added to [s] (lists newest first) *)
let declaration (s : t) st = function
  | "app" -> (
      match Parser.until st EOF with
      | [], _ -> fail "expected 'app Name'"
      | _, app_name -> { s with app_name })
  | "sort" -> { s with sorts = Parser.expect_ident st :: s.sorts }
  | "const" ->
      let name = Parser.expect_ident st in
      Parser.expect st EQ;
      { s with consts = (name, int st) :: s.consts }
  | "predicate" ->
      let pname = Parser.expect_ident st in
      { s with preds = { pname; psorts = sorts st; pkind = Bool } :: s.preds }
  | "numeric" ->
      let pname = Parser.expect_ident st in
      let psorts = sorts st in
      let lo, hi =
        if Parser.peek st = IDENT "in" then (
          Parser.advance st;
          Parser.expect st LBRACK;
          let lo = int st in
          Parser.expect st COMMA;
          let hi = int st in
          Parser.expect st RBRACK;
          (lo, hi))
        else (0, 16)
      in
      let p = { pname; psorts; pkind = Numeric { lo; hi } } in
      { s with preds = p :: s.preds }
  | "invariant" ->
      let itag =
        if Parser.peek st = LBRACK then (
          Parser.advance st;
          let tag =
            match Parser.expect_ident st with
            | "unique" -> Tag_unique_id
            | "sequential" -> Tag_sequential_id
            | other -> fail "unknown invariant tag [%s]" other
          in
          Parser.expect st RBRACK;
          Some tag)
        else None
      in
      let iname = name st ~stop:COLON ~form:"invariant name: formula" in
      Parser.expect st COLON;
      let i = { iname; iformula = Parser.formula st; itag } in
      { s with invariants = i :: s.invariants }
  | "rule" ->
      let p = Parser.expect_ident st in
      Parser.expect st COLON;
      let rule =
        match snd (Parser.until st EOF) with
        | "add-wins" -> Add_wins
        | "rem-wins" -> Rem_wins
        | "lww" -> Lww
        | other -> fail "unknown convergence rule %S" other
      in
      { s with rules = (p, rule) :: s.rules }
  | _ (* operation *) ->
      let oname =
        name st ~stop:LPAREN ~form:"operation name(Sort:param, ...)"
      in
      Parser.expect st LPAREN;
      let oparams = if Parser.peek st = RPAREN then [] else Parser.tvars st in
      Parser.expect st RPAREN;
      { s with operations = { oname; oparams; oeffects = [] } :: s.operations }

(** Parse a full specification from source text. The result is validated
    with {!Validate.validate}. *)
let parse_string (src : string) : t =
  let empty =
    {
      app_name = "";
      sorts = [];
      preds = [];
      consts = [];
      invariants = [];
      operations = [];
      rules = [];
    }
  in
  (* [in_op]: effect lines extend the operation declared last *)
  let line (s, in_op) lexemes =
    let st = Parser.stream src lexemes in
    try
      let next =
        match (head lexemes, s.operations) with
        | Some k, _ ->
            Parser.advance st;
            (declaration s st k, k = "operation")
        | None, op :: ops when in_op ->
            let op = { op with oeffects = effect st :: op.oeffects } in
            ({ s with operations = op :: ops }, true)
        | None, _ -> fail "unexpected line outside any declaration"
      in
      match Parser.peek st with
      | EOF -> next
      | t -> fail "expected end of line, found %a" Parser.pp_token t
    with Parser.Parse_error msg ->
      raise (Syntax_error { line = Parser.line st; msg })
  in
  let s, _ =
    List.fold_left line (empty, false) (logical_lines (Parser.tokenize src))
  in
  Validate.validate
    {
      s with
      sorts = List.rev s.sorts;
      preds = List.rev s.preds;
      consts = List.rev s.consts;
      invariants = List.rev s.invariants;
      operations =
        List.rev_map
          (fun o -> { o with oeffects = List.rev o.oeffects })
          s.operations;
      rules = List.rev s.rules;
    }

(** Parse a specification from a file. *)
let parse_file (path : string) : t =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string src

let error_lines ~file = function
  | Syntax_error { line; msg } -> Some [ Fmt.str "%s:%d: %s" file line msg ]
  | Validate.Invalid errs ->
      Some
        (List.map
           (fun (e : Validate.error) ->
             Fmt.str "%s: %s: %s" file e.where e.what)
           errs)
  | Sys_error msg -> Some [ msg ]
  | _ -> None
