(** Parser for the [.ipa] specification DSL (see the declaration grammar
    in the implementation header and [docs/SPEC_LANGUAGE.md]). *)

exception Syntax_error of { line : int; msg : string }

(** Parse and validate a specification from source text; raises
    {!Syntax_error} or {!Validate.Invalid}. *)
val parse_string : string -> Types.t

(** Parse a specification from a file; raises as {!parse_string}, and
    [Sys_error] when the file cannot be read. *)
val parse_file : string -> Types.t

(** The messages of a specification that failed to load from [file],
    one per fault: [file:line: msg] for a {!Syntax_error},
    [file: where: what] for each {!Validate.Invalid} error, and the
    system's message ([file: reason]) for a [Sys_error]; [None] for any
    other exception. *)
val error_lines : file:string -> exn -> string list option
