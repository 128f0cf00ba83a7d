(** The incremental analysis server behind [ipa_tool serve]: a
    line-oriented stdin/stdout protocol whose {!Anactx} persists across
    analyses, so re-analyzing an edited specification re-solves only the
    proof obligations whose content-addressed keys ({!Oblig}) the edit
    reached.

    Requests: [load <path|catalog>], [spec <n>] (+ n raw lines),
    [analyze], [stats], [jobs <n>], [reset], [help], [quit].  Replies
    end with an [ok ...] / [err ...] line; multi-line payloads are
    length-prefixed ([report <k>], [stats <k>]).  [analyze]'s [ok] line
    carries {e delta} counters for that analysis alone (solves,
    obligation and case hits/misses, reuse rate) plus [changed=<bool>]
    against the previous report, the wall time, and last the step
    memo's pair-verdict and repair-search hits/misses.  The context is dropped automatically
    only when an edit changes the sort/predicate signature or the
    constants (which the grounding cache assumes fixed). *)

open Ipa_spec

(** One server session: current spec, persistent analysis context,
    previous report. *)
type t

val create : ?jobs:int -> unit -> t

(** Resolve a catalog name ([tournament|twitter|ticket|tpcw|tpcc]),
    else parse a [.ipa] file. *)
val load_spec : string -> Types.t

(** Execute one request line; [readline] supplies the continuation
    lines of [spec <n>].  Returns the reply lines and whether the
    session continues ([false] after [quit]). *)
val exec : t -> readline:(unit -> string option) -> string ->
  string list * bool

(** Serve requests from the channel until [quit] or end of input. *)
val serve : ?jobs:int -> in_channel -> out_channel -> unit

(** Run a whole scripted session (tests): request lines in, reply
    lines out. *)
val run_lines : ?jobs:int -> string list -> string list
