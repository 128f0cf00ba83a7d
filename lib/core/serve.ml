(** The incremental analysis server behind [ipa_tool serve].

    A line-oriented stdin/stdout protocol for editor and build-tool
    integration: load a specification, re-send it after each edit, and
    re-analyze — the session's {!Anactx} persists across analyses, so a
    re-analysis after an edit re-solves only the proof obligations whose
    content-addressed keys the edit actually changed (see {!Oblig}) and
    answers the rest from cache.

    Protocol (requests are single lines; replies end with an [ok ...] or
    [err ...] line, multi-line payloads are length-prefixed):

    {v
    load <path|catalog-name>      load a spec from disk or the catalog
    spec <n>                      followed by n raw lines of spec text
    analyze                       run the IPA loop, print the report
    stats                         print cumulative solver/cache stats
    jobs <n>                      set worker domains for later analyzes
    reset                         drop the analysis context (cold cache)
    help                          list commands
    quit                          end the session
    v}

    Replies: [load]/[spec] answer
    [ok <cmd> name=<n> ops=<k> invariants=<k> ctx=<kept|reset>] — the
    context is reset only when the edit changed the sort/predicate
    declarations (numeric bounds included) or the constants, which the
    grounding cache and the obligation keys assume fixed;
    any other edit keeps every cache entry it does not invalidate.  A
    spec that does not load answers [err <cmd> <faults>], its faults
    located as [ipa_tool] prints them ([<name>:<line>: <msg>] or
    [<name>: <where>: <what>], joined by ["; "]; a [spec] text is named
    after the spec last loaded), and the session goes on with the
    previous spec.  [analyze] answers [report <k>] followed by [k]
    report lines, then
    [ok analyze iterations=<i> solves=<d> obligations=<hits>/<misses>
    cases=<hits>/<misses> reuse=<pct>%% changed=<bool> seconds=<s>
    pairs=<hits>/<misses> repairs=<hits>/<misses>]
    where the counters are {e deltas} for this analysis alone, [pairs]
    and [repairs] are the step memo's pair verdicts and repair searches
    ({!Anactx.step}), [reuse] counts the memo's hits as reuse
    ({!Anactx.reuse_rate}), and [changed] says whether the report text
    differs from the previous analysis's. *)

open Ipa_logic
open Ipa_spec

type t = {
  mutable spec : Types.t option;
  mutable name : string;
  mutable ctx : Anactx.t;
  mutable sig_key :
    (Ast.sort list * Types.pred_decl list * (string * int) list) option;
  mutable last_report : string option;
  mutable jobs : int;
}

let create ?(jobs = 1) () : t =
  {
    spec = None;
    name = "-";
    ctx = Anactx.create ();
    sig_key = None;
    last_report = None;
    jobs;
  }

let catalog_spec = function
  | "tournament" -> Some (Catalog.tournament ())
  | "twitter" -> Some (Catalog.twitter ())
  | "ticket" -> Some (Catalog.ticket ())
  | "tpcw" -> Some (Catalog.tpcw ())
  | "tpcc" -> Some (Catalog.tpcc ())
  | _ -> None

(** Resolve a catalog name, else parse a [.ipa] file. *)
let load_spec (path : string) : Types.t =
  match catalog_spec path with
  | Some s -> s
  | None -> Spec_parser.parse_file path

(* install a (re-)loaded spec; the context survives unless the sort
   or predicate declarations or the constants changed (the grounding
   cache assumes them fixed, and the obligation keys leave out the
   numeric predicates' bounds, which the solver's integer encoding
   reads — operation, rule and invariant edits are safe to keep) *)
let install (t : t) ~(verb : string) ~(name : string) (spec : Types.t) :
    string =
  let key = (spec.sorts, spec.preds, spec.consts) in
  let reset = match t.sig_key with Some k -> k <> key | None -> false in
  if reset then t.ctx <- Anactx.create ();
  t.sig_key <- Some key;
  t.spec <- Some spec;
  t.name <- name;
  Fmt.str "ok %s name=%s ops=%d invariants=%d ctx=%s" verb name
    (List.length spec.operations)
    (List.length spec.invariants)
    (if reset then "reset" else "kept")

let split_lines (s : string) : string list =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rev -> List.rev rev
  | _ -> String.split_on_char '\n' s

let analyze (t : t) : string list =
  match t.spec with
  | None -> [ "err analyze no specification loaded" ]
  | Some spec ->
      let s0 = Anactx.snapshot (Anactx.stats t.ctx) in
      let t0 = Unix.gettimeofday () in
      let report = Ipa.run ~ctx:t.ctx ~jobs:t.jobs spec in
      let dt = Unix.gettimeofday () -. t0 in
      let str = Report.report_to_string report in
      let changed =
        match t.last_report with None -> true | Some p -> p <> str
      in
      t.last_report <- Some str;
      let d = Anactx.diff (Anactx.stats t.ctx) s0 in
      let lines = split_lines str in
      (Fmt.str "report %d" (List.length lines) :: lines)
      @ [
          Fmt.str
            "ok analyze iterations=%d solves=%d obligations=%d/%d \
             cases=%d/%d reuse=%.1f%% changed=%b seconds=%.3f"
            report.Ipa.iterations d.sat_calls d.oblig_hits d.oblig_misses
            d.case_hits d.case_misses
            (100.0 *. Anactx.reuse_rate d)
            changed dt
          (* a second call, not a longer format: an application of 13
             arguments would add a startup helper ([caml_apply13]) and
             move the code linked after it (ROADMAP (g)) *)
          ^ Fmt.str " pairs=%d/%d repairs=%d/%d" d.pair_hits d.pair_misses
              d.repair_hits d.repair_misses;
        ]

let stats_reply (t : t) : string list =
  let lines =
    split_lines (Fmt.str "%a" Anactx.pp_stats (Anactx.stats t.ctx))
  in
  (Fmt.str "stats %d" (List.length lines) :: lines) @ [ "ok stats" ]

let help_reply : string list =
  [
    "commands:";
    "  load <path|catalog>   load a spec (tournament|twitter|ticket|tpcw|tpcc)";
    "  spec <n>              followed by n raw lines of spec text";
    "  analyze               run the IPA loop, print report + delta stats";
    "  stats                 cumulative solver/cache statistics";
    "  jobs <n>              worker domains for later analyzes";
    "  reset                 drop the analysis context (cold cache)";
    "  quit                  end the session";
    "ok help";
  ]

(* the one-line reply to a spec that failed to load: every fault,
   located as [Spec_parser.error_lines] has it *)
let load_error verb ~file e =
  match Spec_parser.error_lines ~file e with
  | Some lines -> [ Fmt.str "err %s %s" verb (String.concat "; " lines) ]
  | None -> raise e

(** Execute one request line; [readline] supplies the continuation
    lines of [spec <n>].  Returns the reply lines and whether the
    session continues. *)
let exec (t : t) ~(readline : unit -> string option) (line : string) :
    string list * bool =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ([], true)
  | [ "load"; arg ] -> (
      match load_spec arg with
      | spec -> ([ install t ~verb:"load" ~name:arg spec ], true)
      | exception e -> (load_error "load" ~file:arg e, true))
  | [ "spec"; n ] -> (
      match int_of_string_opt n with
      | None | Some 0 -> ([ "err spec bad line count" ], true)
      | Some n -> (
          let buf = Buffer.create 256 in
          let short = ref false in
          for _ = 1 to n do
            match readline () with
            | Some l ->
                Buffer.add_string buf l;
                Buffer.add_char buf '\n'
            | None -> short := true
          done;
          if !short then ([ "err spec truncated input" ], true)
          else
            match Spec_parser.parse_string (Buffer.contents buf) with
            | spec -> ([ install t ~verb:"spec" ~name:t.name spec ], true)
            | exception e -> (load_error "spec" ~file:t.name e, true)))
  | [ "analyze" ] -> (analyze t, true)
  | [ "stats" ] -> (stats_reply t, true)
  | [ "jobs"; n ] -> (
      match int_of_string_opt n with
      | None -> ([ "err jobs bad count" ], true)
      | Some n ->
          t.jobs <- Ipa_par.Pool.clamp n;
          ([ Fmt.str "ok jobs n=%d" t.jobs ], true))
  | [ "reset" ] ->
      t.ctx <- Anactx.create ();
      ([ "ok reset" ], true)
  | [ "help" ] -> (help_reply, true)
  | [ "quit" ] | [ "exit" ] -> ([ "ok quit" ], false)
  | cmd :: _ -> ([ "err unknown command " ^ cmd ], true)

(* answer the requests [readline] supplies until [quit] or end of input *)
let session ~jobs ~readline ~reply =
  let t = create ~jobs () in
  let rec loop () =
    match readline () with
    | None -> ()
    | Some line ->
        let out, continue_ = exec t ~readline line in
        reply out;
        if continue_ then loop ()
  in
  loop ()

(** Serve requests from [ic] to [oc] until [quit] or end of input. *)
let serve ?(jobs = 1) (ic : in_channel) (oc : out_channel) : unit =
  session ~jobs
    ~readline:(fun () -> try Some (input_line ic) with End_of_file -> None)
    ~reply:(fun out ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        out;
      flush oc)

(** Run a whole scripted session (tests): requests in, replies out. *)
let run_lines ?(jobs = 1) (lines : string list) : string list =
  let input = ref lines and out = ref [] in
  session ~jobs
    ~readline:(fun () ->
      match !input with
      | [] -> None
      | l :: rest ->
          input := rest;
          Some l)
    ~reply:(fun o -> out := List.rev_append o !out);
  List.rev !out
