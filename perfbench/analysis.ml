(* The analysis workloads: cold IPA runs over the catalog, and a warm
   [Serve] session replaying single-operation edits.

   Spans wrap the benchmark's own calls into Ipa / Detect / Ground /
   Serve; solver and cache counters are read from [Anactx.stats] (cold
   runs) or from the session's own [stats] reply (warm runs), never from
   inside the library. *)

open Ipa_core
open Perfbench_lib
module Rng = Ipa_sim.Rng
module Types = Ipa_spec.Types

let catalog = [ "ticket"; "tournament"; "twitter"; "tpcw" ]
let sp_ipa = Span.id "core.ipa_run"
let sp_ground = Span.id "logic.ground"
let sp_scan = Span.id "core.detect_scan"
let sp_oblig = Span.id "core.obligation"
let sp_spec = Span.id "serve.spec"
let sp_analyze = Span.id "serve.analyze"

(* ------------------------------------------------------------------ *)
(* Analysis counters                                                   *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable sat_calls : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learnts_removed : int;
  mutable ground_hits : int;
  mutable ground_misses : int;
  mutable pairs_checked : int;
  mutable cands_pruned : int;
  mutable cands_checked : int;
  mutable oblig_hits : int;
  mutable oblig_misses : int;
  mutable case_hits : int;
  mutable case_misses : int;
  mutable iterations : int;
  mutable obligations : int;  (** enumerated by the layer probe *)
}

let counts () =
  {
    sat_calls = 0; conflicts = 0; decisions = 0; propagations = 0; learnts_removed = 0;
    ground_hits = 0; ground_misses = 0; pairs_checked = 0; cands_pruned = 0;
    cands_checked = 0; oblig_hits = 0; oblig_misses = 0; case_hits = 0; case_misses = 0;
    iterations = 0; obligations = 0;
  }

let add_stats (c : counts) (s : Anactx.stats) : unit =
  c.sat_calls <- c.sat_calls + s.Anactx.sat_calls;
  c.conflicts <- c.conflicts + s.sat_conflicts;
  c.decisions <- c.decisions + s.sat_decisions;
  c.propagations <- c.propagations + s.sat_propagations;
  c.learnts_removed <- c.learnts_removed + s.sat_removed;
  c.ground_hits <- c.ground_hits + s.ground_hits;
  c.ground_misses <- c.ground_misses + s.ground_misses;
  c.pairs_checked <- c.pairs_checked + s.pairs_checked;
  c.cands_pruned <- c.cands_pruned + s.cands_pruned;
  c.cands_checked <- c.cands_checked + s.cands_checked;
  c.oblig_hits <- c.oblig_hits + s.oblig_hits;
  c.oblig_misses <- c.oblig_misses + s.oblig_misses;
  c.case_hits <- c.case_hits + s.case_hits;
  c.case_misses <- c.case_misses + s.case_misses

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

(* ------------------------------------------------------------------ *)
(* Cold runs and the golden summaries                                  *)
(* ------------------------------------------------------------------ *)

let outcome_tag = function
  | Ipa.Repaired _ -> "R"
  | Ipa.Compensated _ -> "C"
  | Ipa.Flagged -> "F"

(* One line per spec: iterations, resolutions, flagged pairs and a
   digest of the full report text. *)
let summary (name : string) (r : Ipa.report) : string =
  Printf.sprintf "%s iterations=%d resolutions=%s flagged=%s report_md5=%s" name
    r.Ipa.iterations
    (String.concat ","
       (List.map
          (fun (x : Ipa.resolution) ->
            Printf.sprintf "%s+%s:%s" x.Ipa.r_op1 x.r_op2 (outcome_tag x.r_outcome))
          r.resolutions))
    (String.concat "," (List.map (fun (a, b) -> a ^ "+" ^ b) (Ipa.flagged_pairs r)))
    (Digest.to_hex (Digest.string (Report.report_to_string r)))

let golden_path = "perfbench/golden/catalog.txt"

let read_golden () : (string * string) list =
  let ic = open_in golden_path in
  let rec go acc =
    match input_line ic with
    | l when String.length l > 0 && l.[0] <> '#' ->
        go ((List.hd (String.split_on_char ' ' l), l) :: acc)
    | _ -> go acc
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Cold [Ipa.run] (fresh context); returns the report and seconds. *)
let cold (c : counts) (spec : Types.t) : Ipa.report * float =
  let ctx = Anactx.create () in
  let t0 = Span.now_ns () in
  let r = Span.with_ sp_ipa (fun () -> Ipa.run ~ctx ~jobs:1 spec) in
  let dt = float_of_int (Span.now_ns () - t0) /. 1e9 in
  add_stats c (Anactx.stats ctx);
  c.iterations <- c.iterations + r.Ipa.iterations;
  (r, dt)

(* Layer probe on a final spec, timed from outside Ipa.run: a cold
   Detect.check_pair over every pair, then every per-clause obligation
   enumerated, grounded over its widened domain and discharged. *)
let probe (c : counts) (r : Ipa.report) : unit =
  let spec = Ipa.patched_spec r in
  let ops = Array.of_list r.Ipa.final_ops in
  let pairs = ref [] in
  Array.iteri
    (fun i a -> Array.iteri (fun j b -> if j >= i then pairs := (a, b) :: !pairs) ops)
    ops;
  let pairs = List.rev !pairs in
  let ctx = Anactx.create () in
  Span.with_ sp_scan (fun () ->
      List.iter (fun (a, b) -> ignore (Detect.check_pair ~ctx spec a b)) pairs);
  let sg = Types.signature spec and consts = spec.Types.consts in
  let ctx = Anactx.create () in
  List.iter
    (fun (a, b) ->
      let obs = Span.with_ sp_oblig (fun () -> Detect.obligations spec a b) in
      List.iter
        (fun (ob : Detect.oblig) ->
          c.obligations <- c.obligations + 1;
          let inv = List.nth ob.Detect.ob_invs ob.ob_clause in
          ignore
            (Span.with_ sp_ground (fun () ->
                 Ipa_logic.Ground.ground ~sg ~consts ~dom:ob.ob_dom inv.Types.iformula));
          ignore (Span.with_ sp_oblig (fun () -> Detect.solve_obligation ~ctx spec ob)))
        obs)
    pairs

(* ------------------------------------------------------------------ *)
(* analyze-catalog                                                     *)
(* ------------------------------------------------------------------ *)

type catalog = { specs : (string * Types.t) list; golden : (string * string) list }

(* Parse the four catalog specs, load the golden summaries, and analyze
   the three small specs once so that one-time initialisation is not
   charged to the first measured run. *)
let catalog_setup () : catalog =
  let specs = List.map (fun n -> (n, Serve.load_spec n)) catalog in
  List.iter
    (fun n -> ignore (Ipa.run ~ctx:(Anactx.create ()) ~jobs:1 (List.assoc n specs)))
    [ "ticket"; "twitter"; "tpcw" ];
  { specs; golden = read_golden () }

type pass = { seconds : float; reports : (string * Ipa.report) list; mismatches : int }

(* One cold pass over the catalog, in a seeded order. *)
let catalog_pass (c : counts) (cat : catalog) (rng : Rng.t) : pass =
  let order = Array.of_list cat.specs in
  for i = Array.length order - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let total = ref 0.0 and reports = ref [] in
  Array.iter
    (fun (name, spec) ->
      let r, dt = cold c spec in
      total := !total +. dt;
      reports := (name, r) :: !reports)
    order;
  let mismatches =
    List.length
      (List.filter
         (fun (name, r) -> List.assoc_opt name cat.golden <> Some (summary name r))
         !reports)
  in
  { seconds = !total; reports = List.rev !reports; mismatches }

(* ------------------------------------------------------------------ *)
(* reanalyze-edits                                                     *)
(* ------------------------------------------------------------------ *)

let split_lines (s : string) : string list =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rev -> List.rev rev
  | _ -> String.split_on_char '\n' s

(* Send one request (with continuation lines) to the session. *)
let request (s : Serve.t) (line : string) (more : string list) : string list =
  let q = ref more in
  let readline () =
    match !q with
    | [] -> None
    | x :: rest ->
        q := rest;
        Some x
  in
  fst (Serve.exec s ~readline line)

let failed_reply (reply : string list) : bool =
  match List.rev reply with
  | last :: _ -> not (String.length last >= 2 && String.sub last 0 2 = "ok")
  | [] -> true

let send_spec (s : Serve.t) (text : string) : string list =
  let lines = split_lines text in
  request s (Printf.sprintf "spec %d" (List.length lines)) lines

(* The report lines of an [analyze] reply. *)
let report_lines (reply : string list) : string list =
  match reply with
  | hd :: rest when String.length hd > 7 && String.sub hd 0 7 = "report " ->
      let k = int_of_string (String.sub hd 7 (String.length hd - 7)) in
      List.filteri (fun i _ -> i < k) rest
  | _ -> []

type session = {
  serve : Serve.t;
  texts : string array;  (** rendered spec after each edit *)
}

let grow_ops = 12
let stream_len = 10

(* Grow Twitter and render streams of [stream_len] cumulative
   single-operation edits, each stream starting again from the grown
   base so that edit costs do not drift with the run's length; warm a
   session on the base.  The streams come from a fixed generator and the
   seed sets their order: every seed replays the same edits, so a
   run-to-run difference is the program's, not the draw's. *)
let session_setup ?(grow = grow_ops) ~(edits : int) (seed : int) : session =
  let gen = Rng.create 0 in
  let spec = Ipa_check.Specmut.grow gen (Ipa_spec.Catalog.twitter ()) grow in
  let streams =
    Array.init ((edits + stream_len - 1) / stream_len) (fun k ->
        List.map
          (fun (s, _) -> Ipa_spec.Render.to_string s)
          (Ipa_check.Specmut.edit_stream gen spec (min stream_len (edits - (k * stream_len)))))
  in
  let rng = Rng.create seed in
  for i = Array.length streams - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = streams.(i) in
    streams.(i) <- streams.(j);
    streams.(j) <- t
  done;
  let serve = Serve.create ~jobs:1 () in
  if failed_reply (send_spec serve (Ipa_spec.Render.to_string spec)) then
    failwith "session: spec rejected";
  if failed_reply (request serve "analyze" []) then failwith "session: warm-up failed";
  { serve; texts = Array.of_list (List.concat (Array.to_list streams)) }

(* One edit round trip: the edited spec, then a re-analysis. *)
let edit (s : session) (i : int) : float * string list * bool =
  let t0 = Span.now_ns () in
  let r1 = Span.with_ sp_spec (fun () -> send_spec s.serve s.texts.(i)) in
  let r2 = Span.with_ sp_analyze (fun () -> request s.serve "analyze" []) in
  let ms = float_of_int (Span.now_ns () - t0) /. 1e6 in
  (ms, r2, failed_reply r1 || failed_reply r2)

(* Does the warm report of edit [i] equal a cold analysis of the same
   text?  Runs outside the timed region. *)
let warm_equals_cold (c : counts) (s : session) (i : int) (warm : string list) :
    bool * Ipa.report =
  let spec = Ipa_spec.Spec_parser.parse_string s.texts.(i) in
  let r, _ = cold c spec in
  (report_lines warm = split_lines (Report.report_to_string r), r)

(* Cumulative session counters, from the session's [stats] reply. *)
let session_counts (s : session) : counts =
  let c = counts () in
  List.iter
    (fun l ->
      let l = String.trim l in
      let try_ fmt f = try Scanf.sscanf l fmt f with Scanf.Scan_failure _ | End_of_file | Failure _ -> () in
      try_ "pairs checked %d" (fun n -> c.pairs_checked <- n);
      try_ "SAT solves %d (conflicts %d, decisions %d, propagations %d)"
        (fun n cf d p ->
          c.sat_calls <- n;
          c.conflicts <- cf;
          c.decisions <- d;
          c.propagations <- p);
      try_ "learnt clauses %d (%d removed" (fun _ r -> c.learnts_removed <- r);
      try_ "grounding cache %d hits / %d misses" (fun h m ->
          c.ground_hits <- h;
          c.ground_misses <- m);
      try_ "obligations %d hits / %d misses" (fun h m ->
          c.oblig_hits <- h;
          c.oblig_misses <- m);
      try_ "witness cases %d hits / %d misses" (fun h m ->
          c.case_hits <- h;
          c.case_misses <- m);
      try_ "candidates %d generated, %d pruned by witness, %d solver-checked"
        (fun _ p k ->
          c.cands_pruned <- p;
          c.cands_checked <- k))
    (request s.serve "stats" []);
  c

(* [a - b], field by field. *)
let diff (a : counts) (b : counts) : counts =
  {
    sat_calls = a.sat_calls - b.sat_calls;
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    learnts_removed = a.learnts_removed - b.learnts_removed;
    ground_hits = a.ground_hits - b.ground_hits;
    ground_misses = a.ground_misses - b.ground_misses;
    pairs_checked = a.pairs_checked - b.pairs_checked;
    cands_pruned = a.cands_pruned - b.cands_pruned;
    cands_checked = a.cands_checked - b.cands_checked;
    oblig_hits = a.oblig_hits - b.oblig_hits;
    oblig_misses = a.oblig_misses - b.oblig_misses;
    case_hits = a.case_hits - b.case_hits;
    case_misses = a.case_misses - b.case_misses;
    iterations = a.iterations - b.iterations;
    obligations = a.obligations - b.obligations;
  }

(* Parse the iteration count off an [ok analyze] line. *)
let iterations_of (reply : string list) : int =
  match List.rev reply with
  | last :: _ -> (
      try Scanf.sscanf last "ok analyze iterations=%d" (fun n -> n) with _ -> 0)
  | [] -> 0
