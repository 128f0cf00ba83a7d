(** Shared analysis context: caches and statistics for one analysis run.

    Every stage of the pipeline ({!Detect}, {!Repair}, {!Ipa}) accepts an
    optional context.  When present it provides

    - a {e grounding cache}: grounded invariant clauses keyed by
      (formula, domain).  The clauses of a pair are identical across all
      repair candidates and rule choices, yet were previously re-ground
      for each of them;
    - {e verdict caches} for [Detect.sequentially_safe] and
      [Repair.preserves_intent], keyed by the operation's base/current
      effects and the canonical convergence rules;
    - the switches for the caches and for witness-guided candidate
      pruning (both on by default), so benchmarks can measure the
      uninstrumented baseline with the same code path;
    - aggregated counters: SAT calls/conflicts/decisions/propagations,
      cache hit rates, candidates generated/pruned/checked, and per-pair
      wall time.

    A context may be reused across runs (counters accumulate) but must
    not be shared between different specifications: the grounding cache
    assumes the signature and constants are fixed — only operations and
    convergence rules may vary, which the cache keys account for. *)

open Ipa_logic
open Ipa_spec

type stats = {
  mutable sat_calls : int;  (** [Encode.solve] invocations *)
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable sat_learnts : int;  (** learnt clauses created *)
  mutable sat_removed : int;  (** learnt clauses deleted by DB reduction *)
  mutable ground_hits : int;
  mutable ground_misses : int;
  mutable verdict_hits : int;
  mutable verdict_misses : int;
  mutable cands_generated : int;  (** repair candidates consumed *)
  mutable cands_pruned : int;  (** (candidate, rules) checks skipped *)
  mutable cands_checked : int;  (** (candidate, rules) full SAT checks *)
  mutable pairs_checked : int;  (** [Detect.check_pair] invocations *)
  mutable oblig_hits : int;  (** clause obligations answered from cache *)
  mutable oblig_misses : int;  (** clause obligations discharged by SAT *)
  mutable case_hits : int;  (** witness extractions answered from cache *)
  mutable case_misses : int;  (** witness extractions solved *)
  pair_seconds : (string * string, float) Hashtbl.t;
      (** accumulated wall time attributed to each operation pair *)
  mutable total_seconds : float;
}

type t = {
  cache : bool;
  prune : bool;
  ground_tbl : (Ast.formula * Ground.domain, Ground.gformula) Hashtbl.t;
  seq_tbl : (verdict_key, bool) Hashtbl.t;
  intent_tbl : (verdict_key, bool) Hashtbl.t;
  oblig_tbl : (Oblig.key, bool) Hashtbl.t;
      (** per-clause obligation verdicts ([true] = violable), keyed by
          content so specification edits invalidate implicitly *)
  case_tbl : (Oblig.key, Oblig.witness option) Hashtbl.t;
      (** whole-case witness extractions ([k_clause = -1]) — replaying
          the exact solver query keeps reports bit-identical *)
  mutable frozen : ro option;
      (** read-only snapshot of another context's caches, consulted on
          a private-table miss; see {!freeze}/{!share} *)
  stats : stats;
}

(** An immutable snapshot of a context's caches.  Workers of a parallel
    scan all {!share} one snapshot: reads of a frozen [Hashtbl] from
    many domains are safe precisely because nobody writes it — every
    insertion goes to the sharing worker's private tables instead. *)
and ro = {
  ro_ground : (Ast.formula * Ground.domain, Ground.gformula) Hashtbl.t;
  ro_seq : (verdict_key, bool) Hashtbl.t;
  ro_intent : (verdict_key, bool) Hashtbl.t;
  ro_oblig : (Oblig.key, bool) Hashtbl.t;
  ro_case : (Oblig.key, Oblig.witness option) Hashtbl.t;
}

(** Everything a per-operation verdict can depend on besides the fixed
    parts of the spec: the operation's base and current effects, its
    parameters, and the effective convergence rules. *)
and verdict_key =
  string
  * Ast.tvar list
  * Types.annotated_effect list
  * Types.annotated_effect list
  * (string * Types.conv_rule) list

let fresh_stats () =
  {
    sat_calls = 0;
    sat_conflicts = 0;
    sat_decisions = 0;
    sat_propagations = 0;
    sat_learnts = 0;
    sat_removed = 0;
    ground_hits = 0;
    ground_misses = 0;
    verdict_hits = 0;
    verdict_misses = 0;
    cands_generated = 0;
    cands_pruned = 0;
    cands_checked = 0;
    pairs_checked = 0;
    oblig_hits = 0;
    oblig_misses = 0;
    case_hits = 0;
    case_misses = 0;
    pair_seconds = Hashtbl.create 16;
    total_seconds = 0.0;
  }

let create ?(cache = true) ?(prune = true) () =
  {
    cache;
    prune;
    ground_tbl = Hashtbl.create 64;
    seq_tbl = Hashtbl.create 64;
    intent_tbl = Hashtbl.create 64;
    oblig_tbl = Hashtbl.create 256;
    case_tbl = Hashtbl.create 64;
    frozen = None;
    stats = fresh_stats ();
  }

(** A context with the same cache/prune switches as [like] but empty
    caches and zeroed counters — per-domain state for parallel analysis
    (the mutable hashtables are not domain-safe and must never be
    shared; a {!frozen} snapshot may be). *)
let fresh ~(like : t) : t =
  create ~cache:like.cache ~prune:like.prune ()

(** Snapshot [t]'s caches for read-only sharing.  The copies belong to
    the snapshot alone: [t] may keep mutating its live tables. *)
let freeze (t : t) : ro =
  {
    ro_ground = Hashtbl.copy t.ground_tbl;
    ro_seq = Hashtbl.copy t.seq_tbl;
    ro_intent = Hashtbl.copy t.intent_tbl;
    ro_oblig = Hashtbl.copy t.oblig_tbl;
    ro_case = Hashtbl.copy t.case_tbl;
  }

(** Point [t]'s miss path at a frozen snapshot (replacing any previous
    one).  [t] itself stays private to its worker. *)
let share (t : t) (ro : ro) : unit = t.frozen <- Some ro

(** Fold [child]'s counters (and per-pair wall times) into [into]. *)
let merge_stats ~(into : t) (child : t) : unit =
  let a = into.stats and b = child.stats in
  a.sat_calls <- a.sat_calls + b.sat_calls;
  a.sat_conflicts <- a.sat_conflicts + b.sat_conflicts;
  a.sat_decisions <- a.sat_decisions + b.sat_decisions;
  a.sat_propagations <- a.sat_propagations + b.sat_propagations;
  a.sat_learnts <- a.sat_learnts + b.sat_learnts;
  a.sat_removed <- a.sat_removed + b.sat_removed;
  a.ground_hits <- a.ground_hits + b.ground_hits;
  a.ground_misses <- a.ground_misses + b.ground_misses;
  a.verdict_hits <- a.verdict_hits + b.verdict_hits;
  a.verdict_misses <- a.verdict_misses + b.verdict_misses;
  a.cands_generated <- a.cands_generated + b.cands_generated;
  a.cands_pruned <- a.cands_pruned + b.cands_pruned;
  a.cands_checked <- a.cands_checked + b.cands_checked;
  a.pairs_checked <- a.pairs_checked + b.pairs_checked;
  a.oblig_hits <- a.oblig_hits + b.oblig_hits;
  a.oblig_misses <- a.oblig_misses + b.oblig_misses;
  a.case_hits <- a.case_hits + b.case_hits;
  a.case_misses <- a.case_misses + b.case_misses;
  Hashtbl.iter
    (fun pair dt ->
      let prev =
        Option.value ~default:0.0 (Hashtbl.find_opt a.pair_seconds pair)
      in
      Hashtbl.replace a.pair_seconds pair (prev +. dt))
    b.pair_seconds;
  a.total_seconds <- a.total_seconds +. b.total_seconds

(** Move [child]'s cache entries and counters into [into], leaving
    [child] empty (tables cleared, counters zeroed, snapshot dropped).
    After a parallel scan the parent absorbs every worker, so the next
    {!freeze} hands all of this round's discoveries to all of the next
    round's workers — without absorption each worker re-derives what
    its siblings already paid for.  Zeroing [child]'s counters keeps a
    later {!merge_stats} of the same child (e.g. the pool teardown's
    final sweep) from double-counting this round's work. *)
let absorb ~(into : t) (child : t) : unit =
  let move src dst =
    Hashtbl.iter
      (fun k v -> if not (Hashtbl.mem dst k) then Hashtbl.add dst k v)
      src;
    Hashtbl.reset src
  in
  move child.ground_tbl into.ground_tbl;
  move child.seq_tbl into.seq_tbl;
  move child.intent_tbl into.intent_tbl;
  move child.oblig_tbl into.oblig_tbl;
  move child.case_tbl into.case_tbl;
  child.frozen <- None;
  merge_stats ~into child;
  let s = child.stats in
  s.sat_calls <- 0;
  s.sat_conflicts <- 0;
  s.sat_decisions <- 0;
  s.sat_propagations <- 0;
  s.sat_learnts <- 0;
  s.sat_removed <- 0;
  s.ground_hits <- 0;
  s.ground_misses <- 0;
  s.verdict_hits <- 0;
  s.verdict_misses <- 0;
  s.cands_generated <- 0;
  s.cands_pruned <- 0;
  s.cands_checked <- 0;
  s.pairs_checked <- 0;
  s.oblig_hits <- 0;
  s.oblig_misses <- 0;
  s.case_hits <- 0;
  s.case_misses <- 0;
  Hashtbl.reset s.pair_seconds;
  s.total_seconds <- 0.0

let stats t = t.stats
let prune_enabled = function Some t -> t.prune | None -> false

(* ------------------------------------------------------------------ *)
(* Cache operations (all tolerate a missing context)                   *)
(* ------------------------------------------------------------------ *)

(* private table first, then the shared frozen snapshot (a frozen hit
   is still a hit — the work was saved); inserts go to the private
   table only, so the snapshot stays read-only across domains *)
let frozen_find (c : t) (proj : ro -> ('k, 'v) Hashtbl.t) (key : 'k) :
    'v option =
  match c.frozen with
  | None -> None
  | Some ro -> Hashtbl.find_opt (proj ro) key

let ground (ctx : t option) ~sg ~consts ~dom (f : Ast.formula) :
    Ground.gformula =
  match ctx with
  | Some c when c.cache -> (
      let key = (f, dom) in
      let cached =
        match Hashtbl.find_opt c.ground_tbl key with
        | Some _ as hit -> hit
        | None -> frozen_find c (fun ro -> ro.ro_ground) key
      in
      match cached with
      | Some g ->
          c.stats.ground_hits <- c.stats.ground_hits + 1;
          g
      | None ->
          c.stats.ground_misses <- c.stats.ground_misses + 1;
          let g = Ground.ground ~sg ~consts ~dom f in
          Hashtbl.add c.ground_tbl key g;
          g)
  | Some c ->
      c.stats.ground_misses <- c.stats.ground_misses + 1;
      Ground.ground ~sg ~consts ~dom f
  | None -> Ground.ground ~sg ~consts ~dom f

let verdict_key (spec : Types.t) (base : Types.operation)
    (cur : Types.operation) : verdict_key =
  ( base.oname,
    cur.oparams,
    base.oeffects,
    cur.oeffects,
    Types.canonical_rules spec.rules )

(* memoize [f ()] in [tbl] under [key]; bypass when caching is off *)
let cached_verdict (ctx : t option) which (spec : Types.t)
    (base : Types.operation) (cur : Types.operation) (f : unit -> bool) : bool
    =
  match ctx with
  | Some c when c.cache -> (
      let tbl = match which with `Seq -> c.seq_tbl | `Intent -> c.intent_tbl in
      let proj ro = match which with `Seq -> ro.ro_seq | `Intent -> ro.ro_intent in
      let key = verdict_key spec base cur in
      let cached =
        match Hashtbl.find_opt tbl key with
        | Some _ as hit -> hit
        | None -> frozen_find c proj key
      in
      match cached with
      | Some v ->
          c.stats.verdict_hits <- c.stats.verdict_hits + 1;
          v
      | None ->
          c.stats.verdict_misses <- c.stats.verdict_misses + 1;
          let v = f () in
          Hashtbl.add tbl key v;
          v)
  | Some c ->
      c.stats.verdict_misses <- c.stats.verdict_misses + 1;
      f ()
  | None -> f ()

(* memoize under an obligation key: private table, then frozen
   snapshot, then compute-and-insert — same discipline as the verdict
   caches, so parallel workers share a frozen snapshot safely *)
let oblig_lookup (ctx : t option) (key : Oblig.key) (f : unit -> bool) : bool
    =
  match ctx with
  | Some c when c.cache -> (
      let cached =
        match Hashtbl.find_opt c.oblig_tbl key with
        | Some _ as hit -> hit
        | None -> frozen_find c (fun ro -> ro.ro_oblig) key
      in
      match cached with
      | Some v ->
          c.stats.oblig_hits <- c.stats.oblig_hits + 1;
          v
      | None ->
          c.stats.oblig_misses <- c.stats.oblig_misses + 1;
          let v = f () in
          Hashtbl.add c.oblig_tbl key v;
          v)
  | Some c ->
      c.stats.oblig_misses <- c.stats.oblig_misses + 1;
      f ()
  | None -> f ()

(** Is this obligation's verdict already cached (private table or
    shared snapshot)?  A pure query: no counters move — the eventual
    {!oblig_lookup} that consumes the entry counts the hit.  The
    parallel scan uses it to keep cached obligations out of the
    fan-out: a warm re-scan then crosses no barrier at all. *)
let oblig_cached (ctx : t option) (key : Oblig.key) : bool =
  match ctx with
  | Some c when c.cache ->
      Hashtbl.mem c.oblig_tbl key
      || frozen_find c (fun ro -> ro.ro_oblig) key <> None
  | _ -> false

(** Seed an obligation verdict computed elsewhere (a parallel worker)
    into the private table, without touching the hit/miss counters —
    the computing context already counted the miss.  Lets the parent of
    a fan-out record a block's verdicts directly instead of paying a
    snapshot copy per block. *)
let oblig_put (ctx : t option) (key : Oblig.key) (v : bool) : unit =
  match ctx with
  | Some c when c.cache ->
      if not (Hashtbl.mem c.oblig_tbl key) then Hashtbl.add c.oblig_tbl key v
  | _ -> ()

(* memoize a whole-case witness extraction.  The stored value is the
   exact result of the deterministic solver query, so replays from the
   cache keep reports bit-identical to a from-scratch run *)
let case_lookup (ctx : t option) (key : Oblig.key)
    (f : unit -> Oblig.witness option) : Oblig.witness option =
  match ctx with
  | Some c when c.cache -> (
      let cached =
        match Hashtbl.find_opt c.case_tbl key with
        | Some _ as hit -> hit
        | None -> frozen_find c (fun ro -> ro.ro_case) key
      in
      match cached with
      | Some v ->
          c.stats.case_hits <- c.stats.case_hits + 1;
          v
      | None ->
          c.stats.case_misses <- c.stats.case_misses + 1;
          let v = f () in
          Hashtbl.add c.case_tbl key v;
          v)
  | Some c ->
      c.stats.case_misses <- c.stats.case_misses + 1;
      f ()
  | None -> f ()

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(** Record one [Encode.solve] call: harvest the (fresh, single-use)
    solver's counters into the aggregate. *)
let record_solve (ctx : t option) (enc : Ipa_solver.Encode.ctx) : unit =
  match ctx with
  | None -> ()
  | Some c ->
      let st = Ipa_solver.Sat.stats (Ipa_solver.Encode.solver enc) in
      let s = c.stats in
      s.sat_calls <- s.sat_calls + 1;
      s.sat_conflicts <- s.sat_conflicts + st.Ipa_solver.Sat.n_conflicts;
      s.sat_decisions <- s.sat_decisions + st.Ipa_solver.Sat.n_decisions;
      s.sat_propagations <- s.sat_propagations + st.Ipa_solver.Sat.n_propagations;
      s.sat_learnts <- s.sat_learnts + st.Ipa_solver.Sat.n_learnts;
      s.sat_removed <- s.sat_removed + st.Ipa_solver.Sat.n_removed

(** Time [f], attributing the elapsed wall time to [pair]. *)
let time (ctx : t option) (pair : string * string) (f : unit -> 'a) : 'a =
  match ctx with
  | None -> f ()
  | Some c ->
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Unix.gettimeofday () -. t0 in
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt c.stats.pair_seconds pair)
          in
          Hashtbl.replace c.stats.pair_seconds pair (prev +. dt);
          c.stats.total_seconds <- c.stats.total_seconds +. dt)
        f

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* every reported rate routes through this guard: a zero-solve run
   (cache-only re-analysis, or a spec with no obligations at all) must
   print 0%, never nan *)
let rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let ground_hit_rate s = rate s.ground_hits s.ground_misses
let verdict_hit_rate s = rate s.verdict_hits s.verdict_misses
let oblig_hit_rate s = rate s.oblig_hits s.oblig_misses
let case_hit_rate s = rate s.case_hits s.case_misses

let prune_rate s =
  rate s.cands_pruned (s.cands_checked)

(** [hits / (hits + misses)] over obligations {e and} witness
    extractions together: the fraction of an analysis answered without
    any solver work — the figure of merit of an incremental
    re-analysis.  0 when nothing was asked (guarded, never nan). *)
let reuse_rate s =
  rate (s.oblig_hits + s.case_hits)
    (s.oblig_misses + s.case_misses)

let pair_times (s : stats) : ((string * string) * float) list =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.pair_seconds []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<v>analysis statistics:@,\
    \  wall time          %.3f s@,\
    \  pairs checked      %d@,\
    \  SAT solves         %d  (conflicts %d, decisions %d, propagations %d)@,\
    \  learnt clauses     %d  (%d removed by DB reduction)@,\
    \  grounding cache    %d hits / %d misses  (%.1f%%)@,\
    \  verdict cache      %d hits / %d misses  (%.1f%%)@,\
    \  obligations        %d hits / %d misses  (%.1f%%)@,\
    \  witness cases      %d hits / %d misses  (%.1f%%)@,\
    \  candidates         %d generated, %d pruned by witness, %d solver-checked@]"
    s.total_seconds s.pairs_checked s.sat_calls s.sat_conflicts s.sat_decisions
    s.sat_propagations s.sat_learnts s.sat_removed s.ground_hits
    s.ground_misses
    (100.0 *. ground_hit_rate s)
    s.verdict_hits s.verdict_misses
    (100.0 *. verdict_hit_rate s)
    s.oblig_hits s.oblig_misses
    (100.0 *. oblig_hit_rate s)
    s.case_hits s.case_misses
    (100.0 *. case_hit_rate s)
    s.cands_generated s.cands_pruned s.cands_checked

let pp_pair_times ppf (s : stats) =
  Fmt.pf ppf "@[<v>per-pair wall time:@,";
  List.iter
    (fun ((o1, o2), dt) -> Fmt.pf ppf "  %-40s %.3f s@," (o1 ^ " / " ^ o2) dt)
    (pair_times s);
  Fmt.pf ppf "@]"
