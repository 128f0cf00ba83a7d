(** Analysis context: caches and statistics for one analysis run.

    Every stage of the pipeline ({!Detect}, {!Repair}, {!Ipa}) takes a
    context.  It provides

    - a {e grounding cache}: grounded invariant clauses keyed by
      (formula, domain).  The clauses of a pair are identical across all
      repair candidates and rule choices, yet were previously re-ground
      for each of them;
    - the {e obligation table}: the verdict of every per-clause proof
      obligation ({!Oblig.key}) — pair checks and sequential safety
      alike are decided through it — and the whole-case witness
      extractions.  Keys are content-addressed, so entries survive
      specification edits and invalidate implicitly;
    - {e analysis frames} for the verdict-only obligation queries
      ([Detect.solve_obligation]): one incremental solver per
      unification case's frame — its relevant clauses and the base
      writes' weakest preconditions — keyed by {!Oblig.frame_of}, with
      the verdict of every conjunct query decided on it.  At most
      {!frame_max} frames are kept, least recently used evicted first,
      and an evicted frame's solver is released to the domain's
      recycling pool;
    - one switch for the caches and witness-guided candidate pruning
      (on by default).  [create ~cache:false] is the uncached, unpruned
      reference run that the cache-equivalence test and
      [bench/main.exe analysis] compare against: it keeps no frame
      across queries either;
    - aggregated counters: SAT calls/conflicts/decisions/propagations,
      cache hit rates, candidates generated/pruned/checked, and per-pair
      wall time.

    Every memo table hashes its keys with {!hash}, which reads far
    deeper into a key than [Hashtbl.hash] (see there).

    A context belongs to one domain (its tables are plain hash tables):
    a parallel [Ipa.run] gives each worker its own for the whole call.
    It may be reused across runs (counters accumulate) but must not be
    shared between different specifications: the grounding cache
    assumes the signature and constants are fixed — only operations and
    convergence rules may vary, which the cache keys account for. *)

open Ipa_logic

type stats = {
  mutable sat_calls : int;  (** [Encode.solve] invocations *)
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable sat_learnts : int;  (** learnt clauses created *)
  mutable sat_removed : int;  (** learnt clauses deleted by DB reduction *)
  mutable ground_hits : int;
  mutable ground_misses : int;
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

(** The hash of every memo table: [Hashtbl.hash_param 256 256], the
    widest the runtime allows (it reads at most 256 values of a key,
    breadth first).  [Hashtbl.hash] stops after 10 meaningful values,
    which for these keys — effect lists, domains, clause formulas — is
    the structure they share: a cold tournament run files its 898
    obligation keys under 162 hashes (largest bucket 34) and its 186
    frame keys under 10; with this hash every one of them gets its own
    (test [anactx keys hash apart]). *)
let hash x = Hashtbl.hash_param 256 256 x

(* a hash table over one key type, hashed by [hash] *)
module Memo (K : sig
  type t
end) =
Hashtbl.Make (struct
  type t = K.t

  let equal = ( = )
  let hash = hash
end)

module Ground_tbl = Memo (struct
  type t = Ast.formula * Ground.domain
end)

module Key_tbl = Memo (struct
  type t = Oblig.key
end)

module Conjunct_tbl = Memo (struct
  type t = Ground.gformula
end)

(** A verdict-only analysis frame: one incremental solver asserting a
    case's relevant clauses and its base writes' weakest preconditions,
    and the verdicts of the conjunct queries decided on it. *)
type frame = {
  enc : Ipa_solver.Encode.ctx;
  conjuncts : bool Conjunct_tbl.t;
      (** post-write conjunct [c] → can [c] be false in a frame state *)
}

(* a retained frame and its last use, for least-recently-used eviction *)
type frame_slot = { frame : frame; mutable used : int }

type t = {
  cache : bool;
  ground_tbl : Ground.gformula Ground_tbl.t;
  oblig_tbl : bool Key_tbl.t;
      (** per-clause obligation verdicts ([true] = violable), keyed by
          content so specification edits invalidate implicitly *)
  case_tbl : Oblig.witness option Key_tbl.t;
      (** whole-case witness extractions ([k_clause = -1]) — replaying
          the exact solver query keeps reports bit-identical *)
  frame_tbl : frame_slot Key_tbl.t;
      (** at most [frame_max] frames, keyed by {!Oblig.frame_of} *)
  mutable frame_clock : int;  (** frame uses so far *)
  stats : stats;
}

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

let create ?(cache = true) () =
  {
    cache;
    ground_tbl = Ground_tbl.create 64;
    oblig_tbl = Key_tbl.create 256;
    case_tbl = Key_tbl.create 64;
    frame_tbl = Key_tbl.create 64;
    frame_clock = 0;
    stats = fresh_stats ();
  }

(** A context with the same cache switch as [like] but empty caches and
    zeroed counters — per-domain state for parallel analysis (the
    mutable hashtables are not domain-safe and must never be
    shared). *)
let fresh ~(like : t) : t = create ~cache:like.cache ()

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

let stats t = t.stats
let cache_enabled t = t.cache

(* ------------------------------------------------------------------ *)
(* Cache operations                                                    *)
(* ------------------------------------------------------------------ *)

(* Each memoizing helper below counts a hit or a miss, and on a miss
   inserts the computed value if caching is on (so with caching off
   every table stays empty and every lookup misses). *)

let ground (c : t) ~sg ~consts ~dom (f : Ast.formula) : Ground.gformula =
  let key = (f, dom) in
  match Ground_tbl.find_opt c.ground_tbl key with
  | Some g ->
      c.stats.ground_hits <- c.stats.ground_hits + 1;
      g
  | None ->
      c.stats.ground_misses <- c.stats.ground_misses + 1;
      let g = Ground.ground ~sg ~consts ~dom f in
      if c.cache then Ground_tbl.add c.ground_tbl key g;
      g

let oblig_lookup (c : t) (key : Oblig.key) (f : unit -> bool) : bool =
  match Key_tbl.find_opt c.oblig_tbl key with
  | Some v ->
      c.stats.oblig_hits <- c.stats.oblig_hits + 1;
      v
  | None ->
      c.stats.oblig_misses <- c.stats.oblig_misses + 1;
      let v = f () in
      if c.cache then Key_tbl.add c.oblig_tbl key v;
      v

(** Is this obligation's verdict already cached?  A pure query: no
    counters move — the eventual {!oblig_lookup} that consumes the entry
    counts the hit.  The parallel scan uses it to keep cached
    obligations out of the fan-out. *)
let oblig_cached (c : t) (key : Oblig.key) : bool =
  Key_tbl.mem c.oblig_tbl key

(** Seed an obligation verdict computed elsewhere (a parallel worker)
    without touching the hit/miss counters — the computing context
    already counted the miss.  This is how a fan-out's verdicts reach
    the parent that concludes the pairs. *)
let oblig_put (c : t) (key : Oblig.key) (v : bool) : unit =
  if c.cache && not (Key_tbl.mem c.oblig_tbl key) then
    Key_tbl.add c.oblig_tbl key v

(* memoize a whole-case witness extraction.  The stored value is the
   exact result of the deterministic solver query, so replays from the
   cache keep reports bit-identical to a from-scratch run *)
let case_lookup (c : t) (key : Oblig.key) (f : unit -> Oblig.witness option)
    : Oblig.witness option =
  match Key_tbl.find_opt c.case_tbl key with
  | Some v ->
      c.stats.case_hits <- c.stats.case_hits + 1;
      v
  | None ->
      c.stats.case_misses <- c.stats.case_misses + 1;
      let v = f () in
      if c.cache then Key_tbl.add c.case_tbl key v;
      v

(* ------------------------------------------------------------------ *)
(* Analysis frames                                                     *)
(* ------------------------------------------------------------------ *)

(** Frames a context retains.  Tournament's cold analysis meets about
    200 distinct frames, but the repair loop revisits a pair's frames
    candidate after candidate, so a small window keeps nearly every
    reuse while bounding the solvers (and their learnt clauses) alive
    at once: on the catalog pass, 16 frames peak at about 58 MB of heap
    and 6,500 solver calls, 32 at 95 MB for 6,300 calls (DESIGN.md §2). *)
let frame_max = 16

let release_frame (f : frame) = Ipa_solver.Encode.release f.enc

let with_frame (c : t) (key : Oblig.key)
    ~(build : unit -> Ipa_solver.Encode.ctx) (f : frame -> 'a) : 'a =
  let key = Oblig.frame_of key in
  let fresh () = { enc = build (); conjuncts = Conjunct_tbl.create 16 } in
  if not c.cache then begin
    let fr = fresh () in
    let v = f fr in
    release_frame fr;
    v
  end
  else begin
    c.frame_clock <- c.frame_clock + 1;
    let slot =
      match Key_tbl.find_opt c.frame_tbl key with
      | Some slot -> slot
      | None ->
          if Key_tbl.length c.frame_tbl >= frame_max then begin
            let victim =
              Key_tbl.fold
                (fun k slot acc ->
                  match acc with
                  | Some (_, old) when old.used <= slot.used -> acc
                  | _ -> Some (k, slot))
                c.frame_tbl None
            in
            Option.iter
              (fun (k, slot) ->
                Key_tbl.remove c.frame_tbl k;
                release_frame slot.frame)
              victim
          end;
          let slot = { frame = fresh (); used = 0 } in
          Key_tbl.add c.frame_tbl key slot;
          slot
    in
    slot.used <- c.frame_clock;
    f slot.frame
  end

let frame_enc (fr : frame) = fr.enc

let conjunct (fr : frame) (c : Ground.gformula) (decide : unit -> bool) : bool
    =
  match Conjunct_tbl.find_opt fr.conjuncts c with
  | Some v -> v
  | None ->
      let v = decide () in
      Conjunct_tbl.add fr.conjuncts c v;
      v

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(** Run one solver call [solve] on [enc] and add the counters [enc]'s
    solver moved since the previous call on it (or since its creation),
    encoding included.  A frame's solver answers many calls, so these
    per-call deltas, not the solver's totals, are what is counted. *)
let record_solve (c : t) (enc : Ipa_solver.Encode.ctx)
    (solve : unit -> Ipa_solver.Sat.result) : Ipa_solver.Sat.result =
  let r = solve () in
  let d = Ipa_solver.Encode.take_stats enc in
  let s = c.stats in
  s.sat_calls <- s.sat_calls + 1;
  s.sat_conflicts <- s.sat_conflicts + d.n_conflicts;
  s.sat_decisions <- s.sat_decisions + d.n_decisions;
  s.sat_propagations <- s.sat_propagations + d.n_propagations;
  s.sat_learnts <- s.sat_learnts + d.n_learnts;
  s.sat_removed <- s.sat_removed + d.n_removed;
  r

(** Time [f], attributing the elapsed wall time to [pair]. *)
let time (c : t) (pair : string * string) (f : unit -> 'a) : 'a =
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
  Fmt.pf ppf "@[<v>analysis statistics:@,  wall time          %.3f s@,"
    s.total_seconds;
  Fmt.pf ppf
    "  pairs checked      %d@,\
    \  SAT solves         %d  (conflicts %d, decisions %d, propagations %d)@,\
    \  learnt clauses     %d  (%d removed by DB reduction)@,\
    \  grounding cache    %d hits / %d misses  (%.1f%%)@,\
    \  obligations        %d hits / %d misses  (%.1f%%)@,\
    \  witness cases      %d hits / %d misses  (%.1f%%)@,\
    \  candidates         %d generated, %d pruned by witness, %d solver-checked@]"
    s.pairs_checked s.sat_calls s.sat_conflicts s.sat_decisions
    s.sat_propagations s.sat_learnts s.sat_removed s.ground_hits
    s.ground_misses
    (100.0 *. ground_hit_rate s)
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
