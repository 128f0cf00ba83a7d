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
    - the {e step memo}: two whole analysis steps keyed by content —
      a scan's pair verdict (witness included) and a pair's repair
      search (its solution list) — so a warm re-run replays neither.
      Both are one table ({!step}) under one bound, {!step_max};
    - one switch for the caches and witness-guided candidate pruning
      (on by default).  [create ~cache:false] is the uncached, unpruned
      reference run that the cache-equivalence test and
      [bench/main.exe analysis] compare against: it keeps no frame
      across queries either;
    - aggregated counters: SAT calls/conflicts/decisions/propagations,
      cache hit rates, candidates generated/pruned/checked, and per-pair
      wall time.

    Every memo key carries its hash, computed once with {!hash}, which
    reads far deeper into a key than [Hashtbl.hash] (see {!Oblig.hash}).

    A context belongs to one domain (its tables are plain hash tables):
    a parallel [Ipa.run] gives each worker its own for the whole call.
    It may be reused across runs (counters accumulate) but must not be
    shared between different specifications: the grounding cache
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
  mutable cands_generated : int;  (** repair candidates consumed *)
  mutable cands_pruned : int;  (** (candidate, rules) checks skipped *)
  mutable cands_checked : int;  (** (candidate, rules) full SAT checks *)
  mutable pairs_checked : int;
      (** pair verdicts concluded: [Detect.check_pair] calls and pair
          verdicts answered by the step memo *)
  mutable oblig_hits : int;  (** clause obligations answered from cache *)
  mutable oblig_misses : int;  (** clause obligations discharged by SAT *)
  mutable case_hits : int;  (** witness extractions answered from cache *)
  mutable case_misses : int;  (** witness extractions solved *)
  mutable pair_hits : int;  (** scan pair verdicts answered by the memo *)
  mutable pair_misses : int;  (** scan pair verdicts concluded afresh *)
  mutable repair_hits : int;  (** repair searches answered by the memo *)
  mutable repair_misses : int;  (** repair searches run *)
  mutable scan_seconds : float;  (** wall time of the conflict scans *)
  mutable repair_seconds : float;  (** wall time of the repair searches *)
  mutable seq_seconds : float;
      (** the part of [repair_seconds] spent deciding sequential safety *)
  pair_seconds : (string * string, float) Hashtbl.t;
      (** accumulated wall time attributed to each operation pair *)
  mutable total_seconds : float;
}

let hash = Oblig.hash

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

(* obligation and frame keys hash in O(1) from their stored hash, and
   two keys whose stored hashes differ are told apart without a walk *)
module Key_tbl = Hashtbl.Make (struct
  type t = Oblig.key

  let equal (a : t) b = a.Oblig.k_hash = b.Oblig.k_hash && compare a b = 0
  let hash = Oblig.key_hash
end)

module Conjunct_tbl = Memo (struct
  type t = Ground.gformula
end)

(* ------------------------------------------------------------------ *)
(* Step memo keys                                                      *)
(* ------------------------------------------------------------------ *)

type step_kind =
  | Pair_verdict
  | Repair_search of { max_size : int; search_rules : bool }

(** One operation of a step's pair: its base and current definitions
    and their content hash, computed once per operation, not per
    pair. *)
type side = { base : Types.operation; cur : Types.operation; s_hash : int }

let side ~(base : Types.operation) ~(cur : Types.operation) : side =
  { base; cur; s_hash = hash (base, cur) }

(** A step's key: what it is, the interned environment ({!env_id}) and
    the pair, with a hash folded from the parts' stored hashes. *)
type step_key = {
  sk_kind : step_kind;
  sk_env : int;
  sk_op1 : side;
  sk_op2 : side;
  sk_hash : int;
}

let step_key (kind : step_kind) ~(env : int) (o1 : side) (o2 : side) :
    step_key =
  {
    sk_kind = kind;
    sk_env = env;
    sk_op1 = o1;
    sk_op2 = o2;
    sk_hash = Hashtbl.hash (kind, env, o1.s_hash, o2.s_hash);
  }

(* [compare] rather than [=]: it skips physically shared parts, and
   within a run the sides share their operations *)
module Step_tbl = Hashtbl.Make (struct
  type t = step_key

  let equal (a : t) b = a.sk_hash = b.sk_hash && compare a b = 0
  let hash (k : t) = k.sk_hash
end)

(* a specification's environment: everything but its operations *)
module Env_tbl = Memo (struct
  type t = Types.t
end)

type step = ..

(** The step memo: a young and an old generation.  An entry found in
    the old one is copied into the young one; when the young one
    reaches [step_max / 2] entries it becomes the old one and the
    previous old one is dropped.  So at most [step_max] entries are
    kept, and an entry used since the last turnover survives the next
    one. *)
type step_memo = {
  mutable young : step Step_tbl.t;
  mutable old : step Step_tbl.t;
}

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
  steps : step_memo;
  envs : int Env_tbl.t;  (** interned environments, at most [env_max] *)
  mutable next_env : int;  (** environment ids are never reused *)
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
    pair_hits = 0;
    pair_misses = 0;
    repair_hits = 0;
    repair_misses = 0;
    scan_seconds = 0.0;
    repair_seconds = 0.0;
    seq_seconds = 0.0;
    pair_seconds = Hashtbl.create 16;
    total_seconds = 0.0;
  }

(** Step-memo entries a context keeps at most, pair verdicts and repair
    searches together.  A cold catalog pass stores about 160 of them,
    a cold grown Twitter (19 operations) about 430, and a 300-edit
    session on it about 8,400 when unbounded, which this bound holds
    to a two-generation window without costing the session time.  An
    entry holds a witness or a solution list and shares its operations
    with the specification (DESIGN.md §2). *)
let step_max = 8192

let create ?(cache = true) () =
  {
    cache;
    ground_tbl = Ground_tbl.create 64;
    oblig_tbl = Key_tbl.create 256;
    case_tbl = Key_tbl.create 64;
    frame_tbl = Key_tbl.create 64;
    frame_clock = 0;
    steps = { young = Step_tbl.create 256; old = Step_tbl.create 1 };
    envs = Env_tbl.create 8;
    next_env = 0;
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
  a.pair_hits <- a.pair_hits + b.pair_hits;
  a.pair_misses <- a.pair_misses + b.pair_misses;
  a.repair_hits <- a.repair_hits + b.repair_hits;
  a.repair_misses <- a.repair_misses + b.repair_misses;
  a.scan_seconds <- a.scan_seconds +. b.scan_seconds;
  a.repair_seconds <- a.repair_seconds +. b.repair_seconds;
  a.seq_seconds <- a.seq_seconds +. b.seq_seconds;
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
(* Step memo                                                           *)
(* ------------------------------------------------------------------ *)

(* Environments a context interns at most.  Past it the table is
   dropped; ids are never reused, so entries keyed by a dropped id only
   stop hitting and age out of the step memo. *)
let env_max = 64

let env_id (c : t) (spec : Types.t) : int =
  let env = { spec with app_name = ""; operations = [] } in
  match Env_tbl.find_opt c.envs env with
  | Some id -> id
  | None ->
      if Env_tbl.length c.envs >= env_max then Env_tbl.reset c.envs;
      let id = c.next_env in
      c.next_env <- id + 1;
      Env_tbl.add c.envs env id;
      id

let count_step (c : t) (kind : step_kind) ~(hit : bool) : unit =
  let s = c.stats in
  match (kind, hit) with
  | Pair_verdict, true ->
      (* a memoised verdict is concluded all the same *)
      s.pair_hits <- s.pair_hits + 1;
      s.pairs_checked <- s.pairs_checked + 1
  | Pair_verdict, false -> s.pair_misses <- s.pair_misses + 1
  | Repair_search _, true -> s.repair_hits <- s.repair_hits + 1
  | Repair_search _, false -> s.repair_misses <- s.repair_misses + 1

(* insert into the young generation, turning it over at half the
   bound *)
let step_add (c : t) (key : step_key) (v : step) : unit =
  let m = c.steps in
  Step_tbl.replace m.young key v;
  if Step_tbl.length m.young >= step_max / 2 then begin
    m.old <- m.young;
    m.young <- Step_tbl.create 256
  end

let step (c : t) (key : step_key) (f : unit -> step) : step =
  let m = c.steps in
  match Step_tbl.find_opt m.young key with
  | Some v ->
      count_step c key.sk_kind ~hit:true;
      v
  | None -> (
      match Step_tbl.find_opt m.old key with
      | Some v ->
          count_step c key.sk_kind ~hit:true;
          step_add c key v;
          v
      | None ->
          count_step c key.sk_kind ~hit:false;
          let v = f () in
          if c.cache then step_add c key v;
          v)

let step_cached (c : t) (key : step_key) : bool =
  Step_tbl.mem c.steps.young key || Step_tbl.mem c.steps.old key

let step_entries (c : t) : int =
  Step_tbl.length c.steps.young + Step_tbl.length c.steps.old

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

type phase = Scan | Repair | Sequential

(** Time [f], adding the elapsed wall time to [phase]'s total. *)
let phase (c : t) (p : phase) (f : unit -> 'a) : 'a =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 and s = c.stats in
      match p with
      | Scan -> s.scan_seconds <- s.scan_seconds +. dt
      | Repair -> s.repair_seconds <- s.repair_seconds +. dt
      | Sequential -> s.seq_seconds <- s.seq_seconds +. dt)
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

let pair_hit_rate s = rate s.pair_hits s.pair_misses
let repair_hit_rate s = rate s.repair_hits s.repair_misses

(** [hits / (hits + misses)] over obligations and witness extractions,
    with the step memo's hits counted as hits: the fraction of an
    analysis answered without any solver work — the figure of merit of
    an incremental re-analysis.  A step-memo miss is not counted: its
    work is the obligations and extractions it looks up, which are.
    0 when nothing was asked (guarded, never nan). *)
let reuse_rate s =
  rate
    (s.oblig_hits + s.case_hits + s.pair_hits + s.repair_hits)
    (s.oblig_misses + s.case_misses)

(** [diff a b]: [a]'s counters and times minus [b]'s — the statistics
    of what [a]'s context did since [b] was copied from it
    ({!snapshot}).  Per-pair times are left out. *)
let diff (a : stats) (b : stats) : stats =
  {
    sat_calls = a.sat_calls - b.sat_calls;
    sat_conflicts = a.sat_conflicts - b.sat_conflicts;
    sat_decisions = a.sat_decisions - b.sat_decisions;
    sat_propagations = a.sat_propagations - b.sat_propagations;
    sat_learnts = a.sat_learnts - b.sat_learnts;
    sat_removed = a.sat_removed - b.sat_removed;
    ground_hits = a.ground_hits - b.ground_hits;
    ground_misses = a.ground_misses - b.ground_misses;
    cands_generated = a.cands_generated - b.cands_generated;
    cands_pruned = a.cands_pruned - b.cands_pruned;
    cands_checked = a.cands_checked - b.cands_checked;
    pairs_checked = a.pairs_checked - b.pairs_checked;
    oblig_hits = a.oblig_hits - b.oblig_hits;
    oblig_misses = a.oblig_misses - b.oblig_misses;
    case_hits = a.case_hits - b.case_hits;
    case_misses = a.case_misses - b.case_misses;
    pair_hits = a.pair_hits - b.pair_hits;
    pair_misses = a.pair_misses - b.pair_misses;
    repair_hits = a.repair_hits - b.repair_hits;
    repair_misses = a.repair_misses - b.repair_misses;
    scan_seconds = a.scan_seconds -. b.scan_seconds;
    repair_seconds = a.repair_seconds -. b.repair_seconds;
    seq_seconds = a.seq_seconds -. b.seq_seconds;
    pair_seconds = Hashtbl.create 1;
    total_seconds = a.total_seconds -. b.total_seconds;
  }

(** A copy of the counters, for a later {!diff}. *)
let snapshot (s : stats) : stats = diff s (fresh_stats ())

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
    \  candidates         %d generated, %d pruned by witness, %d solver-checked@,"
    s.pairs_checked s.sat_calls s.sat_conflicts s.sat_decisions
    s.sat_propagations s.sat_learnts s.sat_removed s.ground_hits
    s.ground_misses
    (100.0 *. ground_hit_rate s)
    s.oblig_hits s.oblig_misses
    (100.0 *. oblig_hit_rate s)
    s.case_hits s.case_misses
    (100.0 *. case_hit_rate s)
    s.cands_generated s.cands_pruned s.cands_checked;
  (* a second call keeps the first's arity, and with it the startup's
     application helpers (ROADMAP (g)) *)
  Fmt.pf ppf
    "  pair memo          %d hits / %d misses  (%.1f%%)@,\
    \  repair memo        %d hits / %d misses  (%.1f%%)@,\
    \  time split         scan %.3f s, repair %.3f s (sequential safety %.3f s)@]"
    s.pair_hits s.pair_misses
    (100.0 *. pair_hit_rate s)
    s.repair_hits s.repair_misses
    (100.0 *. repair_hit_rate s)
    s.scan_seconds s.repair_seconds s.seq_seconds

let pp_pair_times ppf (s : stats) =
  Fmt.pf ppf "@[<v>per-pair wall time:@,";
  List.iter
    (fun ((o1, o2), dt) -> Fmt.pf ppf "  %-40s %.3f s@," (o1 ^ " / " ^ o2) dt)
    (pair_times s);
  Fmt.pf ppf "@]"
