(** Analysis context threaded through {!Detect}, {!Repair} and {!Ipa}:
    a grounding cache, the obligation and witness tables, a bounded set
    of incremental analysis frames ({!with_frame}), the switch for all
    of them and for witness pruning, and aggregated solver/cache
    statistics.  Every analysis entry point takes one; [Ipa.run]
    creates it when the caller does not.

    A context belongs to one domain: its tables are plain hash tables.
    A parallel [Ipa.run] gives each worker its own context for the
    whole call ({!fresh}); verdicts reach the caller's context by value
    ({!oblig_put}) and counters fold in once, at the end
    ({!merge_stats}).

    A context may be reused across runs (counters accumulate) but must
    not be shared between different specifications: the grounding cache
    assumes signature and constants are fixed. *)

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
      (** pair verdicts concluded, step-memo hits included *)
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
      (** the part of [repair_seconds] spent on sequential safety *)
  pair_seconds : (string * string, float) Hashtbl.t;
  mutable total_seconds : float;
}

type t

(** [create ()] — caching and witness pruning on, the production
    analysis.  [create ~cache:false ()] is the uncached, unpruned
    reference: every lookup is a miss that counts and no repair
    candidate is screened by a stored witness (nor is a frame kept
    across queries), so the cache-equivalence test and
    [bench/main.exe analysis] can check that the caches and pruning
    change nothing but cost. *)
val create : ?cache:bool -> unit -> t

(** [fresh ~like] — a context with [like]'s cache switch but
    empty caches and zeroed counters.  The parallel analysis gives each
    worker domain its own fresh context (the hashtables are not
    domain-safe and must never be shared) and folds the counters back
    with {!merge_stats}. *)
val fresh : like:t -> t

(** [merge_stats ~into child] adds [child]'s counters (and per-pair
    wall times) into [into]'s statistics.  Summing the per-domain
    contexts of a parallel run over a partition of the work yields the
    same counter totals as one context that saw all of it. *)
val merge_stats : into:t -> t -> unit

val stats : t -> stats

(** The [create ~cache] switch: caches kept and witness pruning on. *)
val cache_enabled : t -> bool

(** {!Oblig.hash}: the hash every memo key is hashed with, once. *)
val hash : 'a -> int

(** A hash table over obligation and frame keys, hashed in O(1) by
    {!Oblig.key_hash}. *)
module Key_tbl : Hashtbl.S with type key = Oblig.key

(** Memoizing wrapper around {!Ground.ground}, keyed by
    (formula, domain). *)
val ground :
  t ->
  sg:Ground.signature ->
  consts:(string * int) list ->
  dom:Ground.domain ->
  Ast.formula ->
  Ground.gformula

(** Memoize a per-clause obligation verdict ([true] = the clause can be
    violated by the pair's merged effects) under its dependency key.
    Keys are content-addressed ({!Oblig.key}), so entries survive
    specification edits and invalidate implicitly: an edited operation
    or clause changes the keys it reaches and leaves the rest hitting. *)
val oblig_lookup : t -> Oblig.key -> (unit -> bool) -> bool

(** Seed an obligation verdict computed elsewhere (a parallel worker)
    without touching the hit/miss counters: the worker's context
    already counted the miss. *)
val oblig_put : t -> Oblig.key -> bool -> unit

(** Is this obligation's verdict already cached?  Pure query — no
    counters move. *)
val oblig_cached : t -> Oblig.key -> bool

(** Memoize a whole-case witness extraction (key's [k_clause] = -1).
    The stored value is the exact result of the deterministic solver
    query, keeping replayed reports bit-identical. *)
val case_lookup :
  t -> Oblig.key -> (unit -> Oblig.witness option) ->
  Oblig.witness option

(** {2 Step memo}

    Whole analysis steps, memoised by content: a conflict scan's pair
    verdict and a pair's repair search.  The key is the step's kind
    (with the repair search's [max_size] and [search_rules]), the
    interned environment the step reads — the specification without
    its operations ({!env_id}) — and both operations' base and current
    definitions ({!side}).  Structural equality of two keys implies
    the steps' results coincide: a pair verdict and a repair search
    are deterministic functions of those inputs, and every cache they
    consult is exact.  One table under one bound ({!step_max}) holds
    both kinds; with caching off every lookup misses. *)

type step_kind =
  | Pair_verdict
  | Repair_search of { max_size : int; search_rules : bool }

(** One operation of a step's pair, with its content hash computed
    once ({!side}), so a pair key hashes in O(1). *)
type side = private {
  base : Types.operation;
  cur : Types.operation;
  s_hash : int;
}

val side : base:Types.operation -> cur:Types.operation -> side

type step_key

val step_key : step_kind -> env:int -> side -> side -> step_key

(** [env_id t spec] — a small id for [spec] without its operations,
    equal for equal environments while [t] keeps them interned. *)
val env_id : t -> Types.t -> int

(** A memoised step's result; {!Ipa} and {!Repair} add a constructor
    each, and the key's kind fixes which one an entry holds. *)
type step = ..

(** [step t key f] — the stored result of [key]'s step, else [f ()],
    stored when caching is on.  Counts a hit or a miss of [key]'s
    kind. *)
val step : t -> step_key -> (unit -> step) -> step

(** Is [key]'s result stored?  A pure query: no counter moves. *)
val step_cached : t -> step_key -> bool

(** The bound on the step memo's entries (DESIGN.md §2). *)
val step_max : int

(** Step-memo entries held now: at most {!step_max}. *)
val step_entries : t -> int

(** A verdict-only analysis frame: one incremental solver asserting a
    unification case's relevant clauses and the weakest preconditions
    of its base writes, and the verdicts of the conjunct queries
    decided on it. *)
type frame

(** The frame's incremental solver. *)
val frame_enc : frame -> Ipa_solver.Encode.ctx

(** [conjunct fr c decide] — whether post-write conjunct [c] can be
    false in some state the frame admits, computed by [decide] (on
    {!frame_enc}) the first time [fr] is asked and kept on [fr]. *)
val conjunct : frame -> Ground.gformula -> (unit -> bool) -> bool

(** Frames a context retains at most (DESIGN.md §2). *)
val frame_max : int

(** [with_frame t key ~build f] runs [f] on the frame of the case [key]
    names (any key of the case: {!Oblig.frame_of} blanks what the frame
    does not depend on), building its solver with [build] on a miss.
    The least recently used frame is evicted past {!frame_max}, its
    solver released ({!Ipa_solver.Encode.release}).  With caching off
    the frame lives for this one call and is released after it. *)
val with_frame :
  t -> Oblig.key -> build:(unit -> Ipa_solver.Encode.ctx) -> (frame -> 'a) -> 'a

(** [record_solve t enc solve] runs one solver call on [enc] and adds
    to the aggregate the counters [enc]'s solver moved since the
    previous call on it ({!Ipa_solver.Encode.take_stats}): per-call
    deltas, not the solver's totals, since a frame's solver answers
    many calls. *)
val record_solve :
  t -> Ipa_solver.Encode.ctx -> (unit -> Ipa_solver.Sat.result) ->
  Ipa_solver.Sat.result

(** Time a computation, attributing elapsed wall time to the pair. *)
val time : t -> string * string -> (unit -> 'a) -> 'a

(** The analysis phases whose wall time the statistics split out. *)
type phase = Scan | Repair | Sequential

(** Time a computation, adding its wall time to the phase's total. *)
val phase : t -> phase -> (unit -> 'a) -> 'a

val ground_hit_rate : stats -> float
val oblig_hit_rate : stats -> float
val case_hit_rate : stats -> float

(** Fraction of (candidate, rules) checks answered by the witness
    instead of the solver. *)
val prune_rate : stats -> float

(** Fraction of obligations and witness extractions answered without
    solver work, step-memo hits counted as answered — the figure of
    merit of an incremental re-analysis.  A step-memo miss counts
    through the obligations and extractions it looks up.  All rates
    are guarded: an empty run reports 0, never nan. *)
val reuse_rate : stats -> float

(** [diff a b] — [a]'s counters and phase times minus [b]'s (per-pair
    times left out): what a context did since [b = snapshot a]. *)
val diff : stats -> stats -> stats

(** A copy of the counters, for a later {!diff}. *)
val snapshot : stats -> stats

(** Per-pair accumulated wall time, slowest first. *)
val pair_times : stats -> ((string * string) * float) list

val pp_stats : Format.formatter -> stats -> unit
val pp_pair_times : Format.formatter -> stats -> unit
