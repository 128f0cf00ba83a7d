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

(** The hash of every memo table: [Hashtbl.hash_param 256 256], the
    widest the runtime allows.  [Hashtbl.hash] reads only the first 10
    meaningful values of a key, which the keys here share. *)
val hash : 'a -> int

(** A hash table over obligation and frame keys, hashed by {!hash}. *)
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

val ground_hit_rate : stats -> float
val oblig_hit_rate : stats -> float
val case_hit_rate : stats -> float

(** Fraction of (candidate, rules) checks answered by the witness
    instead of the solver. *)
val prune_rate : stats -> float

(** Fraction of obligations and witness extractions answered without
    solver work — the figure of merit of an incremental re-analysis.
    All rates are guarded: a zero-solve (cache-only or empty) run
    reports 0, never nan. *)
val reuse_rate : stats -> float

(** Per-pair accumulated wall time, slowest first. *)
val pair_times : stats -> ((string * string) * float) list

val pp_stats : Format.formatter -> stats -> unit
val pp_pair_times : Format.formatter -> stats -> unit
