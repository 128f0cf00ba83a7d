(** Shared analysis context threaded through {!Detect}, {!Repair} and
    {!Ipa}: a grounding cache, verdict caches, the witness-pruning
    switch, and aggregated solver/cache statistics.

    All helpers accept the context as an [option] so call sites can pass
    an optional parameter straight through; a [None] context makes every
    helper a transparent no-op around the underlying computation.

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
  mutable total_seconds : float;
}

type t

(** [create ()] — caching and witness pruning both default to on. *)
val create : ?cache:bool -> ?prune:bool -> unit -> t

(** [fresh ~like] — a context with [like]'s cache/prune switches but
    empty caches and zeroed counters.  The parallel analysis gives each
    worker domain its own fresh context (the hashtables are not
    domain-safe and must never be shared) and folds the counters back
    with {!merge_stats}. *)
val fresh : like:t -> t

(** An immutable snapshot of a context's caches, safe to read from many
    domains at once precisely because nobody writes it. *)
type ro

(** Snapshot [t]'s caches.  The copies belong to the snapshot alone:
    [t] may keep mutating its live tables afterwards. *)
val freeze : t -> ro

(** [share t ro] points [t]'s cache-miss path at the snapshot: lookups
    consult [t]'s private tables first, then [ro]; insertions go to the
    private tables only.  Workers of a parallel scan each {!share} one
    {!freeze} of the parent context, so siblings reuse everything the
    parent has already paid for without any cross-domain mutation. *)
val share : t -> ro -> unit

(** [absorb ~into child] moves [child]'s cache entries (added when
    absent) and counters into [into], leaving [child] with empty tables,
    zeroed counters and no shared snapshot.  Run after each parallel
    scan so the next {!freeze} carries every worker's discoveries;
    zeroing keeps a later {!merge_stats} of the same child from
    double-counting. *)
val absorb : into:t -> t -> unit

(** [merge_stats ~into child] adds [child]'s counters (and per-pair
    wall times) into [into]'s statistics.  Summing the per-domain
    contexts of a parallel run over a partition of the work yields the
    same counter totals as one context that saw all of it. *)
val merge_stats : into:t -> t -> unit

val stats : t -> stats
val prune_enabled : t option -> bool

(** Memoizing wrapper around {!Ground.ground}, keyed by
    (formula, domain). *)
val ground :
  t option ->
  sg:Ground.signature ->
  consts:(string * int) list ->
  dom:Ground.domain ->
  Ast.formula ->
  Ground.gformula

(** Memoize a per-operation verdict ([`Seq] = sequential safety,
    [`Intent] = intent preservation) keyed by the operation's base and
    current effects plus the canonical convergence rules. *)
val cached_verdict :
  t option ->
  [ `Seq | `Intent ] ->
  Types.t ->
  Types.operation ->
  Types.operation ->
  (unit -> bool) ->
  bool

(** Memoize a per-clause obligation verdict ([true] = the clause can be
    violated by the pair's merged effects) under its dependency key.
    Keys are content-addressed ({!Oblig.key}), so entries survive
    specification edits and invalidate implicitly: an edited operation
    or clause changes the keys it reaches and leaves the rest hitting. *)
val oblig_lookup : t option -> Oblig.key -> (unit -> bool) -> bool

(** Seed an obligation verdict computed elsewhere (a parallel worker)
    without touching the hit/miss counters. *)
val oblig_put : t option -> Oblig.key -> bool -> unit

(** Is this obligation's verdict already cached?  Pure query — no
    counters move. *)
val oblig_cached : t option -> Oblig.key -> bool

(** Memoize a whole-case witness extraction (key's [k_clause] = -1).
    The stored value is the exact result of the deterministic solver
    query, keeping replayed reports bit-identical. *)
val case_lookup :
  t option -> Oblig.key -> (unit -> Oblig.witness option) ->
  Oblig.witness option

(** Record one [Encode.solve] call: harvest the (fresh, single-use)
    solver's counters into the aggregate. *)
val record_solve : t option -> Ipa_solver.Encode.ctx -> unit

(** Time a computation, attributing elapsed wall time to the pair. *)
val time : t option -> string * string -> (unit -> 'a) -> 'a

val ground_hit_rate : stats -> float
val verdict_hit_rate : stats -> float
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
