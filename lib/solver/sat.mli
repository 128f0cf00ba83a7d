(** A CDCL SAT solver — the decision backend replacing the paper's Z3
    (the analysis only needs satisfiability of ground formulas over
    small finite domains; see DESIGN.md §2).

    Features: two-watched-literal unit propagation, first-UIP conflict
    analysis with clause learning, activity-guided decisions with phase
    saving, geometric restarts, and activity-based learnt-clause DB
    reduction.  Clauses and variables may be added between [solve] calls
    (model enumeration via blocking clauses), and [solve ~assumptions]
    decides the clause set under temporary unit assumptions, MiniSat
    style: one instance then answers a sequence of queries over a shared
    clause set and keeps its learnt clauses between them.  The analysis
    gives each frame (a unification case's pre-state clauses and base
    weakest preconditions) one such solver and asks each verdict-only
    query as one assumption over a Tseitin gate (DESIGN.md §2).

    All solver state is per-instance, so distinct domains may each run
    their own solver concurrently — the contract the parallel pair
    analysis (DESIGN.md §8) relies on.  Instances are recycled through
    a small {e domain-local} free list: {!release} scrubs a finished
    solver back to a fresh-equivalent state (retaining its grown
    arrays) and {!create} prefers a recycled instance, so witness
    queries and evicted frames stop re-growing the same var-indexed
    arrays solver after solver.  Scrubbed state is
    bit-equivalent to fresh, so recycling can never change a
    verdict. *)

(** A literal: [+v] for the positive literal of variable [v >= 1], [-v]
    for its negation. *)
type lit = int

type result = Sat | Unsat

type t

(** Exposed for {!Cnf}'s true-literal cache. *)
val new_var : t -> int

val create : unit -> t

(** Add a clause; must be called at decision level 0 (before or between
    [solve] calls — use {!reset} after a [Sat] answer). *)
val add_clause : t -> lit list -> unit

(** Decide satisfiability of the clauses added so far under
    [assumptions] (default none; literals held true for this call only).
    Without assumptions the search is the reference solver's, step for
    step.  After [Sat] the model stays on the trail until {!reset}; an
    [Unsat] caused by the assumptions leaves the solver usable, and only
    unsatisfiable clauses make every later answer [Unsat]. *)
val solve : ?assumptions:lit list -> t -> result

(** Truth value of a literal in the model of the last [Sat] answer
    (don't-cares read as [false]). *)
val model_value : t -> lit -> bool

(** Reset the assignment to level 0 so further clauses can be added. *)
val reset : t -> unit

type stats = {
  n_conflicts : int;
  n_decisions : int;
  n_propagations : int;
  n_learnts : int;  (** learnt clauses ever created *)
  n_removed : int;  (** learnt clauses deleted by activity-based DB reduction *)
}

val stats : t -> stats

(** Return a finished solver to this domain's free list, scrubbed to a
    fresh-equivalent state (read stats and model values first — release
    wipes them).  The caller must not touch the instance afterwards. *)
val release : t -> unit

(** (instances accepted by {!release}, instances handed back out by
    {!create}) process-wide — lets tests assert recycling runs. *)
val recycle_stats : unit -> int * int

(**/**)

(* internal, used by Cnf's true-literal allocation *)
val true_lit_get : t -> int
val true_lit_set : t -> int -> unit

(* internal, for tests: set the learnt-clause allowance before the first
   [solve] (0, the default, derives it from the clause count) *)
val max_learnts_set : t -> int -> unit
