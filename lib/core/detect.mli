(** Conflict detection (Algorithm 1's [isConflicting], extended with
    convergence rules): a pair conflicts if some I-valid pre-state,
    admissible for both operations, merges their concurrent effects into
    an I-invalid state.  Decided by the SAT backend over small-model
    domains, through per-clause obligations memoized in {!Anactx}'s
    obligation table: verdict-only queries on incremental per-case
    frames, witness queries on a fresh solver each.  Sequential safety
    is the obligations of the operation paired with a no-op. *)

open Ipa_logic
open Ipa_spec

(** An operation under analysis: [base] defines the precondition the
    application code checks (its original effects); [cur] carries the
    effects after IPA modifications. *)
type aop = { base : Types.operation; cur : Types.operation }

val aop_of : Types.operation -> aop

(** A Figure 2–style counterexample: valid initial state, the two
    operations' writes, the merged outcome, the violated invariants.
    (Defined in {!Oblig} so {!Anactx} can cache witnesses.) *)
type witness = Oblig.witness = {
  unif : Pairctx.unification;
  pre_atoms : (Ground.gatom * bool) list;
  pre_nums : (Ground.gnum * int) list;
  writes1 : Effects.writes;
  writes2 : Effects.writes;
  merged : Effects.writes;
  violated : string list;
}

type verdict = Safe | Conflict of witness

(** Invariants mentioning a predicate the pair writes — restricting to
    them is a sound over-approximation (never misses a conflict). *)
val relevant_invariants :
  Types.t -> Types.operation -> Types.operation -> Types.invariant list

(** Check one unification case with one whole-invariant query over its
    analysis frame: the relevant clauses, over a domain widened to
    saturate cardinality bounds.  Returns a witness if conflicting.
    {!check_pair} replays exactly this query for a case whose
    obligations show a violation. *)
val check_case :
  ctx:Anactx.t -> Types.t -> aop -> aop -> Pairctx.unification ->
  witness option

(** Does the pair conflict under any parameter unification?  The
    verdict is assembled from per-clause obligations cached under their
    {!Oblig.key}s, and the witness is the one {!check_case} returns for
    the first case with a satisfiable obligation — the verdict a
    whole-invariant query per case gives, but an edit to the
    specification re-solves only the obligations whose keys it
    reaches. *)
val check_pair : ctx:Anactx.t -> Types.t -> aop -> aop -> verdict

(** One per-clause proof obligation of a pair: one (parameter
    unification × relevant invariant clause) SAT query, enumerable
    without solver work and dischargeable independently of its
    siblings (e.g. on a worker domain). *)
type oblig = {
  ob_o1 : aop;
  ob_o2 : aop;
  ob_unif : Pairctx.unification;
  ob_invs : Types.invariant list;  (** relevant-clause frame *)
  ob_dom : Ground.domain;  (** widened case domain *)
  ob_key : Oblig.key;  (** content-addressed cache key *)
  ob_clause : int;  (** index of the violation target in [ob_invs] *)
}

(** Enumerate the pair's obligations; no solver work happens. *)
val obligations : Types.t -> aop -> aop -> oblig list

(** Discharge one obligation through the context's obligation table:
    [true] means the pair's merged effects can falsify the clause.
    Decided on the case's analysis frame ({!Anactx.with_frame}): each
    conjunct of the clause that the merged writes change is one
    assumption query on the frame's incremental solver. *)
val solve_obligation : ctx:Anactx.t -> Types.t -> oblig -> bool

(** Executing the (possibly modified) operation alone from any state
    admissible for its {e original} precondition preserves the
    invariant (Theorem 1's sequential half): no obligation of the
    operation paired with a no-op is violable.  Each is decided by
    {!solve_obligation}, so the verdicts are memoized in [ctx]'s
    obligation table like any pair's. *)
val sequentially_safe : ctx:Anactx.t -> Types.t -> aop -> bool

(** Witness-guided candidate screening: does the stored counterexample
    (found for the first pair) still violate the invariant under the
    candidate pair's merged writes, re-evaluated concretely over the
    witness pre-state?  [None] when the candidate changes the analysis
    frame (relevant clauses or domain widening) and the fast check is
    inconclusive; [Some true] is an exact "still conflicting" verdict —
    pruning on it loses no solutions. *)
val witness_refutes :
  ctx:Anactx.t -> Types.t -> aop * aop -> aop * aop -> witness -> bool option
