(** Repair generation (Algorithm 1's [repairConflicts] and [generate]):
    instantiate the violated invariant clauses' atoms through the
    operations' effects (unbound variables become wildcards), search the
    powerset of candidate extra effects smallest-first, and keep
    candidates that are sequentially safe, pair-safe under the
    convergence rules, and preserve the operation's original
    semantics. *)

open Ipa_logic
open Ipa_spec

type target = Op1 | Op2

type solution = {
  s_target : target;
  s_op : string;  (** name of the modified operation *)
  s_added : Types.annotated_effect list;
  s_rules : (string * Types.conv_rule) list;
      (** convergence rules under which the solution is safe *)
  s_pair : Detect.aop * Detect.aop;  (** the repaired pair *)
}

(** Candidate-effect pool for one operation: invariant-clause atoms
    instantiated through its effects ([invPreds], line 15). *)
val pool_for :
  Types.t -> Ast.formula list -> Types.operation ->
  (string * Ast.term list) list

(** Invariant clauses mentioning a predicate either operation writes. *)
val relevant_clauses :
  Types.t -> Types.operation -> Types.operation -> Ast.formula list

(** A modification must not mask the operation's own base effects
    ("preserving the original semantics when no conflicts occur"). *)
val preserves_intent : Types.t -> Detect.aop -> bool

(** Rule assignments tried per candidate: the specification's rules
    first, then (under [search_rules]) all add-wins/rem-wins assignments
    over the given predicates — deduplicated by set-equality of the
    effective assignment.  Exposed for tests. *)
val rule_choices :
  search_rules:bool ->
  Types.t ->
  string list ->
  (string * Types.conv_rule) list list

(** Search for minimal safe extra-effect sets.  [search_rules] also
    proposes convergence rules beyond the specification's.  A candidate
    must preserve intent ({!preserves_intent}) and must not subsume a
    solution already found on the same target.  [witness] (the conflict
    that triggered the repair) enables exact witness-guided candidate
    pruning when [ctx] has caching on; candidate generation is lazy, so
    the exponential powerset is never materialized past its first
    4000 candidates. *)
val repair_conflicts :
  ?max_size:int ->
  ?search_rules:bool ->
  ctx:Anactx.t ->
  ?witness:Detect.witness ->
  Types.t ->
  Detect.aop * Detect.aop ->
  solution list

(** Resolution policies (Algorithm 1's [pickResolution]). *)
type policy =
  | Fewest_effects
  | Prefer_op of string  (** prefer solutions where this op's effects win *)
  | Choose of (solution list -> solution option)  (** interactive *)

val pick : policy -> solution list -> solution option
val pp_solution : Format.formatter -> solution -> unit
