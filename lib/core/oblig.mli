(** Per-clause proof obligations: the counterexample witness type and
    the content-addressed dependency keys under which {!Anactx} caches
    obligation verdicts and witnesses across specification edits.

    An obligation is one (parameter unification × relevant invariant
    clause) SAT query of a pair check; the decomposition is exact (the
    pair conflicts iff some obligation is satisfiable).  Keys embed
    every input the verdict depends on — operation effects, bindings,
    domain, clause frame, restricted rules, constants — so an edited
    operation or clause changes exactly the keys it reaches, and
    re-analysis of everything else is pure cache hits. *)

open Ipa_logic
open Ipa_spec

(** A Figure 2–style counterexample (re-exported by {!Detect}). *)
type witness = {
  unif : Pairctx.unification;
  pre_atoms : (Ground.gatom * bool) list;
  pre_nums : (Ground.gnum * int) list;
  writes1 : Effects.writes;
  writes2 : Effects.writes;
  merged : Effects.writes;
  violated : string list;
}

(** Dependency key: structural equality implies identical verdicts
    (given a fixed sort/predicate signature, which resets the context
    when it changes). *)
type key = {
  k_base1 : Types.annotated_effect list;
  k_cur1 : Types.annotated_effect list;
  k_base2 : Types.annotated_effect list;
  k_cur2 : Types.annotated_effect list;
  k_binding1 : (string * string) list;
  k_binding2 : (string * string) list;
  k_dom : Ground.domain;
  k_frame : (string * Ast.formula) list;
  k_rules : (string * Types.conv_rule) list;
  k_consts : (string * int) list;
  k_clause : int;  (** frame index of the violation target; -1 = case *)
}

(** The key of one unification case ([k_clause = -1]). *)
val case_key :
  Types.t ->
  base1:Types.operation ->
  cur1:Types.operation ->
  base2:Types.operation ->
  cur2:Types.operation ->
  binding1:(string * string) list ->
  binding2:(string * string) list ->
  dom:Ground.domain ->
  frame:Types.invariant list ->
  key

(** Refocus a case key on one clause obligation. *)
val with_clause : key -> int -> key

(** The key of the case's analysis frame (its relevant clauses and base
    weakest preconditions): [k] with the current effects, the rules and
    the clause choice blanked. *)
val frame_of : key -> key
