(** Per-clause proof obligations and their dependency keys.

    The incremental analysis decomposes each pair check into one proof
    obligation per (parameter unification × relevant invariant clause):
    "from a pre-state satisfying every relevant clause, admissible for
    both operations, can the merged concurrent effects falsify {e this}
    clause?"  The pair conflicts iff some obligation is satisfiable, so
    the decomposition is exact (the whole-invariant check asserts the
    disjunction of the per-clause violation targets, and a disjunction
    is satisfiable iff some disjunct is).

    Each obligation carries a {e dependency key}: a content-addressed
    fingerprint of everything its verdict can depend on — the two
    operations' base and current effects, the parameter bindings and
    (widened) domain of the unification case, the relevant clause frame
    (names and formulas), the convergence rules restricted to predicates
    both operations write, and the integer constants.  Verdicts cached
    under these keys in {!Anactx} survive specification edits untouched
    unless the edit actually reaches them: editing one operation changes
    only the keys that embed its effects, so re-analysis of the other
    pairs is pure cache hits — dependency-tracked invalidation without
    an explicit invalidation pass.

    This module sits below {!Anactx} (which stores the verdict tables)
    and {!Detect} (which discharges the obligations); the counterexample
    [witness] type lives here so cached witnesses need no dependency
    cycle. *)

open Ipa_logic
open Ipa_spec

(** A concrete counterexample execution, in the style of Figure 2: a
    valid initial state, per-operation writes, the merged outcome, and
    the invariants that the merged state violates.  (Historically
    defined in {!Detect}, which re-exports it.) *)
type witness = {
  unif : Pairctx.unification;
  pre_atoms : (Ground.gatom * bool) list;
  pre_nums : (Ground.gnum * int) list;
  writes1 : Effects.writes;
  writes2 : Effects.writes;
  merged : Effects.writes;
  violated : string list;  (** names of invariants false after merge *)
}

(** Dependency key of one proof obligation.  Structural equality of two
    keys implies the obligation verdicts coincide: every input of the
    SAT query is either part of the key or fixed for the lifetime of the
    analysis context (the sort/predicate signature — {!Anactx} is reset
    when it changes). *)
type key = {
  k_base1 : Types.annotated_effect list;  (** op1 original effects (wp) *)
  k_cur1 : Types.annotated_effect list;  (** op1 effects after repairs *)
  k_base2 : Types.annotated_effect list;
  k_cur2 : Types.annotated_effect list;
  k_binding1 : (string * string) list;  (** op1 parameter → element *)
  k_binding2 : (string * string) list;
  k_dom : Ground.domain;  (** widened small-model domain of the case *)
  k_frame : (string * Ast.formula) list;
      (** relevant invariant clauses (name, formula) — the pre-state
          constraint, and the namespace of the witness's [violated] *)
  k_rules : (string * Types.conv_rule) list;
      (** canonical convergence rules restricted to predicates written
          by {e both} current operations (the only ones merging
          consults) *)
  k_consts : (string * int) list;  (** named integer constants *)
  k_clause : int;
      (** index into [k_frame] of the violation target, or [-1] for the
          whole-case witness query (all clauses at once) *)
  k_hash : int;  (** {!hash} of the fields above but [k_clause] *)
  k_frame_hash : int;  (** [k_hash] of [frame_of] this key *)
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

(** The key of one unification case, minus the clause choice. *)
let case_key (spec : Types.t) ~(base1 : Types.operation)
    ~(cur1 : Types.operation) ~(base2 : Types.operation)
    ~(cur2 : Types.operation) ~(binding1 : (string * string) list)
    ~(binding2 : (string * string) list) ~(dom : Ground.domain)
    ~(frame : Types.invariant list) : key =
  let both_written =
    let w2 = Types.written_preds cur2 in
    List.filter (fun p -> List.mem p w2) (Types.written_preds cur1)
  in
  let k_frame =
    List.map (fun (i : Types.invariant) -> (i.iname, i.iformula)) frame
  and k_rules =
    List.filter
      (fun (p, _) -> List.mem p both_written)
      (Types.canonical_rules spec.rules)
  in
  (* the key is hashed here, once: the frame's fields, then the rest
     folded in, so [frame_of] and [with_clause] re-hash nothing *)
  let k_frame_hash =
    hash (base1.oeffects, base2.oeffects, binding1, binding2, dom, k_frame,
          spec.consts)
  in
  {
    k_base1 = base1.oeffects;
    k_cur1 = cur1.oeffects;
    k_base2 = base2.oeffects;
    k_cur2 = cur2.oeffects;
    k_binding1 = binding1;
    k_binding2 = binding2;
    k_dom = dom;
    k_frame;
    k_rules;
    k_consts = spec.consts;
    k_clause = -1;
    k_hash = hash (k_frame_hash, hash (cur1.oeffects, cur2.oeffects, k_rules));
    k_frame_hash;
  }

let with_clause (k : key) (i : int) : key = { k with k_clause = i }

(** The key of a case's analysis frame: [k] with what the frame does not
    depend on blanked.  A frame asserts the case's relevant clauses and
    the weakest preconditions of the {e base} writes, so the current
    effects, the merge rules and the clause choice drop out; every
    repair candidate of a pair, which only extends the current effects,
    shares its case's frame. *)
let frame_of (k : key) : key =
  {
    k with
    k_cur1 = [];
    k_cur2 = [];
    k_rules = [];
    k_clause = -1;
    k_hash = k.k_frame_hash;
  }

(* the clause index is the one field [k_hash] leaves out *)
let key_hash (k : key) : int = Hashtbl.hash (k.k_hash, k.k_clause)
