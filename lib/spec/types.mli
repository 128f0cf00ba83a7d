(** Application specifications: the information of the paper's annotated
    Java interfaces (Figure 1) — sorts, predicates, named constants,
    invariants, operations with predicate-assignment effects, and
    per-predicate convergence rules. *)

open Ipa_logic

type pred_kind =
  | Bool
  | Numeric of { lo : int; hi : int }
      (** bounded integer state function (e.g. a stock level) *)

type pred_decl = { pname : string; psorts : Ast.sort list; pkind : pred_kind }

type effect_value =
  | Set of bool  (** boolean predicate assignment *)
  | Delta of int  (** numeric increment/decrement *)

type effect = { epred : string; eargs : Ast.term list; evalue : effect_value }

(** [Touch] effects (§4.2.1) restore membership while preserving the
    entity's payload; the analysis treats them like writes, the runtime
    distinguishes them. *)
type effect_mode = Write | Touch

type annotated_effect = { eff : effect; mode : effect_mode }

type operation = {
  oname : string;
  oparams : Ast.tvar list;
  oeffects : annotated_effect list;
}

(** Conflict-resolution policy for concurrent opposing writes (§3.2):
    add-wins resolves to [true], rem-wins to [false], LWW to either
    (the analysis must consider both outcomes). *)
type conv_rule = Add_wins | Rem_wins | Lww

val conv_rule_to_string : conv_rule -> string

(** Hint tags for invariant classes undecidable from formula shape
    (Table 1). *)
type inv_tag = Tag_unique_id | Tag_sequential_id

type invariant = {
  iname : string;
  iformula : Ast.formula;
  itag : inv_tag option;
}

type t = {
  app_name : string;
  sorts : Ast.sort list;
  preds : pred_decl list;
  consts : (string * int) list;
  invariants : invariant list;
  operations : operation list;
  rules : (string * conv_rule) list;
}

(** {1 Accessors} *)

val find_pred : t -> string -> pred_decl option
val find_op : t -> string -> operation option

(** Rule for a predicate ([Lww] when unspecified). *)
val conv_rule_of : t -> string -> conv_rule

(** Canonical form of a rule list: effective (first) binding per
    predicate, sorted.  Equal canonical forms mean the lists are
    semantically interchangeable under {!conv_rule_of}. *)
val canonical_rules : (string * conv_rule) list -> (string * conv_rule) list

(** Conjunction of all invariants. *)
val invariant_formula : t -> Ast.formula

(** Grounding signature from the predicate declarations. *)
val signature : t -> Ground.signature

(** Declared bounds of numeric state functions. *)
val int_bounds : t -> Ground.gnum -> int * int

(** Boolean predicates / numeric functions an operation writes. *)
val written_preds : operation -> string list

val written_nfuns : operation -> string list

(** {1 Pretty printing} *)

val pp_effect : Format.formatter -> effect -> unit
val pp_annotated_effect : Format.formatter -> annotated_effect -> unit
val pp_operation : Format.formatter -> operation -> unit
val operation_to_string : operation -> string

(** {1 Builders} *)

val effect :
  ?mode:effect_mode -> string -> Ast.term list -> effect_value ->
  annotated_effect

val set_true : ?mode:effect_mode -> string -> Ast.term list -> annotated_effect
val set_false : ?mode:effect_mode -> string -> Ast.term list -> annotated_effect
val delta : string -> Ast.term list -> int -> annotated_effect
val operation : string -> Ast.tvar list -> annotated_effect list -> operation
