(** Application specifications.

    A specification conveys the information of the paper's annotated Java
    interfaces (Figure 1): sorts, predicates, named integer constants,
    invariants, operations with their effects, and per-predicate
    convergence rules.  Effects are assignments of boolean predicates
    ([:= true], [:= false]) or deltas on bounded numeric state functions
    ([+= k], [-= k]). *)

open Ipa_logic

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

type pred_kind =
  | Bool
  | Numeric of { lo : int; hi : int }
      (** bounded integer state function, e.g. a stock level *)

type pred_decl = { pname : string; psorts : Ast.sort list; pkind : pred_kind }

(* ------------------------------------------------------------------ *)
(* Effects and operations                                              *)
(* ------------------------------------------------------------------ *)

(** The value written by an effect. *)
type effect_value =
  | Set of bool  (** boolean predicate assignment *)
  | Delta of int  (** numeric increment/decrement *)

(** One effect: predicate, argument terms (operation parameters, constants
    or [Star] wildcards), and the written value. *)
type effect = { epred : string; eargs : Ast.term list; evalue : effect_value }

(** How an effect restores information: a plain [Write] sets the value; a
    [Touch] (paper §4.2.1) acts as an add for membership but preserves the
    payload previously associated with the entity.  The analysis treats
    both identically; the distinction matters to the runtime. *)
type effect_mode = Write | Touch

type annotated_effect = { eff : effect; mode : effect_mode }

type operation = {
  oname : string;
  oparams : Ast.tvar list;
  oeffects : annotated_effect list;
}

(* ------------------------------------------------------------------ *)
(* Convergence rules                                                   *)
(* ------------------------------------------------------------------ *)

(** Conflict-resolution policy for concurrent opposing writes to a
    predicate (paper §3.2): add-wins resolves to [true], rem-wins to
    [false]; LWW picks either (the analysis must consider both). *)
type conv_rule = Add_wins | Rem_wins | Lww

let conv_rule_to_string = function
  | Add_wins -> "add-wins"
  | Rem_wins -> "rem-wins"
  | Lww -> "lww"

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(** Hint tags for invariant classes that are not decidable from formula
    shape alone (Table 1). *)
type inv_tag = Tag_unique_id | Tag_sequential_id

type invariant = {
  iname : string;
  iformula : Ast.formula;
  itag : inv_tag option;
}

(* ------------------------------------------------------------------ *)
(* Specification                                                       *)
(* ------------------------------------------------------------------ *)

type t = {
  app_name : string;
  sorts : Ast.sort list;
  preds : pred_decl list;
  consts : (string * int) list;
  invariants : invariant list;
  operations : operation list;
  rules : (string * conv_rule) list;  (** convergence rule per predicate *)
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let find_pred (spec : t) name =
  List.find_opt (fun p -> p.pname = name) spec.preds

let find_op (spec : t) name =
  List.find_opt (fun o -> o.oname = name) spec.operations

let conv_rule_of (spec : t) pred =
  match List.assoc_opt pred spec.rules with Some r -> r | None -> Lww

(** Canonical form of a rule list: the effective (first) binding of each
    predicate, sorted.  Two rule lists with the same canonical form are
    semantically interchangeable — [conv_rule_of] cannot tell them
    apart. *)
let canonical_rules (rules : (string * conv_rule) list) :
    (string * conv_rule) list =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (p, _) ->
      if Hashtbl.mem seen p then false
      else begin
        Hashtbl.add seen p ();
        true
      end)
    rules
  |> List.sort compare

(** The conjunction of all invariants. *)
let invariant_formula (spec : t) : Ast.formula =
  Ast.conj_l (List.map (fun i -> i.iformula) spec.invariants)

(** Grounding signature derived from the predicate declarations. *)
let signature (spec : t) : Ground.signature =
  let bools, nums =
    List.partition (fun p -> p.pkind = Bool) spec.preds
  in
  {
    Ground.pred_sorts = List.map (fun p -> (p.pname, p.psorts)) bools;
    nfun_sorts = List.map (fun p -> (p.pname, p.psorts)) nums;
  }

(** Bounds function for numeric state functions, from declarations. *)
let int_bounds (spec : t) (n : Ground.gnum) : int * int =
  match find_pred spec n.Ground.gfun with
  | Some { pkind = Numeric { lo; hi }; _ } -> (lo, hi)
  | _ -> (0, 16)

(** Boolean predicates written by an operation (names, deduplicated). *)
let written_preds (op : operation) : string list =
  List.filter_map
    (fun ae ->
      match ae.eff.evalue with Set _ -> Some ae.eff.epred | Delta _ -> None)
    op.oeffects
  |> List.sort_uniq String.compare

(** Numeric functions written by an operation. *)
let written_nfuns (op : operation) : string list =
  List.filter_map
    (fun ae ->
      match ae.eff.evalue with Delta _ -> Some ae.eff.epred | Set _ -> None)
    op.oeffects
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_effect ppf (e : effect) =
  match e.evalue with
  | Set b ->
      Fmt.pf ppf "%s(%a) := %b" e.epred
        Fmt.(list ~sep:(any ", ") Pp.pp_term)
        e.eargs b
  | Delta d when d >= 0 ->
      Fmt.pf ppf "%s(%a) += %d" e.epred
        Fmt.(list ~sep:(any ", ") Pp.pp_term)
        e.eargs d
  | Delta d ->
      Fmt.pf ppf "%s(%a) -= %d" e.epred
        Fmt.(list ~sep:(any ", ") Pp.pp_term)
        e.eargs (-d)

let pp_annotated_effect ppf (ae : annotated_effect) =
  match ae.mode with
  | Write -> pp_effect ppf ae.eff
  | Touch -> Fmt.pf ppf "%a [touch]" pp_effect ae.eff

let pp_operation ppf (op : operation) =
  Fmt.pf ppf "@[<v 2>operation %s(%a)@,%a@]" op.oname
    Fmt.(list ~sep:(any ", ") Pp.pp_tvar)
    op.oparams
    Fmt.(list ~sep:cut pp_annotated_effect)
    op.oeffects

let operation_to_string op = Fmt.str "%a" pp_operation op

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let effect ?(mode = Write) epred eargs evalue =
  { eff = { epred; eargs; evalue }; mode }

let set_true ?(mode = Write) p args = effect ~mode p args (Set true)
let set_false ?(mode = Write) p args = effect ~mode p args (Set false)
let delta p args d = effect p args (Delta d)

let operation oname oparams oeffects = { oname; oparams; oeffects }
