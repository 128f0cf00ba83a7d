(** Well-formedness checks for application specifications.

    The IPA tool rejects malformed specifications up front so that the
    analysis can assume arity-correct, well-sorted, closed inputs. *)

open Ipa_logic
open Types

type error = { where : string; what : string }

let err where fmt = Fmt.kstr (fun what -> { where; what }) fmt

(* sort of each argument position must exist; terms must be parameters of
   the operation, constants, or stars *)
let check_effect (spec : t) (op : operation) (ae : annotated_effect) :
    error list =
  let e = ae.eff in
  let where = Fmt.str "operation %s, effect %s" op.oname e.epred in
  match find_pred spec e.epred with
  | None -> [ err where "references undeclared predicate %s" e.epred ]
  | Some pd ->
      let arity_errs =
        if List.length e.eargs <> List.length pd.psorts then
          [
            err where "arity mismatch: expected %d arguments, got %d"
              (List.length pd.psorts) (List.length e.eargs);
          ]
        else []
      in
      let kind_errs =
        match (pd.pkind, e.evalue) with
        | Bool, Set _ | Numeric _, Delta _ -> []
        | Bool, Delta _ ->
            [ err where "numeric delta applied to boolean predicate" ]
        | Numeric _, Set _ ->
            [ err where "boolean assignment applied to numeric function" ]
      in
      let arg_errs =
        if arity_errs <> [] then []
        else
          List.concat
            (List.map2
               (fun (t : Ast.term) sort ->
                 match t with
                 | Ast.Const _ | Ast.Star -> []
                 | Ast.Var v -> (
                     match
                       List.find_opt (fun (p : Ast.tvar) -> p.vname = v)
                         op.oparams
                     with
                     | None ->
                         [
                           err where "argument %s is not a parameter of %s" v
                             op.oname;
                         ]
                     | Some p when p.vsort <> sort ->
                         [
                           err where
                             "argument %s has sort %s but position expects %s"
                             v p.vsort sort;
                         ]
                     | Some _ -> []))
               e.eargs pd.psorts)
      in
      arity_errs @ kind_errs @ arg_errs

let check_operation (spec : t) (op : operation) : error list =
  let param_errs =
    List.concat_map
      (fun (p : Ast.tvar) ->
        if List.mem p.vsort spec.sorts then []
        else
          [
            err
              (Fmt.str "operation %s" op.oname)
              "parameter %s has undeclared sort %s" p.vname p.vsort;
          ])
      op.oparams
  in
  let dup_errs =
    let names = List.map (fun (p : Ast.tvar) -> p.vname) op.oparams in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then [ err (Fmt.str "operation %s" op.oname) "duplicate parameter names" ]
    else []
  in
  param_errs @ dup_errs @ List.concat_map (check_effect spec op) op.oeffects

let check_invariant (spec : t) (inv : invariant) : error list =
  let where = Fmt.str "invariant %s" inv.iname in
  let fv = Ast.free_vars inv.iformula in
  let closed_errs =
    (* free variables that are not named integer constants are errors *)
    List.filter_map
      (fun v ->
        if List.mem_assoc v spec.consts then None
        else Some (err where "free variable %s (declare a const?)" v))
      fv
  in
  let pred_errs =
    List.filter_map
      (fun p ->
        match find_pred spec p with
        | Some _ -> None
        | None -> Some (err where "undeclared predicate %s" p))
      (Ast.predicates inv.iformula @ Ast.nfunctions inv.iformula)
  in
  closed_errs @ pred_errs

let check_rules (spec : t) : error list =
  List.filter_map
    (fun (p, _) ->
      match find_pred spec p with
      | Some _ -> None
      | None ->
          Some (err "convergence rules" "rule for undeclared predicate %s" p))
    spec.rules

(** All well-formedness violations of a specification (empty = valid). *)
let check (spec : t) : error list =
  let dup_pred =
    let names = List.map (fun p -> p.pname) spec.preds in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then [ err "predicates" "duplicate predicate declarations" ]
    else []
  in
  let dup_op =
    let names = List.map (fun o -> o.oname) spec.operations in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then [ err "operations" "duplicate operation declarations" ]
    else []
  in
  dup_pred @ dup_op @ check_rules spec
  @ List.concat_map (check_invariant spec) spec.invariants
  @ List.concat_map (check_operation spec) spec.operations

exception Invalid of error list

(** [validate spec] returns [spec] or raises {!Invalid}. *)
let validate (spec : t) : t =
  match check spec with [] -> spec | errs -> raise (Invalid errs)
