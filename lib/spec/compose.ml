(** Composition of application specifications (§5.1.4).

    "If a database is shared by multiple applications, the programmer
    must create a single specification of all applications for the
    analysis to identify all possible conflicts."  [merge] builds that
    combined specification: sorts and predicates are unified by name
    (declarations must agree), invariants and operations are collected
    (name clashes are qualified with the application name), and
    convergence rules must not contradict each other — a predicate two
    applications resolve differently is exactly the cross-application
    conflict the combined analysis exists to find, so it is an error. *)

open Types

exception Incompatible of string

let fail fmt = Fmt.kstr (fun s -> raise (Incompatible s)) fmt

let merge_preds (specs : t list) : pred_decl list =
  List.fold_left
    (fun acc (s : t) ->
      List.fold_left
        (fun acc (p : pred_decl) ->
          match List.find_opt (fun q -> q.pname = p.pname) acc with
          | None -> acc @ [ p ]
          | Some q when q.psorts = p.psorts && q.pkind = p.pkind -> acc
          | Some _ ->
              fail "predicate %s is declared incompatibly by %s" p.pname
                s.app_name)
        acc s.preds)
    [] specs

let merge_consts (specs : t list) : (string * int) list =
  List.fold_left
    (fun acc (s : t) ->
      List.fold_left
        (fun acc (name, v) ->
          match List.assoc_opt name acc with
          | None -> acc @ [ (name, v) ]
          | Some v' when v = v' -> acc
          | Some v' ->
              fail "constant %s has conflicting values %d (%s) and %d" name v'
                s.app_name v)
        acc s.consts)
    [] specs

let merge_rules (specs : t list) : (string * conv_rule) list =
  List.fold_left
    (fun acc (s : t) ->
      List.fold_left
        (fun acc (p, r) ->
          match List.assoc_opt p acc with
          | None -> acc @ [ (p, r) ]
          | Some r' when r = r' -> acc
          | Some r' ->
              fail
                "predicate %s has conflicting convergence rules %s and %s \
                 (from %s) — shared data must converge identically for every \
                 application"
                p
                (conv_rule_to_string r')
                (conv_rule_to_string r) s.app_name)
        acc s.rules)
    [] specs

(* qualify a name with the app when it clashes with an earlier one *)
let qualified seen (s : t) name =
  if List.mem name seen then s.app_name ^ "." ^ name else name

(* every spec's [items] in order, renamed by [rename] with their
   [name] qualified where it clashes with an earlier one *)
let merge_named (specs : t list) items name rename =
  List.fold_left
    (fun (seen, acc) (s : t) ->
      List.fold_left
        (fun (seen, acc) x ->
          let n = qualified seen s (name x) in
          (n :: seen, acc @ [ rename x n ]))
        (seen, acc) (items s))
    ([], []) specs
  |> snd

(** Merge several application specifications into one, for a combined
    analysis over the shared database.  Raises {!Incompatible} on
    contradictory declarations. *)
let merge ?(name = "combined") (specs : t list) : t =
  if specs = [] then invalid_arg "Compose.merge: empty list";
  let sorts =
    List.fold_left
      (fun acc (s : t) ->
        acc @ List.filter (fun x -> not (List.mem x acc)) s.sorts)
      [] specs
  in
  Validate.validate
    {
      app_name = name;
      sorts;
      preds = merge_preds specs;
      consts = merge_consts specs;
      invariants =
        merge_named specs
          (fun s -> s.invariants)
          (fun i -> i.iname)
          (fun i iname -> { i with iname });
      operations =
        merge_named specs
          (fun s -> s.operations)
          (fun o -> o.oname)
          (fun o oname -> { o with oname });
      rules = merge_rules specs;
    }
