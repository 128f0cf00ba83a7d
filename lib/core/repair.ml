(** Repair generation (functions [repairConflicts] and [generate] of
    Algorithm 1).

    For a conflicting pair, the algorithm collects the invariant clauses
    whose predicates the pair writes, instantiates their atoms against
    the operations' effects (unbound clause variables become wildcards —
    the [enrolled( *, t) := false] pattern of Figure 2c), and searches the
    powerset of candidate extra effects, smallest first, for additions
    that make the pair safe.  Each solution has the effects of one
    operation prevail over the other, mediated by the convergence rules. *)

open Ipa_logic
open Ipa_spec

(** Which operation of the pair a candidate modifies. *)
type target = Op1 | Op2

type solution = {
  s_target : target;
  s_op : string;  (** name of the modified operation *)
  s_added : Types.annotated_effect list;
  s_rules : (string * Types.conv_rule) list;
      (** convergence rules under which the solution is safe *)
  s_pair : Detect.aop * Detect.aop;  (** the repaired pair *)
}

let target_name (o1 : Detect.aop) (o2 : Detect.aop) = function
  | Op1 -> o1.Detect.cur.oname
  | Op2 -> o2.Detect.cur.oname

(* ------------------------------------------------------------------ *)
(* Candidate pools                                                     *)
(* ------------------------------------------------------------------ *)

(* boolean atoms (pred, args) of a clause body.  Predicates inside
   cardinalities contribute their argument patterns too: they can both
   anchor variable bindings (an effect on a counted predicate) and serve
   as candidate effects (e.g. keeping a disjunction like
   {v #assigned(k, * ) >= 1 or archived(k) v} true). *)
let clause_atoms (f : Ast.formula) : (string * Ast.term list) list =
  let rec strip = function
    | Ast.Forall (_, g) | Ast.Exists (_, g) -> strip g
    | g -> g
  in
  let body = strip f in
  let acc = ref [] in
  let rec go_n = function
    | Ast.Int _ | Ast.NConst _ | Ast.NFun _ -> ()
    | Ast.Card (p, args) -> acc := (p, args) :: !acc
    | Ast.NAdd (a, b) | Ast.NSub (a, b) ->
        go_n a;
        go_n b
  in
  let rec go = function
    | Ast.True | Ast.False | Ast.Eq _ -> ()
    | Ast.Atom (p, args) -> acc := (p, args) :: !acc
    | Ast.Cmp (_, a, b) ->
        go_n a;
        go_n b
    | Ast.Not g -> go g
    | Ast.And (a, b) | Ast.Or (a, b) | Ast.Implies (a, b) | Ast.Iff (a, b) ->
        go a;
        go b
    | Ast.Forall (_, g) | Ast.Exists (_, g) -> go g
  in
  go body;
  List.rev !acc

(* try to bind clause-atom argument terms against effect argument terms;
   clause variables bind to whatever the effect argument is *)
let match_args (cargs : Ast.term list) (eargs : Ast.term list) :
    (string * Ast.term) list option =
  let rec go binding = function
    | [], [] -> Some binding
    | c :: cs, e :: es -> (
        match c with
        | Ast.Var v -> (
            match List.assoc_opt v binding with
            | Some prev when prev <> e -> None
            | Some _ -> go binding (cs, es)
            | None -> go ((v, e) :: binding) (cs, es))
        | Ast.Const k -> (
            match e with
            | Ast.Const k' when k = k' -> go binding (cs, es)
            | _ -> None)
        | Ast.Star -> go binding (cs, es))
    | _ -> None
  in
  go [] (cargs, eargs)

let instantiate binding (args : Ast.term list) : Ast.term list =
  List.map
    (function
      | Ast.Var v -> (
          match List.assoc_opt v binding with Some t -> t | None -> Ast.Star)
      | t -> t)
    args

(** The candidate-effect pool for one operation: invariant-clause atoms
    instantiated through the operation's own effects (paper line 15,
    [invPreds]). *)
let pool_for (spec : Types.t) (clauses : Ast.formula list)
    (op : Types.operation) : (string * Ast.term list) list =
  let written =
    List.filter_map
      (fun (ae : Types.annotated_effect) ->
        match ae.eff.evalue with
        | Types.Set _ -> Some (ae.eff.epred, ae.eff.eargs)
        | Types.Delta _ -> None)
      op.oeffects
  in
  let candidates =
    List.concat_map
      (fun clause ->
        let atoms = clause_atoms clause in
        List.concat_map
          (fun (epred, eargs) ->
            List.concat_map
              (fun (cpred, cargs) ->
                if cpred <> epred || List.length cargs <> List.length eargs
                then []
                else
                  match match_args cargs eargs with
                  | None -> []
                  | Some binding ->
                      List.map
                        (fun (p, args) -> (p, instantiate binding args))
                        atoms)
              atoms)
          written)
      clauses
  in
  (* drop atoms the operation already writes, dedupe, keep stable order *)
  let seen = Hashtbl.create 16 in
  let pool =
    List.filter
      (fun (p, args) ->
        let key = (p, args) in
        if Hashtbl.mem seen key || List.mem key written then false
        else begin
          Hashtbl.add seen key ();
          (* only boolean predicates can receive Set effects *)
          match Types.find_pred spec p with
          | Some { pkind = Types.Bool; _ } -> true
          | _ -> false
        end)
      candidates
  in
  (* prefer specific atoms over wildcarded ones: candidates are tried in
     pool order, and an effect on exactly the operation's entities keeps
     semantics tighter than a wildcard (stable sort preserves clause
     order among equals) *)
  let stars (_, args) =
    List.length (List.filter (fun a -> a = Ast.Star) args)
  in
  List.stable_sort (fun a b -> compare (stars a) (stars b)) pool

(** Invariant clauses that mention a predicate written by either
    operation (paper: [invClauses]). *)
let relevant_clauses (spec : Types.t) (o1 : Types.operation)
    (o2 : Types.operation) : Ast.formula list =
  let written = Types.written_preds o1 @ Types.written_preds o2 in
  Ast.clauses (Types.invariant_formula spec)
  |> List.filter (fun c ->
         List.exists (fun p -> List.mem p written) (Ast.predicates c))

(* ------------------------------------------------------------------ *)
(* Candidate generation (paper: [generate])                            *)
(* ------------------------------------------------------------------ *)

type candidate = { c_target : target; c_added : Types.annotated_effect list }

(* subsets of a list with exactly k elements, lazily *)
let rec subsets_k k l : 'a list Seq.t =
  match l with
  | [] -> if k = 0 then Seq.return [] else Seq.empty
  | x :: rest ->
      if k = 0 then Seq.return []
      else
        Seq.append
          (Seq.map (fun s -> x :: s) (subsets_k (k - 1) rest))
          (fun () -> subsets_k k rest ())

(* all true/false value assignments over a chosen atom subset, lazily *)
let rec valuations : _ -> _ Seq.t = function
  | [] -> Seq.return []
  | (p, args) :: rest ->
      Seq.concat_map
        (fun t ->
          List.to_seq [ ((p, args), true) :: t; ((p, args), false) :: t ])
        (valuations rest)

(* the repair search consumes at most this many candidates per pair *)
let max_candidates = 4000

(** Generate candidate modifications, ordered by increasing number of
    added effects (paper line 29); each candidate modifies exactly one
    operation of the pair (lines 27–28).  Added [:= true] effects use
    [Touch] mode so the runtime preserves entity payloads (§4.2.1).
    The sequence is lazy: the exponential powerset is only materialized
    as far as the consumer ([repair_conflicts], bounded by
    [max_candidates]) demands. *)
let generate ?(self_pair = false) ~(max_size : int)
    (pool1 : (string * Ast.term list) list)
    (pool2 : (string * Ast.term list) list) : candidate Seq.t =
  let mk target choice =
    {
      c_target = target;
      c_added =
        List.map
          (fun ((p, args), v) ->
            if v then Types.set_true ~mode:Types.Touch p args
            else Types.set_false p args)
          choice;
    }
  in
  let for_size k =
    let of_pool target pool =
      Seq.concat_map
        (fun subset -> Seq.map (mk target) (valuations subset))
        (subsets_k k pool)
    in
    (* on a self-pair the two targets are the same operation *)
    Seq.append (of_pool Op1 pool1)
      (if self_pair then Seq.empty else of_pool Op2 pool2)
  in
  Seq.concat_map for_size
    (Seq.init (min max_size (max (List.length pool1) (List.length pool2)))
       (fun i -> i + 1))

let apply_candidate ?(self_pair = false) (o1 : Detect.aop) (o2 : Detect.aop)
    (c : candidate) : Detect.aop * Detect.aop =
  let extend (o : Detect.aop) =
    {
      o with
      Detect.cur = { o.Detect.cur with oeffects = o.Detect.cur.oeffects @ c.c_added };
    }
  in
  if self_pair then (extend o1, extend o2)
  else
    match c.c_target with
    | Op1 -> (extend o1, o2)
    | Op2 -> (o1, extend o2)

(** A modification must preserve the operation's original semantics when
    no conflict occurs (§1): the modified operation's writes, grounded
    with all-distinct parameters, must still contain every base write
    with its original value.  This rejects degenerate candidates that
    mask the operation's own effects (e.g. adding [e( *, y) := false] to
    an operation whose purpose is to set [e(x, y) := true]). *)
let preserves_intent (spec : Types.t) (o : Detect.aop) : bool =
  let binding =
    List.map
      (fun (p : Ast.tvar) -> (p.vname, Fmt.str "%s_%s" p.vsort p.vname))
      o.Detect.cur.oparams
  in
  let dom =
    List.map
      (fun sort ->
        ( sort,
          List.filter_map
            (fun (p : Ast.tvar) ->
              if p.vsort = sort then Some (List.assoc p.vname binding)
              else None)
            o.Detect.cur.oparams
          @ [ sort ^ "_bg" ] ))
      spec.sorts
  in
  let wb = Effects.ground_writes spec dom o.Detect.base binding in
  let wc = Effects.ground_writes spec dom o.Detect.cur binding in
  List.for_all
    (fun (a, v) -> Effects.lookup_bool wc a = Some v)
    wb.Effects.bool_writes
  && List.for_all
       (fun (n, d) -> Effects.lookup_num wc n = Some d)
       wb.Effects.num_writes

(* ------------------------------------------------------------------ *)
(* Convergence-rule search                                             *)
(* ------------------------------------------------------------------ *)

(* Rule assignments to try: the specification's own rules first; when
   [search_rules] is set, also all add-wins/rem-wins assignments over the
   predicates that can have opposing writes in the candidate pair.
   Deduplicated by set-equality of the effective rule assignment: an
   enumerated assignment that coincides with [spec.rules] (e.g. the
   empty-predicate assignment) would otherwise be checked — and paid
   for — twice per candidate. *)
let rule_choices ~search_rules (spec : Types.t) (preds : string list) :
    (string * Types.conv_rule) list list =
  if not search_rules then [ spec.rules ]
  else
    let rec assigns = function
      | [] -> [ [] ]
      | p :: rest ->
          let tails = assigns rest in
          List.concat_map
            (fun t ->
              [ (p, Types.Add_wins) :: t; (p, Types.Rem_wins) :: t ])
            tails
    in
    let override rules =
      rules @ List.filter (fun (p, _) -> not (List.mem_assoc p rules)) spec.rules
    in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun rules ->
        let key = Types.canonical_rules rules in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      (spec.rules :: List.map override (assigns preds))

(* ------------------------------------------------------------------ *)
(* Repair search (paper: [repairConflicts])                            *)
(* ------------------------------------------------------------------ *)

let is_subset_of added sol_added =
  List.for_all (fun e -> List.mem e added) sol_added

(** Search for minimal sets of extra effects that make the pair safe.

    Returns every minimal solution found (the caller — tool or policy —
    picks one, paper line 21).  When [search_rules] is set, solutions may
    override convergence rules; [s_rules] records the rules under which
    the solution was validated.

    [witness] — the counterexample that triggered the repair — enables
    witness-guided pruning when [ctx] has caching on: a candidate
    (under a given rule choice) that does not even fix the stored
    counterexample is rejected by concrete re-evaluation
    ({!Detect.witness_refutes}) without touching the solver.  The
    search furthermore accumulates the counterexamples produced by
    failed candidates (CEGIS-style) and screens against all of them:
    every witness came from a pair sharing the same base operations, so
    the exactness argument applies to each one individually and the
    solution set is unchanged. *)
let repair_conflicts ?(max_size = 3) ?(search_rules = false) ~ctx ?witness
    (spec : Types.t) ((o1, o2) : Detect.aop * Detect.aop) : solution list =
  let clauses = relevant_clauses spec o1.Detect.cur o2.Detect.cur in
  let pool1 = pool_for spec clauses o1.Detect.cur in
  let pool2 = pool_for spec clauses o2.Detect.cur in
  let self_pair = o1.Detect.cur.oname = o2.Detect.cur.oname in
  let candidates =
    Seq.take max_candidates (generate ~self_pair ~max_size pool1 pool2)
  in
  let st = Anactx.stats ctx in
  (* counterexample store: each witness is kept with the pair it was
     found for, since screening compares that pair's analysis frame with
     the candidate's (see {!Detect.witness_refutes}).  Bounded so
     screening stays cheap relative to a SAT call. *)
  let max_witnesses = 64 in
  let witnesses =
    ref (match witness with Some w -> [ ((o1, o2), w) ] | None -> [])
  in
  let n_witnesses = ref (List.length !witnesses) in
  let remember pair w =
    if !n_witnesses < max_witnesses then begin
      witnesses := (pair, w) :: !witnesses;
      incr n_witnesses
    end
  in
  let sols = ref [] in
  Seq.iter
    (fun cand ->
      st.Anactx.cands_generated <- st.Anactx.cands_generated + 1;
      (* minimality: skip candidates subsuming an existing solution on the
         same target (paper line 18) *)
      let subsumed =
        List.exists
          (fun s ->
            s.s_target = cand.c_target && is_subset_of cand.c_added s.s_added)
          !sols
      in
      if not subsumed then begin
        let p1, p2 = apply_candidate ~self_pair o1 o2 cand in
        if preserves_intent spec p1 && preserves_intent spec p2
        then begin
        (* predicates that may now have opposing writes *)
        let opposing =
          let w1 = Types.written_preds p1.Detect.cur
          and w2 = Types.written_preds p2.Detect.cur in
          List.filter (fun p -> List.mem p w2) w1
        in
        let rules_to_try = rule_choices ~search_rules spec opposing in
        let rec try_rules = function
          | [] -> ()
          | rules :: rest ->
              let spec' = { spec with rules } in
              (* witness screening before the full SAT check: reject the
                 candidate if any stored counterexample provably still
                 applies to it *)
              let pruned =
                Anactx.cache_enabled ctx
                && List.exists
                     (fun (pair, w) ->
                       Detect.witness_refutes ~ctx spec' pair (p1, p2) w
                       = Some true)
                     !witnesses
              in
              if pruned then begin
                st.Anactx.cands_pruned <- st.Anactx.cands_pruned + 1;
                try_rules rest
              end
              else begin
                st.Anactx.cands_checked <- st.Anactx.cands_checked + 1;
                if
                  Detect.sequentially_safe ~ctx spec' p1
                  && Detect.sequentially_safe ~ctx spec' p2
                then
                  match Detect.check_pair ~ctx spec' p1 p2 with
                  | Detect.Safe ->
                      sols :=
                        {
                          s_target = cand.c_target;
                          s_op = target_name o1 o2 cand.c_target;
                          s_added = cand.c_added;
                          s_rules = rules;
                          s_pair = (p1, p2);
                        }
                        :: !sols
                  | Detect.Conflict w' ->
                      remember (p1, p2) w';
                      try_rules rest
                else try_rules rest
              end
        in
        try_rules rules_to_try
        end
      end)
    candidates;
  List.rev !sols

(* ------------------------------------------------------------------ *)
(* Resolution policies (paper: [pickResolution])                       *)
(* ------------------------------------------------------------------ *)

type policy =
  | Fewest_effects  (** smallest modification wins *)
  | Prefer_op of string  (** prefer solutions whose effects let [op] win *)
  | Choose of (solution list -> solution option)  (** interactive *)

let solution_size s = List.length s.s_added

let pick (policy : policy) (sols : solution list) : solution option =
  match sols with
  | [] -> None
  | _ -> (
      match policy with
      | Fewest_effects ->
          Some
            (List.fold_left
               (fun best s ->
                 if solution_size s < solution_size best then s else best)
               (List.hd sols) (List.tl sols))
      | Prefer_op name -> (
          (* the op whose effects prevail is the one we modified to
             reinforce its own effects *)
          match List.find_opt (fun s -> s.s_op = name) sols with
          | Some s -> Some s
          | None -> Some (List.hd sols))
      | Choose f -> f sols)

let pp_solution ppf (s : solution) =
  Fmt.pf ppf "@[<v 2>modify %s, adding:@,%a@]@,under rules: %a" s.s_op
    Fmt.(list ~sep:cut Types.pp_annotated_effect)
    s.s_added
    Fmt.(
      list ~sep:(any ", ") (fun ppf (p, r) ->
          pf ppf "%s:%s" p (Types.conv_rule_to_string r)))
    s.s_rules
