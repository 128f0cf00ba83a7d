(** Conflict detection (function [isConflicting] of Algorithm 1, extended
    with convergence rules).

    A pair of operations conflicts if there is an I-valid pre-state,
    admissible for both operations (their weakest preconditions hold),
    such that merging the effects of their concurrent executions — with
    opposing boolean writes resolved by the convergence rules — yields an
    I-invalid state.  The check is decided by the SAT backend over the
    small-model domains of {!Pairctx}.

    Every verdict is assembled from per-clause {e obligations}, one per
    (unification case × relevant clause), enumerated lazily case by
    case ([cases]) and memoized in {!Anactx}'s obligation table: a pair
    check walks the pair's, and sequential safety those of the
    operation paired with a no-op.  Two kinds of query are posed.  An
    obligation is verdict-only and runs on the case's {e frame}: one
    incremental solver per (relevant clauses, base weakest
    preconditions), kept in {!Anactx}, where each conjunct of the target
    clause that the writes change is decided under one assumption and
    its verdict kept.  Witness queries (a case whose obligations show a
    violation) assert the whole violation target on a fresh solver, so
    the model, and the report's witness, is the reference search's. *)

open Ipa_logic
open Ipa_solver
open Ipa_spec

(** An operation under analysis: [base] defines the precondition that the
    application code checks (its original effects); [cur] carries the
    effects after IPA modifications. Initially they coincide. *)
type aop = { base : Types.operation; cur : Types.operation }

let aop_of (op : Types.operation) : aop = { base = op; cur = op }

(** A concrete counterexample execution, in the style of Figure 2: a
    valid initial state, per-operation writes, the merged outcome, and
    the invariants that the merged state violates.  (Defined in
    {!Oblig} so the analysis context can cache witnesses.) *)
type witness = Oblig.witness = {
  unif : Pairctx.unification;
  pre_atoms : (Ground.gatom * bool) list;
  pre_nums : (Ground.gnum * int) list;
  writes1 : Effects.writes;
  writes2 : Effects.writes;
  merged : Effects.writes;
  violated : string list;  (** names of invariants false after merge *)
}

type verdict = Safe | Conflict of witness

(** Invariant clauses relevant to a pair: those mentioning a predicate or
    numeric function either operation writes.  Restricting the analysis to
    these clauses (as Indigo does) is a sound over-approximation: dropped
    clauses are untouched by the pair's writes, so they cannot be the
    violated clause; dropping them from the pre-state constraint can only
    admit {e more} pre-states, i.e. report {e more} conflicts, never miss
    one. *)
let relevant_invariants (spec : Types.t) (o1 : Types.operation)
    (o2 : Types.operation) : Types.invariant list =
  let written =
    Types.written_preds o1 @ Types.written_preds o2 @ Types.written_nfuns o1
    @ Types.written_nfuns o2
  in
  List.filter
    (fun (i : Types.invariant) ->
      List.exists
        (fun p -> List.mem p written)
        (Ast.predicates i.iformula @ Ast.nfunctions i.iformula))
    spec.invariants

(* does either op write [true] into predicate [pred]? *)
let pair_grows (ops : Types.operation list) (pred : string) : bool =
  List.exists
    (fun (o : Types.operation) ->
      List.exists
        (fun (ae : Types.annotated_effect) ->
          ae.eff.epred = pred && ae.eff.evalue = Types.Set true)
        o.oeffects)
    ops

(* sorts whose domain must be widened: star positions of cardinality
   predicates that the pair can grow *)
let widen_sorts (spec : Types.t) (invs : Types.invariant list)
    (ops : Types.operation list) : (Ast.sort * int) list =
  let acc = Hashtbl.create 4 in
  let const_value = function
    | Ast.Int n -> Some n
    | Ast.NConst c -> List.assoc_opt c spec.consts
    | _ -> None
  in
  let scan_cmp a b =
    let scan_side card_side other =
      match card_side with
      | Ast.Card (p, args) when pair_grows ops p -> (
          let bound = match const_value other with Some k -> k | None -> 16 in
          match Types.find_pred spec p with
          | Some pd ->
              List.iter2
                (fun arg sort ->
                  match arg with
                  | Ast.Star ->
                      let cur =
                        Option.value ~default:1 (Hashtbl.find_opt acc sort)
                      in
                      Hashtbl.replace acc sort (max cur (bound + 2))
                  | _ -> ())
                args pd.psorts
          | None -> ())
      | _ -> ()
    in
    scan_side a b;
    scan_side b a
  in
  let rec scan = function
    | Ast.True | Ast.False | Ast.Atom _ | Ast.Eq _ -> ()
    | Ast.Cmp (_, a, b) -> scan_cmp a b
    | Ast.Not f -> scan f
    | Ast.And (a, b) | Ast.Or (a, b) | Ast.Implies (a, b) | Ast.Iff (a, b) ->
        scan a;
        scan b
    | Ast.Forall (_, f) | Ast.Exists (_, f) -> scan f
  in
  List.iter (fun (i : Types.invariant) -> scan i.iformula) invs;
  Hashtbl.fold (fun s n l -> (s, n) :: l) acc []

(* extend the unification domain with extra background elements where the
   pair can saturate a cardinality bound *)
let widen_domain_for (spec : Types.t) (invs : Types.invariant list)
    (ops : Types.operation list) (dom : Ground.domain) : Ground.domain =
  let widths = widen_sorts spec invs ops in
  List.map
    (fun (sort, elems) ->
      let extra =
        Option.value ~default:1 (List.assoc_opt sort widths) - 1
      in
      ( sort,
        elems
        @ List.init (max 0 extra) (fun i -> Fmt.str "%s_bg%d" sort (i + 2)) ))
    dom

(* the (relevant clauses, widened domain) analysis frame of one
   unification case — every obligation and the whole-case witness query
   are posed against this frame *)
let case_frame (spec : Types.t) (o1 : aop) (o2 : aop)
    (u : Pairctx.unification) : Types.invariant list * Ground.domain =
  let invs = relevant_invariants spec o1.cur o2.cur in
  (invs, widen_domain_for spec invs [ o1.cur; o2.cur ] u.dom)

(* the frame's clauses, grounded over [dom] through the context's cache *)
let ground_clauses ~ctx (spec : Types.t) ~(dom : Ground.domain)
    (invs : Types.invariant list) : Ground.gformula list =
  let sg = Types.signature spec in
  List.map
    (fun (i : Types.invariant) ->
      Anactx.ground ctx ~sg ~consts:spec.consts ~dom i.iformula)
    invs

(* Assert a frame on [enc]: each clause of [gcs] holds in the
   pre-state, and the weakest precondition of each write set in [bases]
   holds (only clauses a write affects yield a constraint different
   from the already-asserted clause).  The assertion order is fixed:
   witness models depend on it. *)
let assert_frame enc (gcs : Ground.gformula list)
    ~(bases : Effects.writes list) : unit =
  List.iter (Encode.assert_formula enc) gcs;
  List.iter
    (fun w ->
      List.iter
        (fun gc ->
          let t = Effects.apply_writes w gc in
          if t <> gc then Encode.assert_formula enc t)
        gcs)
    bases

(* The witness query: the frame, then [target] — the violation sought —
   on a fresh solver.  [k] reads the result (and, on Sat, the model)
   before the solver is released. *)
let solve_query ~ctx (spec : Types.t) (gcs : Ground.gformula list)
    ~(bases : Effects.writes list) (target : Ground.gformula)
    (k : Encode.ctx -> Sat.result -> 'a) : 'a =
  let enc = Encode.create ~int_bounds:(Types.int_bounds spec) () in
  assert_frame enc gcs ~bases;
  Encode.assert_formula enc target;
  let result = Anactx.record_solve ctx enc (fun () -> Encode.solve enc) in
  let v = k enc result in
  Encode.release enc;
  v

(* Verdict-only queries run on the case's frame ({!Anactx.with_frame}),
   one incremental solver per frame.  Whether clause [gc] can be false
   after writes [w] splits over its conjuncts: SAT(F ∧ ¬∧ᵢcᵢ[w]) iff
   SAT(F ∧ ¬cᵢ[w]) for some i.  A conjunct the writes leave unchanged
   is asserted by the frame, and one they make constant-true is true in
   every state, so neither can be false; each other one is
   Tseitin-encoded into the frame's solver (gate definitions only
   extend it, so learnt clauses stay valid) and decided under the one
   assumption that its gate is false.  Each verdict is kept on the
   frame. *)
let with_frame ~ctx (spec : Types.t) (key : Oblig.key)
    ~(clauses : unit -> Ground.gformula list) ~(bases : Effects.writes list)
    (f : Anactx.frame -> 'a) : 'a =
  Anactx.with_frame ctx key
    ~build:(fun () ->
      let enc = Encode.create ~int_bounds:(Types.int_bounds spec) () in
      assert_frame enc (clauses ()) ~bases;
      enc)
    f

let rec conjuncts (g : Ground.gformula) : Ground.gformula list =
  match g with GAnd (a, b) -> conjuncts a @ conjuncts b | g -> [ g ]

let conjunct_violable ~ctx (fr : Anactx.frame) (c : Ground.gformula) : bool =
  Anactx.conjunct fr c @@ fun () ->
  let enc = Anactx.frame_enc fr in
  let l = Encode.encode enc c in
  let r =
    Anactx.record_solve ctx enc (fun () -> Encode.solve ~assumptions:[ -l ] enc)
  in
  Sat.reset (Encode.solver enc);
  r = Sat.Sat

(* can frame clause [gc] be false after the writes [w]?  Only the
   conjuncts the writes change and do not make constant-true are
   solved *)
let clause_violable ~ctx (fr : Anactx.frame) (w : Effects.writes)
    (gc : Ground.gformula) : bool =
  List.exists
    (fun c ->
      let t = Effects.apply_writes w c in
      t <> c && t <> Ground.GTrue && conjunct_violable ~ctx fr t)
    (conjuncts gc)

(* "some clause the writes affect is false afterwards" *)
let violation (w : Effects.writes) (gcs : Ground.gformula list) :
    Ground.gformula =
  Ground.gor_l
    (List.filter_map
       (fun gc ->
         let t = Effects.apply_writes w gc in
         if t = gc then None else Some (Ground.gnot t))
       gcs)

(* a case's writes over [dom]: the base writes of both operations,
   whose weakest preconditions the frame asserts, and their current
   writes *)
let case_writes (spec : Types.t) (o1 : aop) (o2 : aop)
    (u : Pairctx.unification) ~(dom : Ground.domain) =
  ( [
      Effects.ground_writes spec dom o1.base u.binding1;
      Effects.ground_writes spec dom o2.base u.binding2;
    ],
    Effects.ground_writes spec dom o1.cur u.binding1,
    Effects.ground_writes spec dom o2.cur u.binding2 )

(* the whole-case query over an already-computed frame: pre-state and
   weakest preconditions, then the disjunction of per-clause violation
   targets, for each merged outcome in turn; extract a witness on Sat *)
let check_case_grounded ~ctx (spec : Types.t) (o1 : aop) (o2 : aop)
    (u : Pairctx.unification) ~(invs : Types.invariant list)
    ~(dom : Ground.domain) : witness option =
  let gcs = ground_clauses ~ctx spec ~dom invs in
  let ig = Ground.gand_l gcs in
  let bases, w1, w2 = case_writes spec o1 o2 u ~dom in
  let int_bounds = Types.int_bounds spec in
  let extract merged enc =
    let atoms =
      List.sort_uniq compare
        (Ground.atoms ig @ List.map fst w1.bool_writes
        @ List.map fst w2.bool_writes)
    in
    let nums =
      List.sort_uniq compare
        (Ground.nums ig @ List.map fst w1.num_writes
        @ List.map fst w2.num_writes)
    in
    let pre_atoms = List.map (fun a -> (a, Encode.model_atom enc a)) atoms in
    let pre_nums = List.map (fun n -> (n, Encode.model_num enc n)) nums in
    let batom a = Option.value ~default:false (List.assoc_opt a pre_atoms) in
    let bnum n =
      match List.assoc_opt n pre_nums with
      | Some v -> v
      | None -> fst (int_bounds n)
    in
    let batom', bnum' = Effects.post_state ~batom ~bnum merged in
    let violated =
      List.filter_map
        (fun ((i : Types.invariant), gc) ->
          if Ground.eval ~batom:batom' ~bnum:bnum' gc then None
          else Some i.iname)
        (List.combine invs gcs)
    in
    {
      unif = { u with dom };
      pre_atoms;
      pre_nums;
      writes1 = w1;
      writes2 = w2;
      merged;
      violated;
    }
  in
  List.find_map
    (fun merged ->
      solve_query ~ctx spec gcs ~bases (violation merged gcs)
        (fun enc -> function
          | Sat.Unsat -> None
          | Sat.Sat -> Some (extract merged enc)))
    (Effects.merge_writes spec w1 w2)

(** Check a single unification case with one whole-invariant query over
    its frame (relevant clauses, widened domain).  Returns a witness if
    conflicting.  {!check_pair} replays exactly this query for a case
    whose obligations show a violation. *)
let check_case ~ctx (spec : Types.t) (o1 : aop) (o2 : aop)
    (u : Pairctx.unification) : witness option =
  let invs, dom = case_frame spec o1 o2 u in
  if invs = [] then None else check_case_grounded ~ctx spec o1 o2 u ~invs ~dom

(** One per-clause proof obligation of a pair, enumerated without solver
    work and dischargeable independently (e.g. on a worker domain). *)
type oblig = {
  ob_o1 : aop;
  ob_o2 : aop;
  ob_unif : Pairctx.unification;
  ob_invs : Types.invariant list;
  ob_dom : Ground.domain;
  ob_key : Oblig.key;
  ob_clause : int;
}

(* The pair's obligations grouped by unification case, in case order:
   one non-empty list per case with a relevant clause, one obligation
   per clause.  Lazy, so a walk that stops at its first violable case
   does not frame or key the rest. *)
let cases (spec : Types.t) (o1 : aop) (o2 : aop) : oblig list Seq.t =
  List.to_seq (Pairctx.unifications spec o1.cur o2.cur)
  |> Seq.filter_map (fun (u : Pairctx.unification) ->
         let invs, dom = case_frame spec o1 o2 u in
         if invs = [] then None
         else
           let ck =
             Oblig.case_key spec ~base1:o1.base ~cur1:o1.cur ~base2:o2.base
               ~cur2:o2.cur ~binding1:u.binding1 ~binding2:u.binding2 ~dom
               ~frame:invs
           in
           Some
             (List.mapi
                (fun idx _ ->
                  {
                    ob_o1 = o1;
                    ob_o2 = o2;
                    ob_unif = u;
                    ob_invs = invs;
                    ob_dom = dom;
                    ob_key = Oblig.with_clause ck idx;
                    ob_clause = idx;
                  })
                invs))

(** Enumerate the pair's obligations: one per (unification case ×
    relevant clause).  Cases with no relevant clause contribute none. *)
let obligations (spec : Types.t) (o1 : aop) (o2 : aop) : oblig list =
  List.concat (List.of_seq (cases spec o1 o2))

(** Discharge one obligation through the context's content-addressed
    obligation table: [true] means some merged outcome of the pair's
    concurrent effects can falsify the clause.  Decided on the case's
    frame, so the verdict depends on nothing outside the obligation's
    {!Oblig.key}. *)
let solve_obligation ~ctx (spec : Types.t) (ob : oblig) : bool =
  Anactx.oblig_lookup ctx ob.ob_key @@ fun () ->
  let dom = ob.ob_dom in
  let bases, w1, w2 = case_writes spec ob.ob_o1 ob.ob_o2 ob.ob_unif ~dom in
  let target =
    List.hd (ground_clauses ~ctx spec ~dom [ List.nth ob.ob_invs ob.ob_clause ])
  in
  (* the whole frame is ground only when it is built *)
  let clauses () = ground_clauses ~ctx spec ~dom ob.ob_invs in
  with_frame ~ctx spec ob.ob_key ~clauses ~bases @@ fun fr ->
  List.exists
    (fun merged -> clause_violable ~ctx fr merged target)
    (Effects.merge_writes spec w1 w2)

(* some obligation of the case is violable *)
let violable ~ctx (spec : Types.t) (case : oblig list) : bool =
  List.exists (solve_obligation ~ctx spec) case

(** [check_pair ~ctx spec o1 o2] decides whether the pair conflicts under
    any parameter unification (paper: [isConflicting]).  It walks the
    pair's cases in order, deciding each (case × clause) obligation
    through the context's obligation table, and replays the whole-case
    witness query (also cached) only for a case with a violable
    obligation.  Exact: the whole-case query asserts the disjunction of
    the per-clause violation targets, which is satisfiable iff some
    obligation is; and the replay runs the very query {!check_case}
    runs, so the verdict and the witness are those of the first case
    whose whole-case query is satisfiable. *)
let check_pair ~ctx (spec : Types.t) (o1 : aop) (o2 : aop) : verdict =
  let st = Anactx.stats ctx in
  st.Anactx.pairs_checked <- st.Anactx.pairs_checked + 1;
  let witness case =
    if not (violable ~ctx spec case) then None
    else
      let ob = List.hd case in
      Anactx.case_lookup ctx (Oblig.with_clause ob.ob_key (-1)) @@ fun () ->
      check_case_grounded ~ctx spec o1 o2 ob.ob_unif ~invs:ob.ob_invs
        ~dom:ob.ob_dom
  in
  match Seq.find_map witness (cases spec o1 o2) with
  | Some w -> Conflict w
  | None -> Safe

let noop = aop_of (Types.operation "__noop" [] [])

(** [sequentially_safe spec o] holds when executing [o] alone from any
    state admissible for its {e original} precondition preserves the
    invariant — IPA modifications must not break sequential executions
    (paper §2.2, Theorem 1).  That is: no obligation of the pair ([o],
    no-op) is violable.  The no-op writes nothing, so each merged
    outcome is [o]'s own writes and each frame asserts only [o]'s base
    weakest preconditions. *)
let sequentially_safe ~ctx (spec : Types.t) (o : aop) : bool =
  not (Seq.exists (violable ~ctx spec) (cases spec o noop))

(** Witness-guided candidate screening: does the stored counterexample
    [w] (found for the pair [(o1, o2)]) still violate the invariant when
    the candidate pair [(p1, p2)]'s writes are merged over its pre-state?

    Returns [None] when the candidate changes the analysis frame — the
    relevant clause set or the domain widening — in which case the cheap
    re-evaluation would not be conclusive.  Otherwise [Some true] is an
    {e exact} "still conflicting" verdict: candidates only extend [cur]
    effects, so the base weakest preconditions are unchanged and the
    witness pre-state stays admissible; a clause it satisfied that is
    false after the merged writes is necessarily part of the violation
    disjunction of the full check, which therefore also answers
    [Conflict].  Pruning on [Some true] loses no solutions. *)
let witness_refutes ~ctx (spec : Types.t) ((o1, o2) : aop * aop)
    ((p1, p2) : aop * aop) (w : witness) : bool option =
  let invs0 = relevant_invariants spec o1.cur o2.cur in
  let invs' = relevant_invariants spec p1.cur p2.cur in
  let frame_ok =
    invs' = invs0
    && List.sort compare (widen_sorts spec invs' [ p1.cur; p2.cur ])
       = List.sort compare (widen_sorts spec invs0 [ o1.cur; o2.cur ])
  in
  if not frame_ok then None
  else begin
    let dom = w.unif.dom in
    let gcs = ground_clauses ~ctx spec ~dom invs0 in
    let w1 = Effects.ground_writes spec dom p1.cur w.unif.binding1 in
    let w2 = Effects.ground_writes spec dom p2.cur w.unif.binding2 in
    let int_bounds = Types.int_bounds spec in
    (* the same defaults [check_case] used when extracting the witness *)
    let batom a = Option.value ~default:false (List.assoc_opt a w.pre_atoms) in
    let bnum n =
      match List.assoc_opt n w.pre_nums with
      | Some v -> v
      | None -> fst (int_bounds n)
    in
    let violating merged =
      let batom', bnum' = Effects.post_state ~batom ~bnum merged in
      List.exists
        (fun gc -> not (Ground.eval ~batom:batom' ~bnum:bnum' gc))
        gcs
    in
    Some (List.exists violating (Effects.merge_writes spec w1 w2))
  end
