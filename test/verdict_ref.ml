(* Reference verdicts for the analysis's two verdict-only queries, the
   way they were decided before analysis frames: one fresh solver per
   query, with the pre-state clauses, the base writes' weakest
   preconditions and the {e whole} violation target asserted at once.
   No frame, conjunct split, assumption or verdict memo is involved, so
   a differential check against [Detect.solve_obligation] and
   [Detect.sequentially_safe] tests exactly what frames change.

   The oracle reuses the analysis's own frame choice (relevant clauses,
   widened domain) through [Detect.obligations]: that choice is not
   what frames change. *)

open Ipa_logic
open Ipa_solver
open Ipa_spec
open Ipa_core

(* Can [target] hold in a pre-state satisfying every clause of [gcs]
   and the weakest precondition of every write set in [bases]? *)
let satisfiable (spec : Types.t) (gcs : Ground.gformula list)
    ~(bases : Effects.writes list) (target : Ground.gformula) : bool =
  let enc = Encode.create ~int_bounds:(Types.int_bounds spec) () in
  List.iter (Encode.assert_formula enc) gcs;
  List.iter
    (fun w ->
      List.iter
        (fun gc ->
          let t = Effects.apply_writes w gc in
          if t <> gc then Encode.assert_formula enc t)
        gcs)
    bases;
  Encode.assert_formula enc target;
  let r = Encode.solve enc in
  Encode.release enc;
  r = Sat.Sat

let ground_frame (spec : Types.t) ~(dom : Ground.domain)
    (invs : Types.invariant list) : Ground.gformula list =
  List.map
    (fun (i : Types.invariant) ->
      Ground.ground ~sg:(Types.signature spec) ~consts:spec.consts ~dom
        i.iformula)
    invs

(* [true] = some merged outcome of the pair's current writes can
   falsify the obligation's clause *)
let obligation (spec : Types.t) (ob : Detect.oblig) : bool =
  let dom = ob.ob_dom and u = ob.ob_unif in
  let gcs = ground_frame spec ~dom ob.ob_invs in
  let target = List.nth gcs ob.ob_clause in
  let bases =
    [
      Effects.ground_writes spec dom ob.ob_o1.base u.binding1;
      Effects.ground_writes spec dom ob.ob_o2.base u.binding2;
    ]
  in
  let w1 = Effects.ground_writes spec dom ob.ob_o1.cur u.binding1 in
  let w2 = Effects.ground_writes spec dom ob.ob_o2.cur u.binding2 in
  List.exists
    (fun merged ->
      let t = Effects.apply_writes merged target in
      t <> target && satisfiable spec gcs ~bases (Ground.gnot t))
    (Effects.merge_writes spec w1 w2)

let noop = Detect.aop_of (Types.operation "__noop" [] [])

(* executing [o] alone from a state admissible for its base effects
   keeps every relevant clause.  The cases and frames are those of the
   pair ([o], no-op): its obligations come one per (case, clause), so
   each case is taken once, at clause 0. *)
let sequentially_safe (spec : Types.t) (o : Detect.aop) : bool =
  List.for_all
    (fun (ob : Detect.oblig) ->
      ob.ob_clause <> 0
      ||
      let dom = ob.ob_dom and u = ob.ob_unif in
      let gcs = ground_frame spec ~dom ob.ob_invs in
      let w_base = Effects.ground_writes spec dom o.base u.binding1 in
      let w_cur = Effects.ground_writes spec dom o.cur u.binding1 in
      let violation =
        Ground.gor_l
          (List.filter_map
             (fun gc ->
               let t = Effects.apply_writes w_cur gc in
               if t = gc then None else Some (Ground.gnot t))
             gcs)
      in
      not (satisfiable spec gcs ~bases:[ w_base ] violation))
    (Detect.obligations spec o noop)
