(** Tests for [ipa_core]: conflict detection, repair generation,
    compensations, classification and the full Algorithm 1 loop. *)

open Ipa_logic
open Ipa_spec
open Ipa_core

(* A minimal referential-integrity application (Figure 2's essence). *)
let mini_src =
  {|
app Mini
sort P
sort T
predicate p(P)
predicate t(T)
predicate e(P, T)
invariant ref: forall(P:x, T:y) :- e(x,y) => p(x) and t(y)
rule p: add-wins
rule t: add-wins
rule e: add-wins
operation add_p(P:x)
  p(x) := true
operation rem_p(P:x)
  p(x) := false
operation add_t(T:y)
  t(y) := true
operation rem_t(T:y)
  t(y) := false
operation enroll(P:x, T:y)
  e(x, y) := true
operation disenroll(P:x, T:y)
  e(x, y) := false
|}

let mini () = Spec_parser.parse_string mini_src
let op spec name = Detect.aop_of (Option.get (Types.find_op spec name))

(* a fresh analysis context: no cached verdict carries between checks *)
let fresh () = Anactx.create ()

(* ------------------------------------------------------------------ *)
(* Pairctx                                                             *)
(* ------------------------------------------------------------------ *)

let test_partitions () =
  let count n = List.length (Pairctx.partitions (List.init n Fun.id)) in
  Alcotest.(check int) "B(0)=1" 1 (count 0);
  Alcotest.(check int) "B(1)=1" 1 (count 1);
  Alcotest.(check int) "B(2)=2" 2 (count 2);
  Alcotest.(check int) "B(3)=5" 5 (count 3);
  Alcotest.(check int) "B(4)=15" 15 (count 4)

let test_unifications () =
  let spec = mini () in
  let o1 = op spec "add_p" and o2 = op spec "rem_p" in
  let us = Pairctx.unifications spec o1.Detect.cur o2.Detect.cur in
  (* two same-sorted parameters: equal or distinct *)
  Alcotest.(check int) "two cases" 2 (List.length us);
  (* every case binds both parameters *)
  List.iter
    (fun (u : Pairctx.unification) ->
      Alcotest.(check int) "binding1" 1 (List.length u.binding1);
      Alcotest.(check int) "binding2" 1 (List.length u.binding2))
    us

let test_unification_domains () =
  let spec = mini () in
  let o1 = op spec "enroll" and o2 = op spec "rem_t" in
  let us = Pairctx.unifications spec o1.Detect.cur o2.Detect.cur in
  (* P params: 1 (x of enroll); T params: 2 (y, y') -> 2 partitions *)
  Alcotest.(check int) "two cases" 2 (List.length us);
  List.iter
    (fun (u : Pairctx.unification) ->
      (* each sort's domain has the blocks plus one background element *)
      let pdom = List.assoc "P" u.dom and tdom = List.assoc "T" u.dom in
      Alcotest.(check int) "P domain" 2 (List.length pdom);
      Alcotest.(check bool) "T domain 2 or 3" true
        (List.length tdom = 2 || List.length tdom = 3))
    us

(* ------------------------------------------------------------------ *)
(* Effects                                                             *)
(* ------------------------------------------------------------------ *)

let dom : Ground.domain = [ ("P", [ "a"; "b" ]); ("T", [ "u" ]) ]

let test_ground_writes_wildcard () =
  let spec = mini () in
  let o =
    Types.operation "clear" [ { Ast.vname = "y"; vsort = "T" } ]
      [ Types.set_false "e" [ Ast.Star; Ast.Var "y" ] ]
  in
  let w = Effects.ground_writes spec dom o [ ("y", "u") ] in
  Alcotest.(check int) "two ground writes" 2
    (List.length w.Effects.bool_writes);
  Alcotest.(check bool) "both false" true
    (List.for_all (fun (_, v) -> not v) w.Effects.bool_writes)

let test_ground_writes_last_wins () =
  let spec = mini () in
  let o =
    Types.operation "flip" [ { Ast.vname = "x"; vsort = "P" } ]
      [ Types.set_true "p" [ Ast.Var "x" ]; Types.set_false "p" [ Ast.Var "x" ] ]
  in
  let w = Effects.ground_writes spec dom o [ ("x", "a") ] in
  Alcotest.(check int) "one write" 1 (List.length w.Effects.bool_writes);
  Alcotest.(check bool) "last wins" true
    (snd (List.hd w.Effects.bool_writes) = false)

let test_merge_add_wins () =
  let spec = mini () in
  let ga = { Ground.gpred = "p"; gargs = [ "a" ] } in
  let w1 = { Effects.bool_writes = [ (ga, true) ]; num_writes = [] } in
  let w2 = { Effects.bool_writes = [ (ga, false) ]; num_writes = [] } in
  match Effects.merge_writes spec w1 w2 with
  | [ m ] ->
      Alcotest.(check bool) "add-wins resolves true" true
        (Effects.lookup_bool m ga = Some true)
  | ms -> Alcotest.failf "expected 1 outcome, got %d" (List.length ms)

let test_merge_lww_two_outcomes () =
  let spec = { (mini ()) with Types.rules = [] } (* no rules -> LWW *) in
  let ga = { Ground.gpred = "p"; gargs = [ "a" ] } in
  let w1 = { Effects.bool_writes = [ (ga, true) ]; num_writes = [] } in
  let w2 = { Effects.bool_writes = [ (ga, false) ]; num_writes = [] } in
  Alcotest.(check int) "two outcomes" 2
    (List.length (Effects.merge_writes spec w1 w2))

let test_merge_numeric_sums () =
  let spec = mini () in
  let gn = { Ground.gfun = "n"; gnargs = [ "a" ] } in
  let w1 = { Effects.bool_writes = []; num_writes = [ (gn, -1) ] } in
  let w2 = { Effects.bool_writes = []; num_writes = [ (gn, -2) ] } in
  match Effects.merge_writes spec w1 w2 with
  | [ m ] ->
      Alcotest.(check bool) "deltas sum" true
        (Effects.lookup_num m gn = Some (-3))
  | _ -> Alcotest.fail "expected single outcome"

let test_apply_writes_wp () =
  (* wp of e(a,u) := true wrt (e(a,u) => p(a) and t(u)) is p(a) and t(u) *)
  let sg : Ground.signature =
    {
      pred_sorts = [ ("p", [ "P" ]); ("t", [ "T" ]); ("e", [ "P"; "T" ]) ];
      nfun_sorts = [];
    }
  in
  let f =
    Parser.parse_formula "forall(P:x, T:y) :- e(x,y) => p(x) and t(y)"
  in
  let g = Ground.ground ~sg ~consts:[] ~dom:[ ("P", [ "a" ]); ("T", [ "u" ]) ] f in
  let w =
    {
      Effects.bool_writes = [ ({ Ground.gpred = "e"; gargs = [ "a"; "u" ] }, true) ];
      num_writes = [];
    }
  in
  let wp = Effects.apply_writes w g in
  (* must force p(a) and t(u) *)
  let eval pa tu =
    Ground.eval
      ~batom:(fun a ->
        match a.Ground.gpred with "p" -> pa | "t" -> tu | _ -> false)
      ~bnum:(fun _ -> 0)
      wp
  in
  Alcotest.(check bool) "needs both" true (eval true true);
  Alcotest.(check bool) "missing t" false (eval true false);
  Alcotest.(check bool) "missing p" false (eval false true)

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let test_detect_conflict_rem_t_enroll () =
  let spec = mini () in
  match Detect.check_pair ~ctx:(fresh ())
      spec (op spec "rem_t") (op spec "enroll") with
  | Detect.Conflict w ->
      Alcotest.(check (list string)) "violates ref" [ "ref" ] w.Detect.violated
  | Detect.Safe -> Alcotest.fail "expected conflict"

let test_detect_conflict_rem_p_enroll () =
  let spec = mini () in
  match Detect.check_pair ~ctx:(fresh ())
      spec (op spec "rem_p") (op spec "enroll") with
  | Detect.Conflict _ -> ()
  | Detect.Safe -> Alcotest.fail "expected conflict"

let test_detect_safe_pairs () =
  let spec = mini () in
  let safe a b =
    Alcotest.(check bool)
      (Fmt.str "%s/%s safe" a b)
      true
      (Detect.check_pair ~ctx:(fresh ())
          spec (op spec a) (op spec b) = Detect.Safe)
  in
  safe "add_p" "add_t";
  safe "add_p" "rem_p" (* add-wins absorbs the opposing write *);
  safe "enroll" "enroll";
  safe "enroll" "disenroll" (* add-wins on e *);
  safe "disenroll" "rem_t"

let test_detect_witness_shape () =
  let spec = mini () in
  match Detect.check_pair ~ctx:(fresh ())
      spec (op spec "rem_t") (op spec "enroll") with
  | Detect.Safe -> Alcotest.fail "expected conflict"
  | Detect.Conflict w ->
      (* pre-state is admissible: the enrolled player and tournament exist *)
      let find p args = List.assoc { Ground.gpred = p; gargs = args } w.Detect.pre_atoms in
      let t_elem =
        match w.Detect.writes1.Effects.bool_writes with
        | ({ Ground.gpred = "t"; gargs = [ e ] }, false) :: _ -> e
        | _ -> Alcotest.fail "rem_t should write t(y) := false"
      in
      Alcotest.(check bool) "tournament existed" true (find "t" [ t_elem ]);
      (* merged state removes it while keeping the enrollment *)
      Alcotest.(check bool) "merged removes tournament" true
        (Effects.lookup_bool w.Detect.merged
           { Ground.gpred = "t"; gargs = [ t_elem ] }
        = Some false)

let test_detect_rules_matter () =
  (* with rem-wins on e, enroll || disenroll merges to not-enrolled and
     stays safe; with add-wins on t, rem_t loses against a re-add *)
  let spec = mini () in
  let spec_rw =
    { spec with Types.rules = [ ("e", Types.Rem_wins); ("p", Types.Add_wins); ("t", Types.Add_wins) ] }
  in
  Alcotest.(check bool) "enroll/disenroll safe under rem-wins" true
    (Detect.check_pair ~ctx:(fresh ())
        spec_rw (op spec "enroll") (op spec "disenroll")
    = Detect.Safe)

let test_sequentially_safe () =
  let spec = mini () in
  Alcotest.(check bool) "enroll is sequentially safe" true
    (Detect.sequentially_safe ~ctx:(fresh ()) spec (op spec "enroll"));
  (* a modification that removes the player while enrolling breaks
     sequential executions: base precondition admits states the modified
     effects then corrupt *)
  let enroll = op spec "enroll" in
  let bad_cur =
    {
      enroll.Detect.cur with
      Types.oeffects =
        enroll.Detect.cur.oeffects @ [ Types.set_false "p" [ Ast.Var "x" ] ];
    }
  in
  Alcotest.(check bool) "bad modification is not sequentially safe" false
    (Detect.sequentially_safe ~ctx:(fresh ())
        spec { enroll with Detect.cur = bad_cur });
  (* a restoring modification (Figure 2b) is sequentially safe *)
  let good_cur =
    {
      enroll.Detect.cur with
      Types.oeffects =
        enroll.Detect.cur.oeffects
        @ [ Types.set_true ~mode:Types.Touch "t" [ Ast.Var "y" ] ];
    }
  in
  Alcotest.(check bool) "restoring modification is sequentially safe" true
    (Detect.sequentially_safe ~ctx:(fresh ())
        spec { enroll with Detect.cur = good_cur })

let test_detect_numeric_self_conflict () =
  let ticket = Catalog.ticket () in
  let buy = op ticket "buy_ticket" in
  match Detect.check_pair ~ctx:(fresh ()) ticket buy buy with
  | Detect.Conflict w ->
      Alcotest.(check (list string)) "oversell" [ "no_oversell" ]
        w.Detect.violated
  | Detect.Safe -> Alcotest.fail "concurrent buys must conflict"

(* concurrent enrollments overfill a tournament: found only because the
   domain is widened past the capacity bound, so the small model has
   room for more enrolled players than [Capacity] *)
let test_detect_cardinality_self_conflict () =
  let tournament = Catalog.tournament () in
  let enroll = op tournament "enroll" in
  match Detect.check_pair ~ctx:(fresh ()) tournament enroll enroll with
  | Detect.Conflict w ->
      Alcotest.(check (list string)) "over capacity" [ "capacity" ]
        w.Detect.violated
  | Detect.Safe -> Alcotest.fail "concurrent enrollments must conflict"

(* the first conflicting pair in specification order (Algorithm 1's
   [findConflictingPair]) heads the diagnosis *)
let test_find_conflicting_pair () =
  let spec = mini () in
  match Ipa.diagnose ~jobs:1 spec with
  | (n1, n2, _) :: _ ->
      Alcotest.(check bool) "a rem/enroll pair" true
        (List.mem (n1, n2)
           [ ("rem_p", "enroll"); ("rem_t", "enroll"); ("enroll", "rem_p"); ("enroll", "rem_t") ])
  | [] -> Alcotest.fail "expected a conflicting pair"

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let test_repair_figure2b () =
  (* enroll extended with t(y) := true wins over rem_t under add-wins *)
  let spec = mini () in
  let sols = Repair.repair_conflicts ~ctx:(fresh ())
      spec (op spec "rem_t", op spec "enroll") in
  Alcotest.(check bool) "has solutions" true (sols <> []);
  let fig2b =
    List.exists
      (fun (s : Repair.solution) ->
        s.s_op = "enroll"
        && List.exists
             (fun (ae : Types.annotated_effect) ->
               ae.eff.epred = "t" && ae.eff.evalue = Types.Set true
               && ae.mode = Types.Touch)
             s.s_added)
      sols
  in
  Alcotest.(check bool) "Figure 2b solution found" true fig2b

let test_repair_figure2c_needs_rules () =
  (* clearing e( *, y) on rem_t requires rem-wins on e *)
  let spec = mini () in
  let sols =
    Repair.repair_conflicts ~search_rules:true ~ctx:(fresh ()) spec
      (op spec "rem_t", op spec "enroll")
  in
  let fig2c =
    List.exists
      (fun (s : Repair.solution) ->
        s.s_op = "rem_t"
        && List.exists
             (fun (ae : Types.annotated_effect) ->
               ae.eff.epred = "e"
               && List.hd ae.eff.eargs = Ast.Star
               && ae.eff.evalue = Types.Set false)
             s.s_added
        && List.assoc_opt "e" s.s_rules = Some Types.Rem_wins)
      sols
  in
  Alcotest.(check bool) "Figure 2c solution found" true fig2c

let test_repair_solutions_are_safe () =
  let spec = mini () in
  let sols = Repair.repair_conflicts ~ctx:(fresh ())
      spec (op spec "rem_p", op spec "enroll") in
  Alcotest.(check bool) "has solutions" true (sols <> []);
  List.iter
    (fun (s : Repair.solution) ->
      let p1, p2 = s.s_pair in
      let spec' = { spec with Types.rules = s.s_rules } in
      Alcotest.(check bool) "pair safe" true
        (Detect.check_pair ~ctx:(fresh ()) spec' p1 p2 = Detect.Safe);
      Alcotest.(check bool) "seq safe 1" true
        (Detect.sequentially_safe ~ctx:(fresh ()) spec' p1);
      Alcotest.(check bool) "seq safe 2" true
        (Detect.sequentially_safe ~ctx:(fresh ()) spec' p2))
    sols

let test_repair_minimality () =
  let spec = mini () in
  let sols = Repair.repair_conflicts ~ctx:(fresh ())
      spec (op spec "rem_t", op spec "enroll") in
  (* no solution strictly contains another solution on the same target *)
  List.iter
    (fun (s : Repair.solution) ->
      List.iter
        (fun (s' : Repair.solution) ->
          if s != s' && s.Repair.s_target = s'.Repair.s_target then
            Alcotest.(check bool) "not a strict superset" false
              (List.length s.s_added > List.length s'.s_added
              && List.for_all (fun e -> List.mem e s.s_added) s'.s_added))
        sols)
    sols

let test_repair_none_for_numeric () =
  (* numeric conflicts admit no boolean-effect repair *)
  let ticket = Catalog.ticket () in
  let buy = op ticket "buy_ticket" in
  let sols = Repair.repair_conflicts ~ctx:(fresh ()) ticket (buy, buy) in
  Alcotest.(check int) "no boolean repair" 0 (List.length sols)

let test_pick_policies () =
  let spec = mini () in
  let sols = Repair.repair_conflicts ~ctx:(fresh ())
      spec (op spec "rem_t", op spec "enroll") in
  (match Repair.pick Repair.Fewest_effects sols with
  | Some s ->
      Alcotest.(check int) "single extra effect" 1 (List.length s.s_added)
  | None -> Alcotest.fail "expected a pick");
  (match Repair.pick (Repair.Prefer_op "enroll") sols with
  | Some s -> Alcotest.(check string) "prefers enroll" "enroll" s.s_op
  | None -> Alcotest.fail "expected a pick");
  Alcotest.(check bool) "empty pick" true (Repair.pick Repair.Fewest_effects [] = None)

(* a disjunction invariant (Table 1's last row): a task must be
   assigned or archived; IPA keeps the disjunction true *)
let disj_src =
  {|
app Tasks
sort Task
sort User
predicate task(Task)
predicate assigned(Task, User)
predicate archived(Task)
invariant disj: forall(Task:k) :- task(k) => (#assigned(k, *) >= 1 or archived(k))
rule task: add-wins
rule assigned: add-wins
rule archived: add-wins
operation create(Task:k, User:u)
  task(k) := true
  assigned(k, u) := true
operation unassign(Task:k, User:u)
  assigned(k, u) := false
operation archive(Task:k)
  archived(k) := true
|}

let test_repair_disjunction () =
  let spec = Spec_parser.parse_string disj_src in
  (* unassigning the last assignee of a live task concurrently with ...
     actually even sequentially-unsafe alone; the conflicting pair is
     create || unassign: the unassign clears the assignment the create
     relies on *)
  let conflicts = Ipa.diagnose spec in
  Alcotest.(check bool) "disjunction conflict found" true (conflicts <> []);
  let r = Ipa.run ~search_rules:true spec in
  (* every conflict is repaired or compensated, none flagged *)
  Alcotest.(check (list (pair string string))) "no flagged pairs" []
    (Ipa.flagged_pairs r);
  Alcotest.(check int) "patched spec clean" 0
    (List.length (Ipa.diagnose (Ipa.patched_spec r)))

(* the quickstart's photo album: photos must belong to a live album *)
let album_src =
  {|
app Album
sort Album
sort Photo
predicate album(Album)
predicate photo(Photo)
predicate inAlbum(Photo, Album)
invariant photo_ref: forall(Photo:p, Album:a) :-
    inAlbum(p, a) => photo(p) and album(a)
rule album: add-wins
rule photo: add-wins
rule inAlbum: add-wins
operation delete_album(Album:a)
  album(a) := false
operation upload(Photo:p, Album:a)
  photo(p) := true
  inAlbum(p, a) := true
|}

(* the intent filter rejects a degenerate repair the search does
   generate: upload gaining [inAlbum(p, * ) := false] masks its own
   [inAlbum(p, a) := true], which makes the pair safe by never putting
   the photo in the album *)
let test_repair_intent_rejects_masking () =
  let spec = Spec_parser.parse_string album_src in
  let delete_album = op spec "delete_album" and upload = op spec "upload" in
  let extend e =
    let cur = upload.Detect.cur in
    { upload with Detect.cur = { cur with oeffects = cur.oeffects @ [ e ] } }
  in
  let mask = Types.set_false "inAlbum" [ Ast.Var "p"; Ast.Star ] in
  let ctx = Anactx.create () in
  Alcotest.(check bool) "masking candidate resolves the conflict" true
    (Detect.check_pair ~ctx spec delete_album (extend mask) = Detect.Safe);
  Alcotest.(check bool) "masking candidate rejected" false
    (Repair.preserves_intent spec (extend mask));
  Alcotest.(check bool) "restoring candidate kept" true
    (Repair.preserves_intent spec
       (extend (Types.set_true ~mode:Types.Touch "album" [ Ast.Var "a" ])));
  let sols = Repair.repair_conflicts ~ctx spec (delete_album, upload) in
  Alcotest.(check bool) "repair found" true (sols <> []);
  Alcotest.(check bool) "no solution masks upload" false
    (List.exists (fun (s : Repair.solution) -> List.mem mask s.s_added) sols)

(* ------------------------------------------------------------------ *)
(* Compensation                                                        *)
(* ------------------------------------------------------------------ *)

let test_compensation_restock () =
  let ticket = Catalog.ticket () in
  let comps = Compensation.synthesize ticket [ "no_oversell" ] in
  match comps with
  | [ c ] ->
      Alcotest.(check string) "for no_oversell" "no_oversell" c.comp_invariant;
      Alcotest.(check (list string)) "triggered by buys" [ "buy_ticket" ]
        c.comp_triggers;
      (match c.comp_kind with
      | Compensation.Restock { nfun; delta } ->
          Alcotest.(check string) "function" "available" nfun;
          Alcotest.(check int) "positive repair" 1 delta
      | _ -> Alcotest.fail "expected Restock")
  | _ -> Alcotest.failf "expected one compensation, got %d" (List.length comps)

let test_compensation_remove_excess () =
  let tournament = Catalog.tournament () in
  let comps = Compensation.synthesize tournament [ "capacity" ] in
  match comps with
  | [ c ] -> (
      Alcotest.(check (list string)) "triggered by enroll" [ "enroll" ]
        c.comp_triggers;
      match c.comp_kind with
      | Compensation.Remove_excess { pred; _ } ->
          Alcotest.(check string) "over enrolled" "enrolled" pred
      | _ -> Alcotest.fail "expected Remove_excess")
  | _ -> Alcotest.fail "expected one compensation"

let test_compensation_covers () =
  let ticket = Catalog.ticket () in
  let comps = Compensation.synthesize ticket [ "no_oversell" ] in
  Alcotest.(check bool) "covers oversell" true
    (Compensation.covers comps [ "no_oversell" ]);
  Alcotest.(check bool) "does not cover others" false
    (Compensation.covers comps [ "no_oversell"; "ghost" ])

let test_compensation_not_for_boolean () =
  let spec = mini () in
  Alcotest.(check int) "no compensation for ref integrity" 0
    (List.length (Compensation.synthesize spec [ "ref" ]))

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let has cls spec = List.mem cls (Classify.app_classes spec)

let test_classify_tournament () =
  let s = Catalog.tournament () in
  Alcotest.(check bool) "ref integrity" true (has Classify.Referential_integrity s);
  Alcotest.(check bool) "aggregation constraint" true
    (has Classify.Aggregation_constraint s);
  Alcotest.(check bool) "aggregation inclusion" true
    (has Classify.Aggregation_inclusion s);
  Alcotest.(check bool) "disjunction" true (has Classify.Disjunction s);
  Alcotest.(check bool) "unique ids (entity keys)" true (has Classify.Unique_id s);
  Alcotest.(check bool) "no sequential ids" false (has Classify.Sequential_id s)

let test_classify_ticket () =
  let s = Catalog.ticket () in
  Alcotest.(check bool) "numeric" true (has Classify.Numeric_inv s);
  Alcotest.(check bool) "no ref integrity" false
    (has Classify.Referential_integrity s)

let test_classify_tpcw () =
  let s = Catalog.tpcw () in
  Alcotest.(check bool) "sequential" true (has Classify.Sequential_id s);
  Alcotest.(check bool) "unique" true (has Classify.Unique_id s);
  Alcotest.(check bool) "numeric" true (has Classify.Numeric_inv s);
  Alcotest.(check bool) "ref integrity" true
    (has Classify.Referential_integrity s)

let test_classify_twitter () =
  let s = Catalog.twitter () in
  Alcotest.(check bool) "ref integrity" true (has Classify.Referential_integrity s);
  Alcotest.(check bool) "no numeric" false (has Classify.Numeric_inv s);
  Alcotest.(check bool) "no disjunction" false (has Classify.Disjunction s)

let test_classify_support_table () =
  Alcotest.(check bool) "sequential unsupported" true
    (Classify.ipa_support Classify.Sequential_id = Classify.Unsupported);
  Alcotest.(check bool) "numeric via compensation" true
    (Classify.ipa_support Classify.Numeric_inv = Classify.Via_compensation);
  Alcotest.(check bool) "ref integrity direct" true
    (Classify.ipa_support Classify.Referential_integrity = Classify.Direct);
  Alcotest.(check bool) "unique is I-confluent" true
    (Classify.i_confluent Classify.Unique_id);
  Alcotest.(check bool) "ref integrity is not I-confluent" false
    (Classify.i_confluent Classify.Referential_integrity)

(* ------------------------------------------------------------------ *)
(* Full loop (Algorithm 1)                                             *)
(* ------------------------------------------------------------------ *)

let test_ipa_run_mini () =
  let spec = mini () in
  let r = Ipa.run spec in
  Alcotest.(check (list (pair string string))) "nothing flagged" []
    (Ipa.flagged_pairs r);
  (* enroll must have been reinforced with p and t restores *)
  let enroll =
    List.find
      (fun (o : Detect.aop) -> o.Detect.cur.oname = "enroll")
      r.Ipa.final_ops
  in
  let added_preds =
    List.filter_map
      (fun (ae : Types.annotated_effect) ->
        if List.mem ae enroll.Detect.base.oeffects then None
        else Some ae.eff.epred)
      enroll.Detect.cur.oeffects
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string)) "restores p and t" [ "p"; "t" ] added_preds;
  (* the patched spec has no remaining conflicts *)
  let patched = Ipa.patched_spec r in
  Alcotest.(check int) "patched spec is conflict-free" 0
    (List.length (Ipa.diagnose patched))

let test_ipa_run_ticket () =
  let r = Ipa.run (Catalog.ticket ()) in
  let comps = Ipa.compensations r in
  Alcotest.(check bool) "ticket uses compensations" true (comps <> []);
  Alcotest.(check bool) "restock compensation present" true
    (List.exists
       (fun (c : Compensation.t) ->
         match c.comp_kind with
         | Compensation.Restock { nfun = "available"; _ } -> true
         | _ -> false)
       comps);
  Alcotest.(check (list (pair string string))) "nothing flagged" []
    (Ipa.flagged_pairs r)

let test_ipa_run_terminates () =
  let spec = mini () in
  let r = Ipa.run ~max_iterations:3 spec in
  Alcotest.(check bool) "bounded iterations" true (r.Ipa.iterations <= 3)

(* the full Tournament analysis reproduces Figure 3 (slow: ~30s) *)
let test_ipa_run_tournament_figure3 () =
  let spec = Catalog.tournament () in
  let r = Ipa.run spec in
  let added_of name =
    let o =
      List.find (fun (o : Detect.aop) -> o.Detect.cur.oname = name) r.Ipa.final_ops
    in
    List.filter_map
      (fun (ae : Types.annotated_effect) ->
        if List.mem ae o.Detect.base.oeffects then None
        else Some (ae.eff.epred, ae.eff.evalue))
      o.Detect.cur.oeffects
    |> List.sort_uniq compare
  in
  (* ensureEnroll: restore player and tournament *)
  Alcotest.(check bool) "enroll restores tournament" true
    (List.mem ("tournament", Types.Set true) (added_of "enroll"));
  Alcotest.(check bool) "enroll restores player" true
    (List.mem ("player", Types.Set true) (added_of "enroll"));
  (* ensureBegin: restore tournament *)
  Alcotest.(check bool) "begin restores tournament" true
    (List.mem ("tournament", Types.Set true) (added_of "begin_tourn"));
  (* ensureDoMatch: restore both enrollments *)
  Alcotest.(check bool) "do_match restores enrollment" true
    (List.mem ("enrolled", Types.Set true) (added_of "do_match"));
  (* capacity handled by compensation *)
  Alcotest.(check bool) "capacity compensated" true
    (List.exists
       (fun (c : Compensation.t) -> c.comp_invariant = "capacity")
       (Ipa.compensations r))

(* ------------------------------------------------------------------ *)
(* Analysis context: caches, witness pruning, stats, invalidation      *)
(* ------------------------------------------------------------------ *)

(* A spec where a later repair changes the verdict of an earlier
   flagged pair.  (opx, opy) conflicts on [excl] but has no 1-effect
   repair while [w] is unreachable for opy: adding s(t):=true is
   sequentially unsafe through [sreq].  The later (opy, opz) conflict
   on [qreq] is repaired by adding w(t):=true to opy — after which the
   old (opx, opy) verdict is stale: s(t):=true became admissible.  A
   loop that never re-checks ignored pairs keeps the bogus flag. *)
let stale_src =
  {|
app Stale
sort E
predicate p(E)
predicate q(E)
predicate s(E)
predicate u(E)
predicate w(E)
invariant excl: forall(E:t) :- p(t) and q(t) => s(t)
invariant sreq: forall(E:t) :- s(t) => w(t)
invariant qreq: forall(E:t) :- q(t) and u(t) => w(t)
rule p: add-wins
rule q: add-wins
rule s: add-wins
rule u: add-wins
rule w: add-wins
operation opx(E:t)
  p(t) := true
operation opy(E:t)
  q(t) := true
operation opz(E:t)
  u(t) := true
|}

let test_ipa_ignored_invalidation () =
  let spec = Spec_parser.parse_string stale_src in
  let r = Ipa.run ~max_size:1 spec in
  (* the second repair (opy += w) must invalidate the stale flag on
     (opx, opy): the pair is then repairable (opy += s) *)
  Alcotest.(check (list (pair string string))) "no stale flagged pair" []
    (Ipa.flagged_pairs r);
  let opy =
    List.find
      (fun (o : Detect.aop) -> o.Detect.cur.oname = "opy")
      r.Ipa.final_ops
  in
  let added =
    List.filter_map
      (fun (ae : Types.annotated_effect) ->
        if List.mem ae opy.Detect.base.oeffects then None
        else Some ae.eff.epred)
      opy.Detect.cur.oeffects
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string)) "opy repaired with s and w" [ "s"; "w" ]
    added;
  Alcotest.(check int) "patched spec is conflict-free" 0
    (List.length (Ipa.diagnose (Ipa.patched_spec r)))

(* run summary used by the equivalence tests: everything the analysis
   decides, ignoring instrumentation *)
let run_summary (r : Ipa.report) =
  ( List.map
      (fun (res : Ipa.resolution) ->
        ( res.Ipa.r_op1,
          res.Ipa.r_op2,
          match res.Ipa.r_outcome with
          | Ipa.Repaired s -> "repaired:" ^ s.Repair.s_op
          | Ipa.Compensated _ -> "compensated"
          | Ipa.Flagged -> "flagged" ))
      r.Ipa.resolutions,
    Ipa.flagged_pairs r,
    Ipa.patched_spec r )

let check_cache_equivalence spec =
  let on = Anactx.create () in
  let off = Anactx.create ~cache:false () in
  let r_on = Ipa.run ~ctx:on spec and r_off = Ipa.run ~ctx:off spec in
  Alcotest.(check bool)
    (spec.Types.app_name ^ ": identical outcome with caching/pruning off")
    true
    (run_summary r_on = run_summary r_off);
  (* pruning may only ever save solver work, never add it *)
  Alcotest.(check bool) "no extra SAT calls" true
    ((Anactx.stats on).Anactx.sat_calls
    <= (Anactx.stats off).Anactx.sat_calls)

let test_cache_equivalence_quick () =
  List.iter check_cache_equivalence
    [ Catalog.ticket (); Catalog.twitter (); Catalog.tpcw (); mini () ]

let test_cache_equivalence_tournament () =
  check_cache_equivalence (Catalog.tournament ())

(* [~jobs:1] pins the sequential scan whose counters the assertions
   describe: a parallel scan speculatively solves obligations past the
   first conflict, so its cold counters vary with the worker count (a
   warm re-run solves nothing at any level; [test_par] checks jobs=2) *)
let test_stats_counters () =
  let ctx = Anactx.create () in
  let r = Ipa.run ~jobs:1 ~ctx (Catalog.twitter ()) in
  let s = r.Ipa.stats in
  Alcotest.(check bool) "sat calls nonzero" true (s.Anactx.sat_calls > 0);
  Alcotest.(check bool) "decisions nonzero" true (s.Anactx.sat_decisions > 0);
  Alcotest.(check bool) "propagations nonzero" true
    (s.Anactx.sat_propagations > 0);
  Alcotest.(check bool) "pairs checked nonzero" true
    (s.Anactx.pairs_checked > 0);
  Alcotest.(check bool) "grounding cache used" true (s.Anactx.ground_hits > 0);
  Alcotest.(check bool) "wall time recorded" true (s.Anactx.total_seconds > 0.);
  Alcotest.(check bool) "candidates generated" true
    (s.Anactx.cands_generated > 0);
  Alcotest.(check bool) "witness pruning fired" true
    (s.Anactx.cands_pruned > 0);
  let snap = (s.Anactx.sat_calls, s.Anactx.pairs_checked) in
  (* a second run on the same ctx accumulates lookup counters but is
     answered entirely from the obligation/case caches: zero new
     solves *)
  let _ = Ipa.run ~jobs:1 ~ctx (Catalog.twitter ()) in
  Alcotest.(check int) "warm re-run adds no solver calls" (fst snap)
    s.Anactx.sat_calls;
  Alcotest.(check bool) "pair checks accumulate monotonically" true
    (s.Anactx.pairs_checked > snd snap);
  Alcotest.(check bool) "warm re-run hits the obligation cache" true
    (s.Anactx.oblig_hits > 0);
  let printed = Fmt.str "%a" Report.pp_stats r in
  Alcotest.(check bool) "stats render" true
    (Astring.String.is_infix ~affix:"SAT solves" printed)

(* The solver's search, pinned: a cold [Ipa.run ~jobs:1] makes exactly
   these SAT conflicts/decisions/propagations.  Every SAT model becomes a
   report witness, so a change to the solver's search moves reports; a
   change that alters the search on purpose updates these pins.  The
   pins count witness queries (fresh solvers, the reference search) and
   the verdict-only conjunct queries on analysis frames (one assumption
   each, learnt clauses kept per frame), encoding work included. *)
let test_search_pinned () =
  List.iter
    (fun (name, spec, expect) ->
      let ctx = fresh () in
      let s = (Ipa.run ~jobs:1 ~ctx (spec ())).Ipa.stats in
      Alcotest.(check (list int))
        (name ^ " conflicts/decisions/propagations")
        expect
        [ s.Anactx.sat_conflicts; s.Anactx.sat_decisions; s.Anactx.sat_propagations ])
    [
      ("ticket", Catalog.ticket, [ 123; 156; 10_939 ]);
      ("twitter", Catalog.twitter, [ 140; 42; 11_982 ]);
      ("tpcw", Catalog.tpcw, [ 66; 60; 3_779 ]);
    ]

(* The memo tables' hash must tell their keys apart: [Hashtbl.hash]
   files the obligation keys of a cold tournament run under a few
   hundred hashes and its frame keys under about ten.  The keys here are
   those of every pair and every sequential-safety check (the pair with
   the no-op) over tournament's original and repaired operations; at
   most 1% of them may share a hash with another. *)
let test_keys_hash_apart () =
  let spec = Catalog.tournament () in
  let r = Ipa.run ~jobs:1 ~ctx:(fresh ()) spec in
  let ops = List.map Detect.aop_of spec.Types.operations @ r.Ipa.final_ops in
  let noop = Detect.aop_of (Types.operation "__noop" [] []) in
  let keys =
    List.concat_map
      (fun o1 ->
        List.concat_map
          (fun o2 ->
            List.map
              (fun (ob : Detect.oblig) -> ob.Detect.ob_key)
              (Detect.obligations spec o1 o2))
          (noop :: ops))
      ops
    |> List.sort_uniq compare
  in
  let check what keys =
    let keys = List.sort_uniq compare keys in
    let n = List.length keys in
    let hashes = List.sort_uniq compare (List.map Anactx.hash keys) in
    let shared = n - List.length hashes in
    Alcotest.(check bool)
      (Fmt.str "%s: %d keys, %d share a hash" what n shared)
      true
      (n > 100 && shared * 100 <= n)
  in
  check "obligation keys" keys;
  check "frame keys" (List.map Oblig.frame_of keys)

let test_rule_choices_dedupe () =
  let spec = mini () in
  (* one opposing predicate: the spec's rules (e: add-wins among them)
     coincide with the enumerated add-wins assignment — it must not be
     proposed twice *)
  let choices = Repair.rule_choices ~search_rules:true spec [ "e" ] in
  let canon = List.map Types.canonical_rules choices in
  Alcotest.(check int) "no duplicate assignments"
    (List.length canon)
    (List.length (List.sort_uniq compare canon));
  (* spec's own rules always come first *)
  Alcotest.(check bool) "spec rules first" true
    (Types.canonical_rules (List.hd choices)
    = Types.canonical_rules spec.Types.rules);
  (* two opposing predicates: 4 assignments, one equal to the spec's *)
  Alcotest.(check int) "two preds: 4 distinct choices" 4
    (List.length (Repair.rule_choices ~search_rules:true spec [ "e"; "p" ]));
  (* without search the spec's rules are the only choice *)
  Alcotest.(check int) "no search: 1 choice" 1
    (List.length (Repair.rule_choices ~search_rules:false spec [ "e" ]))

(* equal canonical forms are set-style equality of rule lists *)
let test_canonical_rules () =
  let aw = Types.Add_wins and rw = Types.Rem_wins in
  let same a b = Types.canonical_rules a = Types.canonical_rules b in
  Alcotest.(check bool) "order-insensitive" true
    (same [ ("a", aw); ("b", rw) ] [ ("b", rw); ("a", aw) ]);
  Alcotest.(check bool) "different assignment" false
    (same [ ("a", aw) ] [ ("a", rw) ]);
  (* first binding wins, as in [Types.conv_rule_of] *)
  Alcotest.(check bool) "duplicate pred uses first binding" false
    (same [ ("a", aw); ("a", rw) ] [ ("a", rw); ("a", aw) ]);
  Alcotest.(check bool) "redundant duplicate is harmless" true
    (same [ ("a", aw); ("a", rw) ] [ ("a", aw) ])

(* ------------------------------------------------------------------ *)
(* Incremental analysis: per-clause obligations, serve protocol        *)
(* ------------------------------------------------------------------ *)

(* the reference pair check: one whole-invariant query per unification
   case, in case order, with no obligation cache in between *)
let whole_case_check_pair (spec : Types.t) (o1 : Detect.aop) (o2 : Detect.aop)
    : Detect.verdict =
  match
    List.find_map
      (Detect.check_case ~ctx:(fresh ()) spec o1 o2)
      (Pairctx.unifications spec o1.Detect.cur o2.Detect.cur)
  with
  | Some w -> Detect.Conflict w
  | None -> Detect.Safe

(* per-clause decomposition is exact: for every operation pair of
   [spec], [check_pair] (assembled from per-clause obligations) returns
   the verdict, witness included, of the whole-case reference *)
let check_decomposed_pairs (spec : Types.t) =
  let ctx = Anactx.create () in
  let ops = List.map Detect.aop_of spec.Types.operations in
  let rec pairs = function
    | [] -> []
    | o :: rest -> List.map (fun o' -> (o, o')) (o :: rest) @ pairs rest
  in
  let differing =
    List.filter_map
      (fun ((o1 : Detect.aop), (o2 : Detect.aop)) ->
        if Detect.check_pair ~ctx spec o1 o2 = whole_case_check_pair spec o1 o2
        then None
        else Some (o1.Detect.cur.oname ^ "," ^ o2.Detect.cur.oname))
      (pairs ops)
  in
  Alcotest.(check (list string))
    (spec.Types.app_name ^ ": decomposed pair verdicts = whole-invariant")
    [] differing

(* the pair-level oracle on the small catalog apps and a few of their
   mutants; and at report level, an explicit context reports what the
   default one does *)
let test_decompose_equivalence () =
  let rng = Ipa_sim.Rng.create 7 in
  let small =
    [ Catalog.ticket (); Catalog.twitter (); Catalog.tpcw (); Catalog.tpcc () ]
  in
  List.iter check_decomposed_pairs
    (small
    @ List.map (fun spec -> Ipa_check.Specmut.mutations rng spec 2) small);
  List.iter
    (fun spec ->
      let r_on = Ipa.run ~ctx:(Anactx.create ()) spec in
      let r_none = Ipa.run spec in
      Alcotest.(check string)
        (spec.Types.app_name ^ ": explicit-context report = default")
        (Report.report_to_string r_none)
        (Report.report_to_string r_on))
    [ Catalog.ticket (); Catalog.twitter (); mini () ]

let test_decompose_equivalence_tournament () =
  check_decomposed_pairs (Catalog.tournament ())

(* ------------------------------------------------------------------ *)
(* Verdict oracle: frame queries against whole-target fresh solves      *)
(* ------------------------------------------------------------------ *)

(* Decide every obligation of every pair of [ops], and the sequential
   safety of every op, on [ctx] and by the oracle ([Verdict_ref]);
   return (disagreements, queries, violable verdicts). *)
let oracle_check ~ctx (spec : Types.t) (ops : Detect.aop list) =
  let rec pairs = function
    | [] -> []
    | o :: rest -> List.map (fun o' -> (o, o')) (o :: rest) @ pairs rest
  in
  let obls =
    List.concat_map (fun (a, b) -> Detect.obligations spec a b) (pairs ops)
  in
  let name (o : Detect.aop) = o.Detect.cur.oname in
  let bad = ref [] and violable = ref 0 in
  List.iter
    (fun (ob : Detect.oblig) ->
      let v = Detect.solve_obligation ~ctx spec ob in
      if v then incr violable;
      if v <> Verdict_ref.obligation spec ob then
        bad :=
          Fmt.str "%s/%s clause %d" (name ob.Detect.ob_o1) (name ob.Detect.ob_o2)
            ob.Detect.ob_clause
          :: !bad)
    obls;
  List.iter
    (fun o ->
      let v = Detect.sequentially_safe ~ctx spec o in
      if not v then incr violable;
      if v <> Verdict_ref.sequentially_safe spec o then
        bad := ("sequential " ^ name o) :: !bad)
    ops;
  (List.rev !bad, List.length obls + List.length ops, !violable)

(* One context sees the run that analysed [spec] and then three
   operation sets: the repaired operations (current effects extend the
   base ones), the original operations and the patched operations
   (base = current).  The repaired and patched sets share current
   effects but not base effects, so a frame keyed by anything but the
   base effects answers one of them from the wrong frame. *)
let check_against_oracle (spec : Types.t) =
  let ctx = Anactx.create () in
  let r = Ipa.run ~jobs:1 ~ctx spec in
  let patched = Ipa.patched_spec r in
  let sets =
    [
      (spec, r.Ipa.final_ops);
      (spec, List.map Detect.aop_of spec.Types.operations);
      (patched, List.map Detect.aop_of patched.Types.operations);
    ]
  in
  List.fold_left
    (fun (bad, n, v) (sp, ops) ->
      let b, n', v' = oracle_check ~ctx sp ops in
      (bad @ b, n + n', v + v'))
    ([], 0, 0) sets

let assert_oracle name (bad, n, violable) =
  Alcotest.(check (list string)) (name ^ ": verdicts = oracle") [] bad;
  Alcotest.(check bool)
    (Fmt.str "%s: %d queries, %d violable — both verdicts occur" name n
       violable)
    true
    (violable > 0 && violable < n)

let test_oracle_catalog () =
  List.iter
    (fun spec ->
      assert_oracle spec.Types.app_name (check_against_oracle spec))
    [ Catalog.ticket (); Catalog.twitter (); Catalog.tpcw () ]

let test_oracle_tournament () =
  assert_oracle "tournament" (check_against_oracle (Catalog.tournament ()))

(* Queries the catalog cannot tell apart from a wrong frame.  In
   [first] and [second] one touched instance of [imp] can be false and
   the other cannot, in both instance orders, so a query that skips a
   touched conjunct misses a violation.  [partial] has [first]'s current
   effects but a base without [q(a) := false]: it is not sequentially
   safe, while [first] (base = current) is, so a frame keyed by current
   rather than base effects answers one of them from the other's
   frame. *)
let order_src =
  {|
app Order
sort X
predicate p(X)
predicate q(X)
invariant imp: forall(X:x) :- p(x) => q(x)
rule p: add-wins
rule q: add-wins
operation first(X:a, X:b)
  q(a) := false
  p(b) := true
  q(b) := true
operation second(X:a, X:b)
  p(a) := true
  q(a) := true
  q(b) := false
operation add_p(X:x)
  p(x) := true
|}

let test_oracle_crafted () =
  let spec = Spec_parser.parse_string order_src in
  let first = op spec "first" in
  let partial =
    {
      first with
      Detect.base =
        {
          first.Detect.base with
          oeffects = List.tl first.Detect.base.oeffects;
        };
    }
  in
  let ops = [ partial; first; op spec "second"; op spec "add_p" ] in
  Alcotest.(check bool) "partial is not sequentially safe" false
    (Verdict_ref.sequentially_safe spec partial);
  let bad, n, violable = oracle_check ~ctx:(Anactx.create ()) spec ops in
  assert_oracle "order" (bad, n, violable);
  (* the other query order on a fresh context *)
  let bad, n, violable =
    oracle_check ~ctx:(Anactx.create ()) spec (List.rev ops)
  in
  assert_oracle "order (reversed)" (bad, n, violable)

(* a seeded Specmut campaign: 8 mutants (3 mutations each) of each small
   catalog spec, every one analysed and then checked on the run's
   context *)
let test_oracle_specmut () =
  let rng = Ipa_sim.Rng.create 11 in
  let bad, n, violable =
    List.fold_left
      (fun (bad, n, v) spec ->
        List.fold_left
          (fun (bad, n, v) _ ->
            let b, n', v' =
              check_against_oracle (Ipa_check.Specmut.mutations rng spec 3)
            in
            (bad @ b, n + n', v + v'))
          (bad, n, v) (List.init 8 Fun.id))
      ([], 0, 0)
      [ Catalog.ticket (); Catalog.twitter (); Catalog.tpcw () ]
  in
  assert_oracle "specmut campaign" (bad, n, violable)

(* an edit to one operation leaves unrelated obligations' cached
   verdicts untouched: re-checking a pair the edit did not reach adds
   zero obligation misses (and zero solver calls), while the edited
   pair's keys do miss *)
let test_incremental_invalidation () =
  let base = mini () in
  (* enroll gains a second effect: the signature is unchanged, so a
     server would keep the context; only keys reaching enroll change *)
  let edited =
    Spec_parser.parse_string
      (Astring.String.cuts ~sep:"e(x, y) := true" mini_src
      |> String.concat "e(x, y) := true\n  p(x) := true")
  in
  let ctx = Anactx.create () in
  let warm spec (n1, n2) =
    ignore (Detect.check_pair ~ctx spec (op spec n1) (op spec n2))
  in
  warm base ("add_p", "rem_p");
  warm base ("rem_t", "enroll");
  let s = Anactx.stats ctx in
  let snap () = (s.Anactx.oblig_misses, s.Anactx.sat_calls) in
  let before = snap () in
  warm edited ("add_p", "rem_p");
  Alcotest.(check bool)
    "unrelated pair: all obligations answered from cache" true
    (snap () = before);
  let before = snap () in
  warm edited ("rem_t", "enroll");
  Alcotest.(check bool) "edited pair: obligations re-solved" true
    (fst (snap ()) > fst before)

(* warm incremental re-analysis after random specification edits is
   bit-identical to analysing the edited spec from scratch *)
let prop_incremental_equivalence =
  QCheck.Test.make ~name:"incremental re-analysis = from-scratch" ~count:4
    QCheck.small_nat (fun seed ->
      let rng = Ipa_sim.Rng.create (100 + seed) in
      let ctx = Anactx.create () in
      ignore (Ipa.run ~ctx (Catalog.twitter ()));
      List.for_all
        (fun (spec, _what) ->
          let warm = Report.report_to_string (Ipa.run ~ctx spec) in
          let cold = Report.report_to_string (Ipa.run spec) in
          warm = cold)
        (Ipa_check.Specmut.edit_stream rng (Catalog.twitter ()) 3))

(* A warm re-run of an unedited spec is answered by the step memo
   alone: every pair verdict and every repair search hits, no SAT call
   is made and the report is bit-identical, at jobs 1 and 2 (the
   parallel scan looks the memo up before it enumerates a pair's
   obligations). *)
let test_warm_no_edit () =
  let spec =
    Ipa_check.Specmut.grow (Ipa_sim.Rng.create 0) (Catalog.twitter ()) 12
  in
  List.iter
    (fun jobs ->
      let ctx = Anactx.create () in
      let cold = Report.report_to_string (Ipa.run ~jobs ~ctx spec) in
      let s0 = Anactx.snapshot (Anactx.stats ctx) in
      let warm = Report.report_to_string (Ipa.run ~jobs ~ctx spec) in
      let d = Anactx.diff (Anactx.stats ctx) s0 in
      let what = Fmt.str "jobs=%d: " jobs in
      Alcotest.(check string) (what ^ "bit-identical report") cold warm;
      Alcotest.(check (list int))
        (what ^ "SAT calls, pair-memo and repair-memo misses")
        [ 0; 0; 0 ]
        [ d.Anactx.sat_calls; d.pair_misses; d.repair_misses ];
      Alcotest.(check bool) (what ^ "every step hit") true
        (d.pair_hits > 100 && d.repair_hits > 0
        && d.pairs_checked = d.pair_hits
        && Anactx.reuse_rate d = 1.0))
    [ 1; 2 ]

(* A long edit session on one context: 100 cumulative edits of Twitter
   grown to 27 operations store more step-memo entries than the bound
   holds, so the memo turns over (its entry count falls) and never
   holds more than [Anactx.step_max]; warm reports still equal cold
   ones (checked every 20th edit, the last included). *)
let test_step_memo_bound () =
  let rng = Ipa_sim.Rng.create 0 in
  let spec = Ipa_check.Specmut.grow rng (Catalog.twitter ()) 20 in
  let ctx = Anactx.create () in
  ignore (Ipa.run ~jobs:1 ~ctx spec);
  let prev = ref 0 and turnovers = ref 0 in
  List.iteri
    (fun i (espec, name) ->
      let warm = Report.report_to_string (Ipa.run ~jobs:1 ~ctx espec) in
      if i mod 20 = 19 then
        Alcotest.(check string)
          (Fmt.str "edit %d (%s): warm = cold" i name)
          (Report.report_to_string (Ipa.run ~jobs:1 espec))
          warm;
      let n = Anactx.step_entries ctx in
      if n < !prev then incr turnovers;
      prev := n;
      if n > Anactx.step_max then
        Alcotest.failf "edit %d: %d step-memo entries, bound %d" i n
          Anactx.step_max)
    (Ipa_check.Specmut.edit_stream rng spec 100);
  Alcotest.(check bool) "the memo turned over" true (!turnovers > 0)

(* The step memo's key holds every input a pair verdict or a repair
   search reads.  Each session runs one context through specs (or
   search settings) that differ in one input only — the convergence
   rules, an invariant, the base effects (a spec then its patched
   spec, whose operations keep their current effects), the repair
   search's [max_size] — and each warm report must equal a cold one.
   The sessions' cold reports differ, so a key that drops the input
   answers a later run from an earlier one's entries. *)
let test_step_memo_keys () =
  let mini_with ~old ~by = Spec_parser.parse_string
      (String.concat by (Astring.String.cuts ~sep:old mini_src)) in
  let rem_wins = mini_with ~old:"rule e: add-wins" ~by:"rule e: rem-wins" in
  let no_t =
    mini_with ~old:"e(x,y) => p(x) and t(y)" ~by:"e(x,y) => p(x)"
  in
  let tpcw = Catalog.tpcw () in
  let patched = Ipa.patched_spec (Ipa.run ~jobs:1 tpcw) in
  let stale = Spec_parser.parse_string stale_src in
  let sessions =
    [
      ("rules", [ (mini (), 3); (rem_wins, 3) ]);
      ("invariants", [ (mini (), 3); (no_t, 3) ]);
      ("base effects", [ (tpcw, 3); (patched, 3) ]);
      ("max_size", [ (stale, 2); (stale, 1) ]);
    ]
  in
  List.iter
    (fun (what, runs) ->
      let ctx = Anactx.create () in
      let colds =
        List.map
          (fun (spec, max_size) ->
            let cold = Report.report_to_string (Ipa.run ~jobs:1 ~max_size spec) in
            let warm =
              Report.report_to_string (Ipa.run ~jobs:1 ~max_size ~ctx spec)
            in
            Alcotest.(check string) (what ^ ": warm = cold") cold warm;
            cold)
          runs
      in
      Alcotest.(check bool) (what ^ ": the runs' reports differ") true
        (List.length (List.sort_uniq compare colds) = List.length colds))
    sessions

let test_serve_roundtrip () =
  let has affix l = Astring.String.is_infix ~affix l in
  let out =
    Serve.run_lines
      [ "load ticket"; "analyze"; "analyze"; "stats"; "bogus"; "quit" ]
  in
  Alcotest.(check bool) "load ok" true
    (List.exists (fun l -> has "ok load name=ticket" l && has "ctx=kept" l) out);
  let oks = List.filter (has "ok analyze") out in
  Alcotest.(check int) "two analyze replies" 2 (List.length oks);
  (match oks with
  | [ first; second ] ->
      Alcotest.(check bool) "first analysis solves" true
        (not (has "solves=0 " first))
      ;
      Alcotest.(check bool) "re-analysis is free" true
        (has "solves=0 " second && has "reuse=100.0%" second);
      Alcotest.(check bool) "report unchanged on re-analysis" true
        (has "changed=false" second)
  | _ -> Alcotest.fail "expected two analyze replies");
  Alcotest.(check bool) "report payload framed" true
    (List.exists (has "report ") out);
  Alcotest.(check bool) "stats ok" true (List.exists (has "ok stats") out);
  Alcotest.(check bool) "unknown command rejected" true
    (List.exists (has "err unknown command bogus") out);
  Alcotest.(check bool) "quit acknowledged" true
    (List.exists (has "ok quit") out);
  (* analyze without a spec is an error, not a crash *)
  Alcotest.(check bool) "analyze without spec" true
    (List.exists (has "err analyze")
       (Serve.run_lines [ "analyze"; "quit" ]));
  (* an invalid spec answers one err line naming each fault, and the
     session goes on *)
  let out =
    Serve.run_lines
      [
        "spec 4"; "app A"; "sort S"; "operation o(T:x)"; "  p(x) := true";
        "load ticket"; "quit";
      ]
  in
  Alcotest.(check (list string)) "invalid spec rejected, session alive"
    [
      "err spec -: operation o: parameter x has undeclared sort T; -: \
       operation o, effect p: references undeclared predicate p";
      "ok load name=ticket ops=4 invariants=2 ctx=kept";
      "ok quit";
    ]
    out;
  Alcotest.(check bool) "syntax error located" true
    (List.exists
       (has "err spec -:3: ")
       (Serve.run_lines [ "spec 3"; "app A"; "sort S"; "sort S T"; "quit" ]))

let test_serve_spec_edit () =
  let has affix l = Astring.String.is_infix ~affix l in
  let spec_cmd src =
    let lines = String.split_on_char '\n' (String.trim src) in
    Fmt.str "spec %d" (List.length lines) :: lines
  in
  let edited =
    Astring.String.cuts ~sep:"e(x, y) := true" mini_src
    |> String.concat "e(x, y) := true\n  p(x) := true"
  in
  let out =
    Serve.run_lines
      (spec_cmd mini_src @ [ "analyze" ] @ spec_cmd edited
      @ [ "analyze"; "quit" ])
  in
  (* operation-only edit: the context must survive *)
  Alcotest.(check int) "ctx kept across both installs" 2
    (List.length (List.filter (has "ctx=kept") out));
  let oks = List.filter (has "ok analyze") out in
  Alcotest.(check int) "two analyses" 2 (List.length oks);
  match oks with
  | [ _; second ] ->
      (* the edit reached some obligations (misses > 0) but far from
         all: cached verdicts for untouched pairs were reused *)
      Alcotest.(check bool) "re-analysis reuses cache" true
        (has "obligations=" second && not (has "reuse=0.0%" second))
  | _ -> Alcotest.fail "expected two analyze replies"

(* an edit of a numeric predicate's bounds changes verdicts (the
   solver's integer encoding reads them) though no obligation key
   holds them, so the server drops the context: two concurrent sells
   from a stock of at least 1 can drive it below 0, from a stock of at
   least 3 they cannot *)
let test_serve_bounds_edit () =
  let src lo =
    Fmt.str
      "app Stock\nsort I\nnumeric stock(I) in [%d, 10]\ninvariant nonneg: \
       forall(I:i) :- stock(i) >= 0\noperation sell(I:i)\n  stock(i) -= 1"
      lo
  in
  let spec_cmd src =
    let lines = String.split_on_char '\n' src in
    Fmt.str "spec %d" (List.length lines) :: lines
  in
  let out =
    Serve.run_lines
      (spec_cmd (src 0) @ [ "analyze" ] @ spec_cmd (src 3) @ [ "analyze"; "quit" ])
  in
  Alcotest.(check bool) "bounds edit resets the context" true
    (List.exists (Astring.String.is_infix ~affix:"ctx=reset") out);
  let reports =
    List.filter (Astring.String.is_prefix ~affix:"report ") out
    |> List.map (fun hd ->
           let rec from = function
             | l :: rest when l == hd -> rest
             | _ :: rest -> from rest
             | [] -> []
           in
           let k = int_of_string (String.sub hd 7 (String.length hd - 7)) in
           List.filteri (fun i _ -> i < k) (from out))
  in
  let cold lo =
    String.split_on_char '\n'
      (Report.report_to_string (Ipa.run (Spec_parser.parse_string (src lo))))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list (list string))) "warm reports = cold"
    [ cold 0; cold 3 ]
    (List.map (List.filter (fun l -> l <> "")) reports);
  Alcotest.(check bool) "the bounds change the report" true (cold 0 <> cold 3)

(* a zero-solve run renders finite rates everywhere (guarded
   divisions): no nan in stats output *)
let test_stats_no_nan () =
  let ctx = Anactx.create () in
  let s = Anactx.stats ctx in
  let printed = Fmt.str "%a" Anactx.pp_stats s in
  Alcotest.(check bool) "no nan in empty stats" false
    (Astring.String.is_infix ~affix:"nan" printed);
  Alcotest.(check (float 0.0)) "reuse rate of empty run" 0.0
    (Anactx.reuse_rate s);
  (* warm a cache, then re-run: the second, all-hit run must also
     print finite rates *)
  ignore (Ipa.run ~ctx (mini ()));
  ignore (Ipa.run ~ctx (mini ()));
  let printed = Fmt.str "%a" Anactx.pp_stats (Anactx.stats ctx) in
  Alcotest.(check bool) "no nan after cache-only run" false
    (Astring.String.is_infix ~affix:"nan" printed)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_witness () =
  let spec = mini () in
  match Detect.check_pair ~ctx:(fresh ())
      spec (op spec "rem_t") (op spec "enroll") with
  | Detect.Safe -> Alcotest.fail "expected conflict"
  | Detect.Conflict w ->
      let s = Report.witness_to_string ~op1:"rem_t" ~op2:"enroll" w in
      Alcotest.(check bool) "mentions Sinit" true
        (Astring.String.is_infix ~affix:"Sinit" s);
      Alcotest.(check bool) "mentions merge" true
        (Astring.String.is_infix ~affix:"merge" s);
      Alcotest.(check bool) "mentions violated" true
        (Astring.String.is_infix ~affix:"violated: ref" s)

let test_report_table1 () =
  let s = Fmt.str "%a" Report.pp_table1 (Catalog.all ()) in
  Alcotest.(check bool) "has header" true
    (Astring.String.is_infix ~affix:"Inv. Type" s);
  Alcotest.(check bool) "has ref integrity row" true
    (Astring.String.is_infix ~affix:"Ref. integrity" s);
  Alcotest.(check bool) "has compensation cell" true
    (Astring.String.is_infix ~affix:"Comp." s)

let test_report_full () =
  let r = Ipa.run (mini ()) in
  let s = Report.report_to_string r in
  Alcotest.(check bool) "mentions final operations" true
    (Astring.String.is_infix ~affix:"final operations" s);
  Alcotest.(check bool) "reports I-Confluent" true
    (Astring.String.is_infix ~affix:"I-Confluent" s)

(* ------------------------------------------------------------------ *)
(* Escrow planning (static half)                                       *)
(* ------------------------------------------------------------------ *)

let resource name spec =
  match
    List.find_opt
      (fun r -> r.Escrow_plan.r_name = name)
      (Escrow_plan.resources spec)
  with
  | Some r -> r
  | None -> Alcotest.failf "no escrow resource %S" name

let test_escrow_plan_ticket () =
  let r = resource "available" (Catalog.ticket ()) in
  Alcotest.(check bool) "numeric source" true
    (r.Escrow_plan.r_source = Escrow_plan.Res_numeric);
  Alcotest.(check bool) "not wildcard" false r.Escrow_plan.r_wild;
  Alcotest.(check (option int)) "lower bound" (Some 0) r.Escrow_plan.r_lo;
  Alcotest.(check (option int)) "upper bound" (Some 16) r.Escrow_plan.r_hi;
  Alcotest.(check (list string)) "decrementers" [ "buy_ticket" ]
    r.Escrow_plan.r_dec_ops;
  Alcotest.(check bool) "rights at 5" true
    (Escrow_plan.rights_pool r ~value:5 = Some 5);
  Alcotest.(check bool) "headroom at 5" true
    (Escrow_plan.headroom_pool r ~value:5 = Some 11)

let test_escrow_plan_tournament () =
  let r = resource "enrolled" (Catalog.tournament ()) in
  Alcotest.(check bool) "cardinality source" true
    (r.Escrow_plan.r_source = Escrow_plan.Res_cardinality);
  Alcotest.(check bool) "wildcard reservation" true r.Escrow_plan.r_wild;
  Alcotest.(check (option int)) "no lower bound" None r.Escrow_plan.r_lo;
  Alcotest.(check (option int)) "capacity cap" (Some 3) r.Escrow_plan.r_hi;
  Alcotest.(check bool) "no rights pool" true
    (Escrow_plan.rights_pool r ~value:1 = None)

let test_escrow_plan_tpcw () =
  let r = resource "stock" (Catalog.tpcw ()) in
  Alcotest.(check (option int)) "stock floor" (Some 0) r.Escrow_plan.r_lo;
  Alcotest.(check (option int)) "stock unbounded above" None
    r.Escrow_plan.r_hi;
  Alcotest.(check bool) "restock increments" true
    (List.mem "restock" r.Escrow_plan.r_inc_ops);
  Alcotest.(check bool) "headroom unbounded" true
    (Escrow_plan.headroom_pool r ~value:100 = None)

let test_apportion_basic () =
  Alcotest.(check (list (pair string int)))
    "proportional split"
    [ ("a", 7); ("b", 2); ("c", 1) ]
    (Escrow_plan.apportion ~total:10
       [ ("a", 0.7); ("b", 0.2); ("c", 0.1) ]);
  Alcotest.(check (list (pair string int)))
    "zero weights degrade to even split"
    [ ("a", 4); ("b", 3); ("c", 3) ]
    (Escrow_plan.apportion ~total:10 [ ("a", 0.0); ("b", 0.0); ("c", 0.0) ])

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* apportion always conserves the pool and never strays more than one
   unit from the exact proportional quota *)
let prop_apportion_exact =
  QCheck.Test.make ~name:"apportion conserves and stays within quota"
    ~count:300
    QCheck.(
      pair (int_bound 500)
        (list_of_size
           Gen.(int_range 1 6)
           (map (fun w -> float_of_int w) (int_bound 20))))
    (fun (total, weights) ->
      let named = List.mapi (fun i w -> (Printf.sprintf "r%d" i, w)) weights in
      let shares = Escrow_plan.apportion ~total named in
      let sum = List.fold_left (fun a (_, n) -> a + n) 0 shares in
      let wsum = List.fold_left (fun a (_, w) -> a +. w) 0.0 named in
      let within_quota =
        wsum <= 0.0
        || List.for_all2
             (fun (_, w) (_, n) ->
               let quota = float_of_int total *. w /. wsum in
               Float.abs (float_of_int n -. quota) <= 1.0)
             named shares
      in
      sum = total
      && List.for_all (fun (_, n) -> n >= 0) shares
      && List.map fst shares = List.map fst named
      && within_quota
      && shares = Escrow_plan.apportion ~total named)

(* merging is commutative up to the resolved write set *)
let prop_merge_commutative =
  QCheck.Test.make ~name:"merge_writes is commutative" ~count:200
    QCheck.(
      make
        Gen.(
          let gen_write =
            map2
              (fun i v -> ({ Ground.gpred = "p"; gargs = [ Printf.sprintf "a%d" (i mod 3) ] }, v))
              small_nat bool
          in
          pair (list_size (int_bound 4) gen_write)
            (list_size (int_bound 4) gen_write)))
    (fun (bw1, bw2) ->
      let dedup l =
        List.fold_left
          (fun acc (a, v) -> if List.mem_assoc a acc then acc else (a, v) :: acc)
          [] l
      in
      let spec = mini () in
      let w1 = { Effects.bool_writes = dedup bw1; num_writes = [] } in
      let w2 = { Effects.bool_writes = dedup bw2; num_writes = [] } in
      let norm ms =
        List.map
          (fun (m : Effects.writes) ->
            List.sort compare m.Effects.bool_writes)
          ms
        |> List.sort compare
      in
      norm (Effects.merge_writes spec w1 w2)
      = norm (Effects.merge_writes spec w2 w1))

(* detection is symmetric in the pair order *)
let prop_detect_symmetric =
  let spec = mini () in
  let names = [ "add_p"; "rem_p"; "add_t"; "rem_t"; "enroll"; "disenroll" ] in
  QCheck.Test.make ~name:"check_pair is order-insensitive" ~count:15
    QCheck.(pair (oneofl names) (oneofl names))
    (fun (n1, n2) ->
      let v1 = Detect.check_pair ~ctx:(fresh ())
          spec (op spec n1) (op spec n2) in
      let v2 = Detect.check_pair ~ctx:(fresh ())
          spec (op spec n2) (op spec n1) in
      (v1 = Detect.Safe) = (v2 = Detect.Safe))

(* every solution the repair search returns is actually safe, preserves
   intent, and is validated under its own rule set — across random
   convergence-rule assignments of the mini spec *)
let prop_repair_solutions_sound =
  QCheck.Test.make ~name:"repair solutions are sound under random rules"
    ~count:8
    QCheck.(
      make
        Gen.(
          triple bool bool
            (pair (oneofl [ "rem_t"; "rem_p"; "disenroll" ])
               (oneofl [ "enroll"; "add_p"; "add_t" ]))))
    (fun (e_aw, p_aw, (n1, n2)) ->
      let rules =
        [
          ("e", if e_aw then Types.Add_wins else Types.Rem_wins);
          ("p", if p_aw then Types.Add_wins else Types.Rem_wins);
          ("t", Types.Add_wins);
        ]
      in
      let spec = { (mini ()) with Types.rules } in
      let o1 = op spec n1 and o2 = op spec n2 in
      match Detect.check_pair ~ctx:(fresh ()) spec o1 o2 with
      | Detect.Safe -> true
      | Detect.Conflict _ ->
          let sols = Repair.repair_conflicts ~search_rules:true ~ctx:(fresh ())
              spec (o1, o2) in
          List.for_all
            (fun (s : Repair.solution) ->
              let p1, p2 = s.s_pair in
              let spec' = { spec with Types.rules = s.s_rules } in
              Detect.check_pair ~ctx:(fresh ()) spec' p1 p2 = Detect.Safe
              && Repair.preserves_intent spec' p1
              && Repair.preserves_intent spec' p2
              && Detect.sequentially_safe ~ctx:(fresh ()) spec' p1
              && Detect.sequentially_safe ~ctx:(fresh ()) spec' p2)
            sols)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_merge_commutative; prop_detect_symmetric;
      prop_repair_solutions_sound; prop_incremental_equivalence;
      prop_apportion_exact ]

let () =
  Alcotest.run "ipa_core"
    [
      ( "pairctx",
        [
          Alcotest.test_case "partitions" `Quick test_partitions;
          Alcotest.test_case "unifications" `Quick test_unifications;
          Alcotest.test_case "domains" `Quick test_unification_domains;
        ] );
      ( "effects",
        [
          Alcotest.test_case "wildcard writes" `Quick test_ground_writes_wildcard;
          Alcotest.test_case "last write wins in op" `Quick
            test_ground_writes_last_wins;
          Alcotest.test_case "merge add-wins" `Quick test_merge_add_wins;
          Alcotest.test_case "merge lww outcomes" `Quick
            test_merge_lww_two_outcomes;
          Alcotest.test_case "merge numeric" `Quick test_merge_numeric_sums;
          Alcotest.test_case "weakest precondition" `Quick test_apply_writes_wp;
        ] );
      ( "detect",
        [
          Alcotest.test_case "rem_t/enroll conflict" `Quick
            test_detect_conflict_rem_t_enroll;
          Alcotest.test_case "rem_p/enroll conflict" `Quick
            test_detect_conflict_rem_p_enroll;
          Alcotest.test_case "safe pairs" `Quick test_detect_safe_pairs;
          Alcotest.test_case "witness shape" `Quick test_detect_witness_shape;
          Alcotest.test_case "rules matter" `Quick test_detect_rules_matter;
          Alcotest.test_case "sequential safety" `Quick test_sequentially_safe;
          Alcotest.test_case "numeric self-conflict" `Quick
            test_detect_numeric_self_conflict;
          Alcotest.test_case "cardinality self-conflict" `Quick
            test_detect_cardinality_self_conflict;
          Alcotest.test_case "find conflicting pair" `Quick
            test_find_conflicting_pair;
        ] );
      ( "repair",
        [
          Alcotest.test_case "figure 2b" `Quick test_repair_figure2b;
          Alcotest.test_case "figure 2c (rule search)" `Quick
            test_repair_figure2c_needs_rules;
          Alcotest.test_case "solutions are safe" `Quick
            test_repair_solutions_are_safe;
          Alcotest.test_case "minimality" `Quick test_repair_minimality;
          Alcotest.test_case "numeric has no boolean repair" `Quick
            test_repair_none_for_numeric;
          Alcotest.test_case "pick policies" `Quick test_pick_policies;
          Alcotest.test_case "disjunction invariant" `Quick
            test_repair_disjunction;
          Alcotest.test_case "intent filter rejects masking" `Quick
            test_repair_intent_rejects_masking;
        ] );
      ( "compensation",
        [
          Alcotest.test_case "restock" `Quick test_compensation_restock;
          Alcotest.test_case "remove excess" `Quick
            test_compensation_remove_excess;
          Alcotest.test_case "covers" `Quick test_compensation_covers;
          Alcotest.test_case "not for boolean" `Quick
            test_compensation_not_for_boolean;
        ] );
      ( "classify",
        [
          Alcotest.test_case "tournament" `Quick test_classify_tournament;
          Alcotest.test_case "ticket" `Quick test_classify_ticket;
          Alcotest.test_case "tpcw" `Quick test_classify_tpcw;
          Alcotest.test_case "twitter" `Quick test_classify_twitter;
          Alcotest.test_case "support table" `Quick test_classify_support_table;
        ] );
      ( "loop",
        [
          Alcotest.test_case "mini run" `Quick test_ipa_run_mini;
          Alcotest.test_case "ticket run" `Quick test_ipa_run_ticket;
          Alcotest.test_case "bounded iterations" `Quick
            test_ipa_run_terminates;
          Alcotest.test_case "ignored pairs re-checked after repair" `Quick
            test_ipa_ignored_invalidation;
          Alcotest.test_case "tournament reproduces figure 3" `Slow
            test_ipa_run_tournament_figure3;
        ] );
      ( "anactx",
        [
          Alcotest.test_case "cache/prune equivalence (small apps)" `Quick
            test_cache_equivalence_quick;
          Alcotest.test_case "cache/prune equivalence (tournament)" `Slow
            test_cache_equivalence_tournament;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "search pinned" `Quick test_search_pinned;
          Alcotest.test_case "keys hash apart" `Quick test_keys_hash_apart;
          Alcotest.test_case "rule choices deduplicated" `Quick
            test_rule_choices_dedupe;
          Alcotest.test_case "canonical_rules is set equality" `Quick
            test_canonical_rules;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "decomposition is exact" `Quick
            test_decompose_equivalence;
          Alcotest.test_case "decomposition is exact (tournament)" `Slow
            test_decompose_equivalence_tournament;
          Alcotest.test_case "frame verdicts = oracle (catalog)" `Quick
            test_oracle_catalog;
          Alcotest.test_case "frame verdicts = oracle (tournament)" `Slow
            test_oracle_tournament;
          Alcotest.test_case "frame verdicts = oracle (specmut)" `Quick
            test_oracle_specmut;
          Alcotest.test_case "frame verdicts = oracle (crafted)" `Quick
            test_oracle_crafted;
          Alcotest.test_case "edits invalidate only reached obligations"
            `Quick test_incremental_invalidation;
          Alcotest.test_case "warm no-edit re-run hits the step memo" `Quick
            test_warm_no_edit;
          Alcotest.test_case "step memo stays within its bound" `Quick
            test_step_memo_bound;
          Alcotest.test_case "step memo keys every input" `Quick
            test_step_memo_keys;
          Alcotest.test_case "serve resets on a bounds edit" `Quick
            test_serve_bounds_edit;
          Alcotest.test_case "serve round-trip" `Quick test_serve_roundtrip;
          Alcotest.test_case "serve spec edit keeps context" `Quick
            test_serve_spec_edit;
          Alcotest.test_case "stats rates are finite" `Quick
            test_stats_no_nan;
        ] );
      ( "escrow_plan",
        [
          Alcotest.test_case "ticket bounds" `Quick test_escrow_plan_ticket;
          Alcotest.test_case "tournament wildcard cap" `Quick
            test_escrow_plan_tournament;
          Alcotest.test_case "tpcw stock" `Quick test_escrow_plan_tpcw;
          Alcotest.test_case "apportion" `Quick test_apportion_basic;
        ] );
      ( "report",
        [
          Alcotest.test_case "witness" `Quick test_report_witness;
          Alcotest.test_case "table 1" `Quick test_report_table1;
          Alcotest.test_case "full report" `Quick test_report_full;
        ] );
      ("properties", qcheck_tests);
    ]
