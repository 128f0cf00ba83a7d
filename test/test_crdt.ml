(** Tests for [ipa_crdt]: vector clocks, the add-wins / rem-wins sets
    with touch and wildcard removes, counters and compensation CRDTs. *)

open Ipa_crdt

let dot rep cnt = { Vclock.rep; cnt }

(* ------------------------------------------------------------------ *)
(* Vector clocks                                                       *)
(* ------------------------------------------------------------------ *)

let test_vclock_basics () =
  let vv = Vclock.empty in
  Alcotest.(check int) "empty reads 0" 0 (Vclock.get vv "a");
  let vv, d = Vclock.tick vv "a" in
  Alcotest.(check int) "tick" 1 (Vclock.get vv "a");
  Alcotest.(check bool) "dot" true (d = dot "a" 1);
  Alcotest.(check bool) "contains" true (Vclock.contains vv d);
  Alcotest.(check bool) "not contains future" false
    (Vclock.contains vv (dot "a" 2))

let test_vclock_order () =
  let a = Vclock.of_list [ ("r1", 2); ("r2", 1) ] in
  let b = Vclock.of_list [ ("r1", 2); ("r2", 3) ] in
  let c = Vclock.of_list [ ("r1", 3); ("r2", 0) ] in
  Alcotest.(check bool) "a < b" true (Vclock.lt a b);
  Alcotest.(check bool) "b !< a" false (Vclock.lt b a);
  Alcotest.(check bool) "b || c" true (Vclock.concurrent b c);
  Alcotest.(check bool) "merge upper bound" true
    (Vclock.leq b (Vclock.merge b c) && Vclock.leq c (Vclock.merge b c))

let test_vclock_compare () =
  let a = Vclock.of_list [ ("r1", 1) ] in
  let b = Vclock.of_list [ ("r1", 1) ] in
  Alcotest.(check bool) "equal" true (Vclock.compare_vv a b = Vclock.Equal);
  Alcotest.(check bool) "before" true
    (Vclock.compare_vv a (Vclock.of_list [ ("r1", 2) ]) = Vclock.Before)

(* qcheck generator for vector clocks over 3 replicas *)
let gen_vv =
  QCheck.Gen.(
    map3
      (fun a b c -> Vclock.of_list [ ("r1", a); ("r2", b); ("r3", c) ])
      (int_bound 4) (int_bound 4) (int_bound 4))

let prop_merge_commutative =
  QCheck.Test.make ~name:"vclock merge commutative" ~count:200
    QCheck.(make Gen.(pair gen_vv gen_vv))
    (fun (a, b) -> Vclock.equal (Vclock.merge a b) (Vclock.merge b a))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"vclock merge idempotent" ~count:100
    (QCheck.make gen_vv) (fun a -> Vclock.equal (Vclock.merge a a) a)

let prop_merge_associative =
  QCheck.Test.make ~name:"vclock merge associative" ~count:200
    QCheck.(make Gen.(triple gen_vv gen_vv gen_vv))
    (fun (a, b, c) ->
      Vclock.equal
        (Vclock.merge a (Vclock.merge b c))
        (Vclock.merge (Vclock.merge a b) c))

let prop_min_pointwise =
  QCheck.Test.make ~name:"vclock min_pointwise is the pointwise min"
    ~count:200
    QCheck.(make Gen.(pair gen_vv gen_vv))
    (fun (a, b) ->
      let m = Vclock.min_pointwise a b in
      Vclock.leq m a && Vclock.leq m b
      && List.for_all
           (fun r -> Vclock.get m r = min (Vclock.get a r) (Vclock.get b r))
           [ "r1"; "r2"; "r3" ])

let prop_to_list_roundtrip =
  QCheck.Test.make ~name:"vclock of_list/to_list round-trips" ~count:200
    (QCheck.make gen_vv) (fun a ->
      Vclock.equal (Vclock.of_list (Vclock.to_list a)) a)

let test_vclock_replica_namespace_isolated () =
  (* regression: clocks index by the replica-id namespace ({!Intern.Rep}),
     so flooding the key interner must not widen them.  When both shared
     one namespace, a replica id first seen after a million-key
     population received id 1M+ and every subsequent clock copy was a
     million entries wide. *)
  let rep_before = Intern.Rep.count () in
  for i = 0 to 9_999 do
    ignore (Intern.id (Printf.sprintf "vc-flood-%d" i))
  done;
  let vv = Vclock.set Vclock.empty "vc-late-rep" 3 in
  Alcotest.(check int) "only the replica id entered the Rep namespace"
    (rep_before + 1) (Intern.Rep.count ());
  Alcotest.(check (option int)) "keys never enter the replica namespace"
    None
    (Intern.Rep.find "vc-flood-0");
  Alcotest.(check (option int)) "replica ids never enter the key namespace"
    None
    (Intern.find "vc-late-rep");
  Alcotest.(check int) "clock entry reads back" 3 (Vclock.get vv "vc-late-rep")

(* ------------------------------------------------------------------ *)
(* Add-wins set                                                        *)
(* ------------------------------------------------------------------ *)

let test_awset_add_remove () =
  let s = Awset.apply Awset.empty (Awset.prepare_add Awset.empty ~dot:(dot "r1" 1) "x") in
  Alcotest.(check bool) "added" true (Awset.mem "x" s);
  let s = Awset.apply s (Awset.prepare_remove s "x") in
  Alcotest.(check bool) "removed" false (Awset.mem "x" s);
  Alcotest.(check int) "size 0" 0 (Awset.size s)

let test_awset_add_wins () =
  (* concurrent add and remove at two replicas: the add wins *)
  let base =
    Awset.apply Awset.empty
      (Awset.prepare_add Awset.empty ~dot:(dot "r1" 1) "x")
  in
  (* r1 removes x (observes dot r1#1); r2 concurrently re-adds x *)
  let rm = Awset.prepare_remove base "x" in
  let add2 = Awset.prepare_add base ~dot:(dot "r2" 1) "x" in
  (* both orders converge to x present *)
  let s_a = Awset.apply (Awset.apply base rm) add2 in
  let s_b = Awset.apply (Awset.apply base add2) rm in
  Alcotest.(check bool) "x present (rm then add)" true (Awset.mem "x" s_a);
  Alcotest.(check bool) "x present (add then rm)" true (Awset.mem "x" s_b);
  Alcotest.(check bool) "same elements" true
    (Awset.elements s_a = Awset.elements s_b)

let test_awset_payload () =
  let add =
    Awset.prepare_add ~payload:"alice@x" Awset.empty ~dot:(dot "r1" 1) "alice"
  in
  let s = Awset.apply Awset.empty add in
  Alcotest.(check (option string)) "payload" (Some "alice@x")
    (Awset.payload "alice" s)

let test_awset_touch_preserves_payload () =
  let s =
    Awset.apply Awset.empty
      (Awset.prepare_add ~payload:"data" Awset.empty ~dot:(dot "r1" 1) "e")
  in
  let s = Awset.apply s (Awset.prepare_remove s "e") in
  Alcotest.(check bool) "gone" false (Awset.mem "e" s);
  Alcotest.(check (option string)) "payload survives removal" (Some "data")
    (Awset.saved_payload "e" s);
  (* touch re-adds membership and the old payload becomes visible again *)
  let s = Awset.apply s (Awset.prepare_touch s ~dot:(dot "r2" 1) "e") in
  Alcotest.(check bool) "member again" true (Awset.mem "e" s);
  Alcotest.(check (option string)) "payload restored" (Some "data")
    (Awset.payload "e" s)

let test_awset_wildcard_remove () =
  let add d e s = Awset.apply s (Awset.prepare_add s ~dot:d e) in
  let s = Awset.empty |> add (dot "r1" 1) "a:t1" |> add (dot "r1" 2) "b:t1"
          |> add (dot "r1" 3) "c:t2" in
  let sel = Awset.Matching (fun e -> Filename.check_suffix e ":t1") in
  let rm = Awset.prepare_remove_where s sel in
  let s = Awset.apply s rm in
  Alcotest.(check (list string)) "only t2 entry left" [ "c:t2" ]
    (Awset.elements s)

let test_awset_wildcard_add_wins () =
  (* a concurrent add is NOT cancelled by the wildcard remove *)
  let s0 =
    Awset.apply Awset.empty
      (Awset.prepare_add Awset.empty ~dot:(dot "r1" 1) "a:t1")
  in
  let rm = Awset.prepare_remove_where s0 Awset.All in
  (* concurrently, r2 adds b:t1 (not observed by the remove) *)
  let add_b = Awset.prepare_add s0 ~dot:(dot "r2" 1) "b:t1" in
  let s = Awset.apply (Awset.apply s0 rm) add_b in
  Alcotest.(check (list string)) "concurrent add survives" [ "b:t1" ]
    (Awset.elements s)

(* ------------------------------------------------------------------ *)
(* Remove-wins set                                                     *)
(* ------------------------------------------------------------------ *)

let vv l = Vclock.of_list l

let test_rwset_add_remove () =
  let add = Rwset.prepare_add Rwset.empty ~dot:(dot "r1" 1) ~vv:(vv [ ("r1", 1) ]) "x" in
  let s = Rwset.apply Rwset.empty add in
  Alcotest.(check bool) "added" true (Rwset.mem "x" s);
  let s = Rwset.apply s (Rwset.prepare_remove s ~vv:(vv [ ("r1", 2) ]) "x") in
  Alcotest.(check bool) "removed" false (Rwset.mem "x" s)

let test_rwset_remove_wins () =
  (* concurrent add (r2) and remove (r1): remove wins *)
  let add0 = Rwset.prepare_add Rwset.empty ~dot:(dot "r1" 1) ~vv:(vv [ ("r1", 1) ]) "x" in
  let base = Rwset.apply Rwset.empty add0 in
  let rm = Rwset.prepare_remove base ~vv:(vv [ ("r1", 2) ]) "x" in
  let re_add = Rwset.prepare_add base ~dot:(dot "r2" 1) ~vv:(vv [ ("r1", 1); ("r2", 1) ]) "x" in
  let s_a = Rwset.apply (Rwset.apply base rm) re_add in
  let s_b = Rwset.apply (Rwset.apply base re_add) rm in
  Alcotest.(check bool) "absent (rm then add)" false (Rwset.mem "x" s_a);
  Alcotest.(check bool) "absent (add then rm)" false (Rwset.mem "x" s_b)

let test_rwset_causal_readd () =
  (* an add that has SEEN the remove wins (it is causally after) *)
  let base =
    Rwset.apply Rwset.empty
      (Rwset.prepare_add Rwset.empty ~dot:(dot "r1" 1) ~vv:(vv [ ("r1", 1) ]) "x")
  in
  let s = Rwset.apply base (Rwset.prepare_remove base ~vv:(vv [ ("r1", 2) ]) "x") in
  let s =
    Rwset.apply s
      (Rwset.prepare_add s ~dot:(dot "r1" 3) ~vv:(vv [ ("r1", 3) ]) "x")
  in
  Alcotest.(check bool) "causal re-add visible" true (Rwset.mem "x" s)

let test_rwset_wildcard_kills_concurrent_adds () =
  (* the Figure 2c semantics: enrolled( *, t) := false cancels enrolls the
     source never saw *)
  let base = Rwset.empty in
  let rm_all = Rwset.prepare_remove_where base ~vv:(vv [ ("r1", 1) ]) Rwset.All in
  let concurrent_add =
    Rwset.prepare_add base ~dot:(dot "r2" 1) ~vv:(vv [ ("r2", 1) ]) "p:t1"
  in
  let s = Rwset.apply (Rwset.apply base rm_all) concurrent_add in
  Alcotest.(check bool) "concurrent add cancelled" false (Rwset.mem "p:t1" s);
  (* but an add issued after seeing the barrier is visible *)
  let later =
    Rwset.prepare_add s ~dot:(dot "r2" 2) ~vv:(vv [ ("r1", 1); ("r2", 2) ]) "q:t1"
  in
  let s = Rwset.apply s later in
  Alcotest.(check bool) "later add visible" true (Rwset.mem "q:t1" s)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_pncounter () =
  let c = Pncounter.empty in
  let c = Pncounter.apply c (Pncounter.prepare c ~rep:"r1" 5) in
  let c = Pncounter.apply c (Pncounter.prepare c ~rep:"r2" (-2)) in
  Alcotest.(check int) "value" 3 (Pncounter.value c)

let prop_pncounter_order_independent =
  QCheck.Test.make ~name:"pncounter is order independent" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_bound 8)
            (pair (oneofl [ "r1"; "r2"; "r3" ]) (int_range (-5) 5))))
    (fun deltas ->
      let ops =
        List.map
          (fun (rep, d) -> Pncounter.prepare Pncounter.empty ~rep d)
          deltas
      in
      let v1 =
        Pncounter.value (List.fold_left Pncounter.apply Pncounter.empty ops)
      in
      let v2 =
        Pncounter.value
          (List.fold_left Pncounter.apply Pncounter.empty (List.rev ops))
      in
      v1 = v2 && v1 = List.fold_left (fun a (_, d) -> a + d) 0 deltas)

let prop_pncounter_quick_value =
  QCheck.Test.make ~name:"pncounter quick_value tracks value" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_bound 10)
            (pair (oneofl [ "r1"; "r2"; "r3" ]) (int_range (-5) 5))))
    (fun deltas ->
      let c = ref Pncounter.empty in
      List.for_all
        (fun (rep, d) ->
          c := Pncounter.apply !c (Pncounter.prepare !c ~rep d);
          Pncounter.quick_value !c = Pncounter.value !c)
        deltas)

let prop_bcounter_quick_value =
  (* random inc/dec/transfer scripts; steps the rights discipline rejects
     are simply skipped — the maintained total must track the recomputed
     value after every applied op *)
  QCheck.Test.make ~name:"bcounter quick_value tracks value" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_bound 12)
            (triple (int_bound 2)
               (pair (oneofl [ "r1"; "r2" ]) (oneofl [ "r1"; "r2" ]))
               (int_range 1 6))))
    (fun script ->
      let c = ref Bcounter.empty in
      List.for_all
        (fun (kind, (ra, rb), n) ->
          (match kind with
          | 0 -> c := Bcounter.apply !c (Bcounter.prepare_inc !c ~rep:ra n)
          | 1 -> (
              match Bcounter.prepare_dec !c ~rep:ra n with
              | op -> c := Bcounter.apply !c op
              | exception Bcounter.Insufficient_rights _ -> ())
          | _ -> (
              match Bcounter.prepare_transfer !c ~from_:ra ~to_:rb n with
              | op -> c := Bcounter.apply !c op
              | exception Bcounter.Insufficient_rights _ -> ()));
          Bcounter.quick_value !c = Bcounter.value !c)
        script)

let test_compcounter_quick_raw_value () =
  let c = Compcounter.create () in
  let c = Compcounter.apply c (Compcounter.prepare_delta c ~rep:"r1" 4) in
  let c = Compcounter.apply c (Compcounter.prepare_delta c ~rep:"r2" (-6)) in
  Alcotest.(check int) "quick_raw_value tracks raw_value"
    (Compcounter.raw_value c)
    (Compcounter.quick_raw_value c)

let test_bcounter_rights () =
  let c = Bcounter.empty in
  let c = Bcounter.apply c (Bcounter.prepare_inc c ~rep:"r1" 10) in
  Alcotest.(check int) "value 10" 10 (Bcounter.value c);
  Alcotest.(check int) "r1 rights" 10 (Bcounter.local_rights c "r1");
  Alcotest.(check int) "r2 rights" 0 (Bcounter.local_rights c "r2");
  (* r2 cannot decrement without rights *)
  (match Bcounter.prepare_dec c ~rep:"r2" 1 with
  | exception Bcounter.Insufficient_rights _ -> ()
  | _ -> Alcotest.fail "expected Insufficient_rights");
  (* transfer rights, then decrement *)
  let c = Bcounter.apply c (Bcounter.prepare_transfer c ~from_:"r1" ~to_:"r2" 4) in
  Alcotest.(check int) "r1 rights after transfer" 6 (Bcounter.local_rights c "r1");
  Alcotest.(check int) "r2 rights after transfer" 4 (Bcounter.local_rights c "r2");
  let c = Bcounter.apply c (Bcounter.prepare_dec c ~rep:"r2" 3) in
  Alcotest.(check int) "value after dec" 7 (Bcounter.value c);
  Alcotest.(check int) "r2 rights after dec" 1 (Bcounter.local_rights c "r2")

let test_bcounter_never_negative () =
  (* rights discipline keeps the global value >= 0 regardless of order *)
  let c = Bcounter.empty in
  let c = Bcounter.apply c (Bcounter.prepare_inc c ~rep:"r1" 3) in
  let d1 = Bcounter.prepare_dec c ~rep:"r1" 3 in
  let c = Bcounter.apply c d1 in
  (match Bcounter.prepare_dec c ~rep:"r1" 1 with
  | exception Bcounter.Insufficient_rights _ -> ()
  | _ -> Alcotest.fail "rights exhausted");
  Alcotest.(check int) "value stays 0" 0 (Bcounter.value c)

let test_bcounter_demand_advisory () =
  (* Demand/Hdemand ops accumulate the advisory ledgers and nothing
     else: value, rights, headroom and the audit are all untouched *)
  let c = Bcounter.empty in
  let c = Bcounter.apply c (Bcounter.prepare_inc c ~rep:"r1" 5) in
  let c = Bcounter.apply c (Bcounter.prepare_demand c ~rep:"r2" 3) in
  let c = Bcounter.apply c (Bcounter.prepare_demand c ~rep:"r2" 4) in
  let c = Bcounter.apply c (Bcounter.prepare_hdemand c ~rep:"r1" 2) in
  Alcotest.(check int) "demand accumulates" 7 (Bcounter.local_demand c "r2");
  Alcotest.(check int) "hdemand accumulates" 2 (Bcounter.local_hdemand c "r1");
  Alcotest.(check int) "value untouched" 5 (Bcounter.value c);
  Alcotest.(check int) "rights untouched" 5 (Bcounter.local_rights c "r1");
  Alcotest.(check int) "no rights granted by demand" 0
    (Bcounter.local_rights c "r2");
  Alcotest.(check bool) "still uncapped" false (Bcounter.capped c);
  Alcotest.(check (option string)) "audit clean" None (Bcounter.audit c);
  (* a replica still cannot decrement on demand alone *)
  match Bcounter.prepare_dec c ~rep:"r2" 1 with
  | exception Bcounter.Insufficient_rights _ -> ()
  | _ -> Alcotest.fail "demand must not confer rights"

let prop_bcounter_conservation =
  (* arbitrary guarded scripts over the full op set — inc, dec,
     transfer, grant, hmove, demand, hdemand; guard-rejected steps are
     skipped — must keep every conservation identity {!Bcounter.audit}
     checks: sum of rights = value, (capped) sum of headroom =
     granted - value, no ledger overdrawn *)
  QCheck.Test.make ~name:"bcounter audit holds under guarded interleavings"
    ~count:300
    QCheck.(
      make
        Gen.(
          pair (int_bound 20)
            (list_size (int_bound 20)
               (triple (int_bound 6)
                  (pair
                     (oneofl [ "r1"; "r2"; "r3" ])
                     (oneofl [ "r1"; "r2"; "r3" ]))
                  (int_range 1 5)))))
    (fun (cap_extra, script) ->
      let c = ref Bcounter.empty in
      (* seed: some rights at r1, a cap a bit above the seeded value —
         the grant covers the seeding increments plus the headroom *)
      c := Bcounter.apply !c (Bcounter.prepare_inc !c ~rep:"r1" 6);
      c := Bcounter.apply !c (Bcounter.prepare_grant !c ~rep:"r1" (7 + cap_extra));
      List.for_all
        (fun (kind, (ra, rb), n) ->
          (match kind with
          | 0 -> (
              match Bcounter.prepare_inc !c ~rep:ra n with
              | op -> c := Bcounter.apply !c op
              | exception Bcounter.Insufficient_headroom _ -> ())
          | 1 -> (
              match Bcounter.prepare_dec !c ~rep:ra n with
              | op -> c := Bcounter.apply !c op
              | exception Bcounter.Insufficient_rights _ -> ())
          | 2 -> (
              match Bcounter.prepare_transfer !c ~from_:ra ~to_:rb n with
              | op -> c := Bcounter.apply !c op
              | exception Bcounter.Insufficient_rights _ -> ())
          | 3 -> (
              match Bcounter.prepare_hmove !c ~from_:ra ~to_:rb n with
              | op -> c := Bcounter.apply !c op
              | exception Bcounter.Insufficient_headroom _ -> ())
          | 4 -> c := Bcounter.apply !c (Bcounter.prepare_demand !c ~rep:ra n)
          | _ -> c := Bcounter.apply !c (Bcounter.prepare_hdemand !c ~rep:ra n));
          Bcounter.audit !c = None)
        script)

(* ------------------------------------------------------------------ *)
(* Compensation CRDTs                                                  *)
(* ------------------------------------------------------------------ *)

let test_compset_within_bound () =
  let c = Compset.create ~max_size:2 in
  let c = Compset.apply c (Compset.prepare_add c ~dot:(dot "r1" 1) "a") in
  let c = Compset.apply c (Compset.prepare_add c ~dot:(dot "r1" 2) "b") in
  let visible, comps = Compset.read c in
  Alcotest.(check (list string)) "all visible" [ "a"; "b" ] visible;
  Alcotest.(check int) "no compensation" 0 (List.length comps);
  Alcotest.(check bool) "not violated" false (Compset.violated c)

let test_compset_compensates () =
  let c = Compset.create ~max_size:2 in
  let add c e i = Compset.apply c (Compset.prepare_add c ~dot:(dot "r1" i) e) in
  let c = add (add (add c "a" 1) "b" 2) "c" 3 in
  Alcotest.(check bool) "violated" true (Compset.violated c);
  let visible, comps = Compset.read c in
  (* deterministic victim: the largest element *)
  Alcotest.(check (list string)) "largest removed from view" [ "a"; "b" ]
    visible;
  Alcotest.(check int) "one compensation op" 1 (List.length comps);
  (* applying the compensation repairs the state *)
  let c = List.fold_left Compset.apply c comps in
  Alcotest.(check bool) "repaired" false (Compset.violated c);
  Alcotest.(check (list string)) "converged view" [ "a"; "b" ]
    (Compset.raw_elements c)

let test_compset_deterministic_victims () =
  (* two replicas observing the same violation pick the same victims *)
  let build order =
    List.fold_left
      (fun c (e, i) -> Compset.apply c (Compset.prepare_add c ~dot:(dot "r1" i) e))
      (Compset.create ~max_size:1) order
  in
  let c1 = build [ ("x", 1); ("y", 2); ("z", 3) ] in
  let c2 = build [ ("z", 3); ("x", 1); ("y", 2) ] in
  let v1, _ = Compset.read c1 and v2, _ = Compset.read c2 in
  Alcotest.(check (list string)) "same view" v1 v2

let test_compcounter () =
  let c = Compcounter.create () in
  let c = Compcounter.apply c (Compcounter.prepare_delta c ~rep:"r1" 2) in
  (* two concurrent decrements oversell *)
  let d1 = Compcounter.prepare_delta c ~rep:"r1" (-2) in
  let d2 = Compcounter.prepare_delta c ~rep:"r2" (-1) in
  let c = Compcounter.apply (Compcounter.apply c d1) d2 in
  Alcotest.(check int) "raw oversold" (-1) (Compcounter.raw_value c);
  Alcotest.(check bool) "violated" true (Compcounter.violated c);
  let value, comps, violations = Compcounter.read c ~rep:"r1" in
  Alcotest.(check int) "clamped read" 0 value;
  Alcotest.(check int) "one violation unit" 1 violations;
  let c = List.fold_left Compcounter.apply c comps in
  Alcotest.(check int) "repaired" 0 (Compcounter.raw_value c);
  Alcotest.(check bool) "no longer violated" false (Compcounter.violated c)

let test_compcounter_no_violation_read () =
  let c = Compcounter.create () in
  let c = Compcounter.apply c (Compcounter.prepare_delta c ~rep:"r1" 5) in
  let value, comps, violations = Compcounter.read c ~rep:"r1" in
  Alcotest.(check int) "value" 5 value;
  Alcotest.(check int) "no comps" 0 (List.length comps);
  Alcotest.(check int) "no violations" 0 violations

let test_comp_ops_carry_bounds () =
  (* every prepared op must embed the source object's bound so a remote
     replica can create the object faithfully *)
  let s = Compset.create ~max_size:7 in
  Alcotest.(check int) "compset add carries bound" 7
    (Compset.op_bound (Compset.prepare_add s ~dot:(dot "r1" 1) "a"));
  Alcotest.(check int) "compset remove carries bound" 7
    (Compset.op_bound (Compset.prepare_remove s "a"));
  let c = Compcounter.create ~min_value:3 () in
  Alcotest.(check int) "compcounter delta carries bound" 3
    (Compcounter.op_bound (Compcounter.prepare_delta c ~rep:"r1" (-1)));
  let c = Compcounter.apply c (Compcounter.prepare_delta c ~rep:"r1" (-1)) in
  let _, comps, _ = Compcounter.read c ~rep:"r1" in
  Alcotest.(check (list int)) "correction carries bound" [ 3 ]
    (List.map Compcounter.op_bound comps)

(* ------------------------------------------------------------------ *)
(* Convergence properties: random op sets in random delivery orders    *)
(* ------------------------------------------------------------------ *)

(* generate prepared AWSet ops with unique dots and apply in two random
   orders: membership must agree (ops prepared against a common base) *)
let prop_awset_concurrent_convergence =
  QCheck.Test.make ~name:"awset: concurrent ops commute" ~count:300
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 6)
            (triple (oneofl [ "a"; "b"; "c" ]) bool (int_range 1 100))))
    (fun script ->
      (* base state with a and b present *)
      let base =
        List.fold_left
          (fun s (e, i) -> Awset.apply s (Awset.prepare_add s ~dot:(dot "base" i) e))
          Awset.empty
          [ ("a", 1); ("b", 2) ]
      in
      (* each script entry prepares an op against base from a distinct replica *)
      let ops =
        List.mapi
          (fun i (e, add, salt) ->
            let rep = Printf.sprintf "r%d" (i + 1) in
            if add then Awset.prepare_add base ~dot:(dot rep salt) e
            else Awset.prepare_remove base e)
          script
      in
      let s1 = List.fold_left Awset.apply base ops in
      let s2 = List.fold_left Awset.apply base (List.rev ops) in
      Awset.elements s1 = Awset.elements s2)

let prop_rwset_concurrent_convergence =
  QCheck.Test.make ~name:"rwset: concurrent ops commute" ~count:300
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 6)
            (triple (oneofl [ "a"; "b"; "c" ]) bool (int_range 1 100))))
    (fun script ->
      let basevv = vv [ ("base", 2) ] in
      let base =
        List.fold_left
          (fun s (e, i) ->
            Rwset.apply s
              (Rwset.prepare_add s ~dot:(dot "base" i)
                 ~vv:(vv [ ("base", i) ])
                 e))
          Rwset.empty
          [ ("a", 1); ("b", 2) ]
      in
      let ops =
        List.mapi
          (fun i (e, add, salt) ->
            let rep = Printf.sprintf "r%d" (i + 1) in
            let opvv = Vclock.set basevv rep salt in
            if add then Rwset.prepare_add base ~dot:(dot rep salt) ~vv:opvv e
            else Rwset.prepare_remove base ~vv:opvv e)
          script
      in
      let s1 = List.fold_left Rwset.apply base ops in
      let s2 = List.fold_left Rwset.apply base (List.rev ops) in
      Rwset.elements s1 = Rwset.elements s2)

(* ------------------------------------------------------------------ *)
(* Garbage collection at the CRDT level                                *)
(* ------------------------------------------------------------------ *)

let test_rwset_gc_drops_stable_barrier () =
  let add s rep cnt e =
    Rwset.apply s
      (Rwset.prepare_add s ~dot:(dot rep cnt) ~vv:(vv [ (rep, cnt) ]) e)
  in
  let s = add Rwset.empty "r1" 1 "x" in
  let s = Rwset.apply s (Rwset.prepare_remove s ~vv:(vv [ ("r1", 2) ]) "x") in
  Alcotest.(check bool) "barrier present" true (Rwset.metadata_size s > 0);
  (* the barrier is stable: everyone has seen r1's event 2 *)
  let s' = Rwset.gc ~stable:(vv [ ("r1", 2) ]) s in
  Alcotest.(check int) "all metadata reclaimed" 0 (Rwset.metadata_size s');
  Alcotest.(check bool) "still absent" false (Rwset.mem "x" s')

let test_rwset_gc_keeps_unstable_barrier () =
  let s =
    Rwset.apply Rwset.empty
      (Rwset.prepare_remove Rwset.empty ~vv:(vv [ ("r1", 5) ]) "x")
  in
  let s' = Rwset.gc ~stable:(vv [ ("r1", 3) ]) s in
  Alcotest.(check bool) "unstable barrier kept" true
    (Rwset.metadata_size s' > 0);
  (* a concurrent add arriving later still loses *)
  let s'' =
    Rwset.apply s'
      (Rwset.prepare_add s' ~dot:(dot "r2" 1) ~vv:(vv [ ("r2", 1) ]) "x")
  in
  Alcotest.(check bool) "remove still wins" false (Rwset.mem "x" s'')

let test_awset_gc_keeps_live_payloads () =
  let s =
    Awset.apply Awset.empty
      (Awset.prepare_add ~payload:"keep" Awset.empty ~dot:(dot "r1" 1) "x")
  in
  let s' = Awset.gc ~stable:(vv [ ("r1", 9) ]) s in
  Alcotest.(check (option string)) "live element untouched" (Some "keep")
    (Awset.payload "x" s')

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_commutative; prop_merge_idempotent; prop_merge_associative;
      prop_min_pointwise; prop_to_list_roundtrip;
      prop_pncounter_order_independent; prop_pncounter_quick_value;
      prop_bcounter_quick_value; prop_bcounter_conservation;
      prop_awset_concurrent_convergence; prop_rwset_concurrent_convergence;
    ]

let () =
  Alcotest.run "ipa_crdt"
    [
      ( "vclock",
        [
          Alcotest.test_case "basics" `Quick test_vclock_basics;
          Alcotest.test_case "order" `Quick test_vclock_order;
          Alcotest.test_case "compare" `Quick test_vclock_compare;
          Alcotest.test_case "replica namespace isolated" `Quick
            test_vclock_replica_namespace_isolated;
        ] );
      ( "awset",
        [
          Alcotest.test_case "add/remove" `Quick test_awset_add_remove;
          Alcotest.test_case "add wins" `Quick test_awset_add_wins;
          Alcotest.test_case "payload" `Quick test_awset_payload;
          Alcotest.test_case "touch preserves payload" `Quick
            test_awset_touch_preserves_payload;
          Alcotest.test_case "wildcard remove" `Quick test_awset_wildcard_remove;
          Alcotest.test_case "wildcard is add-wins" `Quick
            test_awset_wildcard_add_wins;
        ] );
      ( "rwset",
        [
          Alcotest.test_case "add/remove" `Quick test_rwset_add_remove;
          Alcotest.test_case "remove wins" `Quick test_rwset_remove_wins;
          Alcotest.test_case "causal re-add" `Quick test_rwset_causal_readd;
          Alcotest.test_case "wildcard kills concurrent adds" `Quick
            test_rwset_wildcard_kills_concurrent_adds;
        ] );
      ( "counters",
        [
          Alcotest.test_case "pncounter" `Quick test_pncounter;
          Alcotest.test_case "bcounter rights" `Quick test_bcounter_rights;
          Alcotest.test_case "bcounter floor" `Quick test_bcounter_never_negative;
          Alcotest.test_case "bcounter demand advisory" `Quick
            test_bcounter_demand_advisory;
          Alcotest.test_case "compcounter quick raw value" `Quick
            test_compcounter_quick_raw_value;
        ] );
      ( "gc",
        [
          Alcotest.test_case "rwset drops stable barrier" `Quick
            test_rwset_gc_drops_stable_barrier;
          Alcotest.test_case "rwset keeps unstable barrier" `Quick
            test_rwset_gc_keeps_unstable_barrier;
          Alcotest.test_case "awset keeps live payloads" `Quick
            test_awset_gc_keeps_live_payloads;
        ] );
      ( "compensation",
        [
          Alcotest.test_case "compset within bound" `Quick
            test_compset_within_bound;
          Alcotest.test_case "compset compensates" `Quick test_compset_compensates;
          Alcotest.test_case "compset deterministic" `Quick
            test_compset_deterministic_victims;
          Alcotest.test_case "compcounter" `Quick test_compcounter;
          Alcotest.test_case "compcounter clean read" `Quick
            test_compcounter_no_violation_read;
          Alcotest.test_case "ops carry bounds" `Quick
            test_comp_ops_carry_bounds;
        ] );
      ("properties", qcheck_tests);
    ]
