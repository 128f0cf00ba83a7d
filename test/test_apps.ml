(** Tests for [ipa_apps]: the Tournament, Twitter, Ticket and TPC
    applications — both variants of each, exercising the conflict
    scenarios the paper discusses and checking that the IPA variants
    preserve the invariants where the Causal ones do not. *)

open Ipa_crdt
open Ipa_store
open Ipa_apps

let three () =
  Cluster.create
    [ ("dc-east", "us-east"); ("dc-west", "us-west"); ("dc-eu", "eu-west") ]

(* run an op at a replica and broadcast its batch *)
let run_sync cluster rep (op : Ipa_runtime.Config.op_exec) :
    Ipa_runtime.Config.outcome =
  let o = op.Ipa_runtime.Config.run rep in
  (match o.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  o

(* run two ops concurrently (neither sees the other), then deliver both *)
let run_concurrent cluster rep1 op1 rep2 op2 =
  let o1 = op1.Ipa_runtime.Config.run rep1 in
  let o2 = op2.Ipa_runtime.Config.run rep2 in
  (match o1.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  (match o2.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  (o1, o2)

(* ------------------------------------------------------------------ *)
(* Tournament                                                          *)
(* ------------------------------------------------------------------ *)

let setup_tournament variant =
  let cluster = three () in
  let app = Tournament.create variant in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ = run_sync cluster east (Tournament.add_player app "alice") in
  let _ = run_sync cluster east (Tournament.add_player app "bob") in
  let _ = run_sync cluster east (Tournament.add_tourn app "cup") in
  (cluster, app, east, west)

let test_tournament_figure2_causal () =
  let cluster, app, east, west = setup_tournament Tournament.Causal in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "alice" "cup")
      west
      (Tournament.rem_tourn app "cup")
  in
  (* dangling enrollment: alice enrolled in a removed tournament *)
  Alcotest.(check bool) "causal violates" true
    (Tournament.count_violations app east > 0)

let test_tournament_figure2_ipa () =
  let cluster, app, east, west = setup_tournament Tournament.Ipa in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "alice" "cup")
      west
      (Tournament.rem_tourn app "cup")
  in
  (* the touch on the tournament index restores it: no violation *)
  Alcotest.(check int) "ipa preserves" 0 (Tournament.count_violations app east);
  (match Replica.peek east "tournaments" with
  | Some o ->
      Alcotest.(check bool) "tournament restored" true
        (Awset.mem "cup" (Obj.as_awset o))
  | None -> Alcotest.fail "tournaments object missing")

let test_tournament_rem_player_ipa () =
  let cluster, app, east, west = setup_tournament Tournament.Ipa in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "alice" "cup")
      west
      (Tournament.rem_player app "alice")
  in
  Alcotest.(check int) "player restored by touch" 0
    (Tournament.count_violations app east)

let test_tournament_capacity_compensation () =
  let cluster = three () in
  let app = Tournament.create ~capacity:2 Tournament.Ipa in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  List.iter
    (fun p -> ignore (run_sync cluster east (Tournament.add_player app p)))
    [ "p1"; "p2"; "p3"; "p4" ];
  let _ = run_sync cluster east (Tournament.add_tourn app "cup") in
  (* both replicas concurrently fill the last seats: capacity 2 exceeded *)
  let _ = run_sync cluster east (Tournament.enroll app "p1" "cup") in
  let _ =
    run_concurrent cluster east
      (Tournament.enroll app "p2" "cup")
      west
      (Tournament.enroll app "p3" "cup")
  in
  (* over capacity in the raw state *)
  (match Replica.peek east "enrolled:cup" with
  | Some (Obj.O_compset c) ->
      Alcotest.(check bool) "raw over capacity" true (Compset.size c > 2)
  | _ -> Alcotest.fail "expected compset");
  (* a status read triggers the compensation *)
  let _ = run_sync cluster east (Tournament.status app "cup") in
  (match Replica.peek east "enrolled:cup" with
  | Some (Obj.O_compset c) ->
      Alcotest.(check int) "compensated to capacity" 2 (Compset.size c)
  | _ -> Alcotest.fail "expected compset");
  Alcotest.(check int) "no violations after compensation" 0
    (Tournament.count_violations app east)

let test_tournament_do_match_requires_enrollment () =
  let cluster, app, east, _ = setup_tournament Tournament.Ipa in
  let _ = run_sync cluster east (Tournament.enroll app "alice" "cup") in
  let _ = run_sync cluster east (Tournament.enroll app "bob" "cup") in
  (* tournament not started: precondition fails *)
  let o = run_sync cluster east (Tournament.do_match app "alice" "bob" "cup") in
  Alcotest.(check bool) "aborted before begin" true
    (o.Ipa_runtime.Config.batch = None);
  let _ = run_sync cluster east (Tournament.begin_tourn app "cup") in
  let o2 = run_sync cluster east (Tournament.do_match app "alice" "bob" "cup") in
  Alcotest.(check bool) "succeeds when active" true
    (o2.Ipa_runtime.Config.batch <> None);
  Alcotest.(check int) "no violations" 0 (Tournament.count_violations app east)

let test_tournament_disenroll_vs_match_ipa () =
  let cluster, app, east, west = setup_tournament Tournament.Ipa in
  let _ = run_sync cluster east (Tournament.enroll app "alice" "cup") in
  let _ = run_sync cluster east (Tournament.enroll app "bob" "cup") in
  let _ = run_sync cluster east (Tournament.begin_tourn app "cup") in
  let _ =
    run_concurrent cluster east
      (Tournament.do_match app "alice" "bob" "cup")
      west
      (Tournament.disenroll app "alice" "cup")
  in
  (* the match's enrolled-touch wins over the concurrent disenroll *)
  Alcotest.(check int) "ipa keeps match valid" 0
    (Tournament.count_violations app east)

let test_tournament_workload_smoke () =
  (* run a few hundred random ops; the IPA variant stays invariant-clean
     after convergence *)
  let cluster = three () in
  let app = Tournament.create Tournament.Ipa in
  let wp = Tournament.default_params in
  Tournament.seed_data app wp cluster;
  let rng = Ipa_sim.Rng.create 99 in
  let ids = [ "dc-east"; "dc-west"; "dc-eu" ] in
  for _ = 1 to 300 do
    let rep = Cluster.replica cluster (Ipa_sim.Rng.choose rng ids) in
    let op = Tournament.next_op app wp rng ~region:rep.Replica.region in
    ignore (run_sync cluster rep op)
  done;
  (* reads trigger remaining capacity compensations *)
  for i = 0 to wp.Tournament.n_tournaments - 1 do
    let east = Cluster.replica cluster "dc-east" in
    ignore (run_sync cluster east (Tournament.status app (Fmt.str "t%d" i)))
  done;
  let east = Cluster.replica cluster "dc-east" in
  Alcotest.(check int) "ipa workload clean" 0
    (Tournament.count_violations app east)

let test_tournament_chaos_delivery () =
  (* batches collected during a burst of concurrent activity and
     delivered in a random order (causal buffering reorders them):
     the IPA variant still converges to an invariant-clean state *)
  let cluster = three () in
  let app = Tournament.create Tournament.Ipa in
  let wp = Tournament.default_params in
  Tournament.seed_data app wp cluster;
  let rng = Ipa_sim.Rng.create 7 in
  let ids = [ "dc-east"; "dc-west"; "dc-eu" ] in
  let batches = ref [] in
  for _ = 1 to 200 do
    let rep = Cluster.replica cluster (Ipa_sim.Rng.choose rng ids) in
    let op = Tournament.next_op app wp rng ~region:rep.Replica.region in
    match (op.Ipa_runtime.Config.run rep).Ipa_runtime.Config.batch with
    | Some b -> batches := b :: !batches
    | None -> ()
  done;
  (* deliver every batch to every other replica in a shuffled order *)
  let deliveries =
    List.concat_map
      (fun (b : Replica.batch) ->
        List.filter_map
          (fun id ->
            if id = b.Replica.b_origin then None
            else Some (id, b))
          ids)
      !batches
  in
  let arr = Array.of_list deliveries in
  for i = Array.length arr - 1 downto 1 do
    let j = Ipa_sim.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.iter (fun (id, b) -> Replica.receive (Cluster.replica cluster id) b) arr;
  Alcotest.(check bool) "cluster quiescent" true (Cluster.quiescent cluster);
  (* status reads trigger the remaining compensations everywhere *)
  for i = 0 to wp.Tournament.n_tournaments - 1 do
    List.iter
      (fun id ->
        let rep = Cluster.replica cluster id in
        ignore (run_sync cluster rep (Tournament.status app (Fmt.str "t%d" i))))
      ids
  done;
  List.iter
    (fun id ->
      let rep = Cluster.replica cluster id in
      Alcotest.(check int)
        (id ^ " invariant-clean")
        0
        (Tournament.count_violations app rep))
    ids

(* ------------------------------------------------------------------ *)
(* Ticket                                                              *)
(* ------------------------------------------------------------------ *)

let setup_ticket variant stock =
  let cluster = three () in
  let app = Ticket.create ~initial_stock:stock variant in
  Ticket.seed_data app
    { Ticket.n_events = 1; buy_ratio = 0.0; restock_ratio = 0.0; restock_amount = 0 }
    cluster;
  (cluster, app)

let test_ticket_oversell_causal () =
  let cluster, app = setup_ticket Ticket.Causal 1 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east (Ticket.buy_ticket app "e0") west
      (Ticket.buy_ticket app "e0")
  in
  Alcotest.(check int) "oversold by one" 1
    (Ticket.oversell_depth app east [ "e0" ]);
  Alcotest.(check int) "violated event count" 1
    (Ticket.count_violations app east [ "e0" ])

let test_ticket_oversell_ipa_repaired () =
  let cluster, app = setup_ticket Ticket.Ipa 1 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east (Ticket.buy_ticket app "e0") west
      (Ticket.buy_ticket app "e0")
  in
  (* before any read, the raw (uncompensated) state is oversold *)
  (match Replica.peek east "avail:e0" with
  | Some (Obj.O_compcounter c) ->
      Alcotest.(check int) "raw value oversold" (-1) (Compcounter.value c)
  | _ -> Alcotest.fail "expected compcounter");
  let o = run_sync cluster east (Ticket.read_event app "e0") in
  Alcotest.(check int) "read repaired one unit" 1
    o.Ipa_runtime.Config.violations;
  Alcotest.(check int) "state repaired everywhere" 0
    (Ticket.oversell_depth app east [ "e0" ]);
  let eu = Cluster.replica cluster "dc-eu" in
  Alcotest.(check int) "remote replica repaired" 0
    (Ticket.oversell_depth app eu [ "e0" ])

let test_ticket_sold_out_aborts () =
  let cluster, app = setup_ticket Ticket.Causal 0 in
  let east = Cluster.replica cluster "dc-east" in
  let o = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check bool) "no effect when sold out" true
    (o.Ipa_runtime.Config.batch = None)

let test_ticket_concurrent_repairs_idempotent () =
  (* two replicas observe and repair the same deficit: the max-register
     correction must not over-compensate *)
  let cluster, app = setup_ticket Ticket.Ipa 1 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east (Ticket.buy_ticket app "e0") west
      (Ticket.buy_ticket app "e0")
  in
  (* both coasts read (and repair) concurrently *)
  let r1 = (Ticket.read_event app "e0").Ipa_runtime.Config.run east in
  let r2 = (Ticket.read_event app "e0").Ipa_runtime.Config.run west in
  (match r1.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  (match r2.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  let v =
    match Replica.peek east "avail:e0" with
    | Some (Obj.O_compcounter c) -> Compcounter.value c
    | _ -> -99
  in
  Alcotest.(check int) "exactly repaired, not over-compensated" 0 v

let test_ticket_escrow_never_oversells () =
  let cluster, app = setup_ticket Ticket.Escrow 3 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  (* hammer both coasts well past the stock *)
  for _ = 1 to 5 do
    let _ =
      run_concurrent cluster east (Ticket.buy_ticket app "e0") west
        (Ticket.buy_ticket app "e0")
    in
    ()
  done;
  let v =
    match Replica.peek east "avail:e0" with
    | Some (Obj.O_bcounter c) -> Bcounter.value c
    | _ -> -99
  in
  Alcotest.(check bool) "never negative" true (v >= 0);
  Alcotest.(check int) "exactly sold out" 0 v

let test_ticket_escrow_transfer_pays_rtt () =
  let cluster, app = setup_ticket Ticket.Escrow 3 in
  let east = Cluster.replica cluster "dc-east" in
  (* rights are pre-partitioned 1/1/1: the second buy at east needs a
     transfer *)
  let o1 = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check int) "first buy uses local rights" 0
    o1.Ipa_runtime.Config.extra_rtts;
  let o2 = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check int) "second buy needs a grant" 1
    o2.Ipa_runtime.Config.extra_rtts

let test_ticket_escrow_restock_grants_rights () =
  (* a restock raises availability and grants its rights to the
     restocking replica: buys there and, through one fetch, elsewhere
     commit *)
  let cluster, app = setup_ticket Ticket.Escrow 0 in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ = run_sync cluster east (Ticket.add_tickets app "e0" 2) in
  let o1 = run_sync cluster east (Ticket.buy_ticket app "e0") in
  Alcotest.(check bool) "restocked buy commits" true
    (o1.Ipa_runtime.Config.batch <> None);
  Alcotest.(check int) "covered by the restock's rights" 0
    o1.Ipa_runtime.Config.extra_rtts;
  let o2 = run_sync cluster west (Ticket.buy_ticket app "e0") in
  Alcotest.(check bool) "remote buy commits" true
    (o2.Ipa_runtime.Config.batch <> None);
  Alcotest.(check int) "through one fetch" 1 o2.Ipa_runtime.Config.extra_rtts;
  Alcotest.(check int) "sold out" 0 (Ticket.oversell_depth app west [ "e0" ]);
  match Replica.peek west "avail:e0" with
  | Some (Obj.O_bcounter c) ->
      Alcotest.(check int) "availability" 0 (Bcounter.value c)
  | _ -> Alcotest.fail "expected bcounter"

(* ------------------------------------------------------------------ *)
(* Twitter                                                             *)
(* ------------------------------------------------------------------ *)

let setup_twitter variant =
  let cluster = three () in
  let app = Twitter.create ~followers_per_user:3 variant in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ = run_sync cluster east (Twitter.add_user app "u1") in
  let _ = run_sync cluster east (Twitter.add_user app "u2") in
  let _ = run_sync cluster east (Twitter.do_tweet app ~n_users:10 "u1" "tw1") in
  (cluster, app, east, west)

let tweets_at rep =
  match Replica.peek rep "tweets" with
  | Some o -> Awset.elements (Obj.as_awset o)
  | None -> []

let test_twitter_addwins_restores_tweet () =
  let cluster, app, east, west = setup_twitter Twitter.Add_wins in
  let _ =
    run_concurrent cluster east
      (Twitter.retweet app ~n_users:10 "u2" "tw1")
      west
      (Twitter.del_tweet app "tw1")
  in
  Alcotest.(check (list string)) "tweet recovered" [ "tw1" ] (tweets_at east)

let test_twitter_remwins_hides_retweets () =
  let cluster, app, east, west = setup_twitter Twitter.Rem_wins in
  let _ =
    run_concurrent cluster east
      (Twitter.retweet app ~n_users:10 "u2" "tw1")
      west
      (Twitter.del_tweet app "tw1")
  in
  Alcotest.(check (list string)) "tweet stays deleted" [] (tweets_at east);
  (* the timeline read filters the dangling entry *)
  let op = Twitter.timeline app "u9" in
  let o = op.Ipa_runtime.Config.run east in
  Alcotest.(check bool) "read-side compensation did work" true
    (o.Ipa_runtime.Config.extra_work > 0)

let test_twitter_remwins_purges_user () =
  let cluster, app, east, west = setup_twitter Twitter.Rem_wins in
  (* u1's tweet is in follower timelines; removing u1 purges them even
     against a concurrent re-push *)
  let _ =
    run_concurrent cluster east
      (Twitter.do_tweet app ~n_users:10 "u1" "tw2")
      west
      (Twitter.rem_user app ~n_users:10 "u1")
  in
  (match Replica.peek east "users" with
  | Some o ->
      Alcotest.(check bool) "user removed" false (Awset.mem "u1" (Obj.as_awset o))
  | None -> Alcotest.fail "users object missing");
  (* the timeline read hides entries whose author is gone *)
  let follower = "u8" (* first follower of u1 = u1+7 mod 10 *) in
  let _ = (Twitter.timeline app follower).Ipa_runtime.Config.run east in
  ()

let test_twitter_causal_dangles () =
  let cluster, app, east, west = setup_twitter Twitter.Causal in
  let _ =
    run_concurrent cluster east
      (Twitter.retweet app ~n_users:10 "u2" "tw1")
      west
      (Twitter.del_tweet app "tw1")
  in
  Alcotest.(check (list string)) "tweet deleted" [] (tweets_at east);
  (* but timelines still reference it: a violation is observed *)
  let o = (Twitter.timeline app "u9").Ipa_runtime.Config.run east in
  Alcotest.(check bool) "dangling reference observed" true
    (o.Ipa_runtime.Config.violations > 0)

(* ------------------------------------------------------------------ *)
(* TPC                                                                 *)
(* ------------------------------------------------------------------ *)

let setup_tpc variant =
  let cluster = three () in
  let app = Tpc.create ~initial_stock:1 variant in
  Tpc.seed_data app
    { Tpc.n_items = 2; n_customers = 2; order_ratio = 0.0 }
    cluster;
  (cluster, app)

let test_tpc_rem_item_vs_order_causal () =
  let cluster, app = setup_tpc Tpc.Causal in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east
      (Tpc.new_order app ~order_id:"o1" "c1" "i0")
      west (Tpc.rem_item app "i0")
  in
  Alcotest.(check bool) "dangling order line" true
    (Tpc.count_violations app east > 0)

let test_tpc_rem_item_vs_order_ipa () =
  let cluster, app = setup_tpc Tpc.Ipa in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  let _ =
    run_concurrent cluster east
      (Tpc.new_order app ~order_id:"o1" "c1" "i0")
      west (Tpc.rem_item app "i0")
  in
  Alcotest.(check int) "touch restores listing" 0
    (Tpc.count_violations app east)

let test_tpc_stock_restock_compensation () =
  let cluster, app = setup_tpc Tpc.Ipa in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in
  (* stock 1, two concurrent orders *)
  let _ =
    run_concurrent cluster east
      (Tpc.new_order app ~order_id:"o1" "c1" "i0")
      west
      (Tpc.new_order app ~order_id:"o2" "c2" "i0")
  in
  (* stock is now -1; a stock check triggers the restock compensation *)
  let o = run_sync cluster east (Tpc.check_stock app "i0") in
  Alcotest.(check bool) "under-run detected" true
    (o.Ipa_runtime.Config.violations > 0);
  let v =
    match Replica.peek east "stock:i0" with
    | Some (Obj.O_compcounter c) -> Compcounter.value c
    | _ -> -99
  in
  Alcotest.(check bool) "restocked above the bound" true (v >= 0)

let () =
  Alcotest.run "ipa_apps"
    [
      ( "tournament",
        [
          Alcotest.test_case "figure 2 causal violates" `Quick
            test_tournament_figure2_causal;
          Alcotest.test_case "figure 2 ipa preserves" `Quick
            test_tournament_figure2_ipa;
          Alcotest.test_case "rem_player ipa" `Quick
            test_tournament_rem_player_ipa;
          Alcotest.test_case "capacity compensation" `Quick
            test_tournament_capacity_compensation;
          Alcotest.test_case "do_match preconditions" `Quick
            test_tournament_do_match_requires_enrollment;
          Alcotest.test_case "disenroll vs match" `Quick
            test_tournament_disenroll_vs_match_ipa;
          Alcotest.test_case "workload smoke" `Quick
            test_tournament_workload_smoke;
          Alcotest.test_case "chaos delivery" `Quick
            test_tournament_chaos_delivery;
        ] );
      ( "ticket",
        [
          Alcotest.test_case "causal oversell" `Quick test_ticket_oversell_causal;
          Alcotest.test_case "ipa repairs" `Quick test_ticket_oversell_ipa_repaired;
          Alcotest.test_case "sold out aborts" `Quick test_ticket_sold_out_aborts;
          Alcotest.test_case "concurrent repairs idempotent" `Quick
            test_ticket_concurrent_repairs_idempotent;
          Alcotest.test_case "escrow never oversells" `Quick
            test_ticket_escrow_never_oversells;
          Alcotest.test_case "escrow transfer cost" `Quick
            test_ticket_escrow_transfer_pays_rtt;
          Alcotest.test_case "escrow restock grants rights" `Quick
            test_ticket_escrow_restock_grants_rights;
        ] );
      ( "twitter",
        [
          Alcotest.test_case "add-wins restores tweet" `Quick
            test_twitter_addwins_restores_tweet;
          Alcotest.test_case "rem-wins hides retweets" `Quick
            test_twitter_remwins_hides_retweets;
          Alcotest.test_case "rem-wins purges user" `Quick
            test_twitter_remwins_purges_user;
          Alcotest.test_case "causal dangles" `Quick test_twitter_causal_dangles;
        ] );
      ( "tpc",
        [
          Alcotest.test_case "causal dangling line" `Quick
            test_tpc_rem_item_vs_order_causal;
          Alcotest.test_case "ipa restores listing" `Quick
            test_tpc_rem_item_vs_order_ipa;
          Alcotest.test_case "restock compensation" `Quick
            test_tpc_stock_restock_compensation;
        ] );
    ]
