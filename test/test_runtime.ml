(** Tests for [ipa_runtime]: the system configurations (Local, Strong,
    Indigo), the service/queue model and the workload driver. *)

open Ipa_crdt
open Ipa_store
open Ipa_sim
open Ipa_runtime

(* environment + op helpers shared with the other suites *)
let make = Testutil.make
let execute_sync = Testutil.execute_sync
let counter_value rep = Testutil.counter_value ~key:"ctr" rep

(* an op incrementing one counter *)
let incr_op ?(key = "ctr") () : Config.op_exec =
  {
    Config.op_name = "incr";
    is_update = true;
    reservations = [ (key, Config.Exclusive) ];
    run =
      (fun rep ->
        let tx = Txn.begin_ rep in
        let c = Obj.as_pncounter (Txn.get tx key Obj.T_pncounter) in
        Txn.update tx key
          (Obj.Op_pncounter (Pncounter.prepare c ~rep:rep.Replica.id 1));
        Config.outcome (Txn.commit tx));
  }

let read_op () : Config.op_exec =
  {
    Config.op_name = "read";
    is_update = false;
    reservations = [];
    run =
      (fun rep ->
        let tx = Txn.begin_ rep in
        let _ = Txn.get tx "ctr" Obj.T_pncounter in
        ignore (Txn.commit tx);
        Config.outcome None);
  }

(* ------------------------------------------------------------------ *)
(* Local mode                                                          *)
(* ------------------------------------------------------------------ *)

let test_local_executes_and_replicates () =
  let engine, cfg, cluster = make Config.Local in
  let lat, _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Alcotest.(check bool) "local latency < 5ms" true (lat < 5.0);
  (* replication reached all replicas *)
  List.iter
    (fun (r : Replica.t) ->
      Alcotest.(check int) (r.Replica.id ^ " has update") 1 (counter_value r))
    cluster.Cluster.replicas

let test_local_latency_independent_of_region () =
  let engine, cfg, _ = make Config.Local in
  let l1, _ = execute_sync engine cfg ~region:"us-east" (incr_op ()) in
  let engine2, cfg2, _ = make Config.Local in
  ignore engine;
  let l2, _ = execute_sync engine2 cfg2 ~region:"eu-west" (incr_op ()) in
  Alcotest.(check bool) "within 1ms" true (abs_float (l1 -. l2) < 1.0)

(* ------------------------------------------------------------------ *)
(* Strong mode                                                         *)
(* ------------------------------------------------------------------ *)

let test_strong_remote_write_pays_rtt () =
  let engine, cfg, _ = make Config.Strong in
  let lat, _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  (* one 80ms RTT to the primary plus service *)
  Alcotest.(check bool) "pays the WAN round-trip" true (lat > 79.0 && lat < 90.0)

let test_strong_primary_write_is_local () =
  let engine, cfg, _ = make Config.Strong in
  let lat, _ = execute_sync engine cfg ~region:"us-east" (incr_op ()) in
  Alcotest.(check bool) "primary region is fast" true (lat < 5.0)

let test_strong_read_is_local () =
  let engine, cfg, _ = make Config.Strong in
  let lat, _ = execute_sync engine cfg ~region:"eu-west" (read_op ()) in
  Alcotest.(check bool) "reads stay local" true (lat < 5.0)

let test_strong_write_lands_at_primary () =
  let engine, cfg, cluster = make Config.Strong in
  let _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  let primary = Cluster.replica cluster "dc-east" in
  Alcotest.(check int) "applied at primary" 1 (counter_value primary)

(* ------------------------------------------------------------------ *)
(* Indigo mode                                                         *)
(* ------------------------------------------------------------------ *)

let test_indigo_first_use_is_local () =
  let engine, cfg, _ = make Config.Indigo in
  let lat, _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Alcotest.(check bool) "first acquisition is free" true (lat < 5.0)

let test_indigo_exclusive_migration_pays_rtt () =
  let engine, cfg, _ = make Config.Indigo in
  let _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  (* the reservation now lives at us-west; us-east must fetch it *)
  let lat, _ = execute_sync engine cfg ~region:"us-east" (incr_op ()) in
  Alcotest.(check bool) "migration pays RTT" true (lat > 79.0);
  (* and it is now local to us-east *)
  let lat2, _ = execute_sync engine cfg ~region:"us-east" (incr_op ()) in
  Alcotest.(check bool) "subsequent op is local" true (lat2 < 5.0)

let test_indigo_shared_reservations_stay () =
  let engine, cfg, _ = make Config.Indigo in
  let op region =
    {
      (incr_op ()) with
      Config.reservations = [ ("shared-res", Config.Shared) ];
      op_name = "sh-" ^ region;
    }
  in
  let _ = execute_sync engine cfg ~region:"us-west" (op "w") in
  (* first fetch from the existing sharer pays a WAN round-trip to it,
     afterwards both hold it *)
  let lat_e1, _ = execute_sync engine cfg ~region:"us-east" (op "e1") in
  Alcotest.(check bool) "fetching a share pays the WAN RTT" true
    (lat_e1 > 79.0);
  let lat_e, _ = execute_sync engine cfg ~region:"us-east" (op "e2") in
  let lat_w, _ = execute_sync engine cfg ~region:"us-west" (op "w2") in
  Alcotest.(check bool) "shared rights do not ping-pong" true
    (lat_e < 5.0 && lat_w < 5.0)

let test_indigo_exclusive_revokes_shares () =
  let engine, cfg, _ = make Config.Indigo in
  let sh region_name =
    {
      (incr_op ()) with
      Config.reservations = [ ("res", Config.Shared) ];
      op_name = "sh-" ^ region_name;
    }
  in
  let ex = { (incr_op ()) with Config.reservations = [ ("res", Config.Exclusive) ] } in
  let _ = execute_sync engine cfg ~region:"us-west" (sh "w") in
  let _ = execute_sync engine cfg ~region:"us-east" (sh "e") in
  (* exclusive from eu-west must revoke both shares *)
  let lat, _ = execute_sync engine cfg ~region:"eu-west" ex in
  Alcotest.(check bool) "revocation pays a WAN RTT" true (lat > 79.0)

(* Reservations as rights: random Shared/Exclusive acquisitions from
   random regions, with random outage windows, through Indigo and
   through Hybrid (flagged ops forced Exclusive).  After every executed
   op the replica holds what its kind promises, the N units are
   conserved, and a blocked op commits nothing; after quiescence every
   replica's view passes the conservation audit. *)
let prop_reservations_are_rights =
  let step =
    QCheck.Gen.(
      map
        (fun (kind, region, res, (flagged, ms)) -> (kind, region, res, flagged, ms))
        (quad (int_bound 3) (int_bound 2) (int_bound 1)
           (pair bool (int_range 20 400))))
  in
  QCheck.Test.make ~name:"reservations are conserved Bcounter rights"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 24) step))
    (fun script ->
      let regions = [| "us-east"; "us-west"; "eu-west" |] in
      let run mode =
        let engine, cfg, cluster = make mode in
        let reps = cluster.Cluster.replicas in
        let n = List.length reps in
        let held res (r : Replica.t) =
          Rights.held Rights.Rights r (Config.reservation_key res)
        in
        let total res = List.fold_left (fun a r -> a + held res r) 0 reps in
        let committed () =
          List.fold_left (fun a (r : Replica.t) -> a + r.Replica.committed) 0 reps
        in
        let coordinated flagged =
          match mode with Config.Hybrid _ -> flagged | _ -> true
        in
        List.for_all
          (fun (kind, ri, res_i, flagged, ms) ->
            let region = regions.(ri) and res = Fmt.str "res%d" res_i in
            let acquired =
              match kind with
              | 0 ->
                  Config.fail_region cfg region ~for_ms:(float_of_int ms);
                  false
              | 1 ->
                  Engine.run_until engine
                    (Engine.now engine +. float_of_int ms);
                  false
              | _ ->
                let declared = if kind = 2 then Config.Shared else Config.Exclusive in
                let op =
                  {
                    (incr_op ()) with
                    Config.op_name = (if flagged then "flagged" else "plain");
                    reservations = [ (res, declared) ];
                  }
                in
                let before = committed () in
                let result = ref None in
                Config.execute cfg ~client_region:region op ~complete:(fun _ o ->
                    result := Some o);
                Engine.run_until engine (Engine.now engine +. 400.0);
                let o = Option.get !result in
                let me = Config.replica_in cfg region in
                let effective =
                  match mode with Config.Hybrid _ -> Config.Exclusive | _ -> declared
                in
                if o.Config.unavailable then begin
                  Alcotest.(check int) "a blocked op commits nothing" before
                    (committed ());
                  false
                end
                else if coordinated flagged then begin
                  (match effective with
                  | Config.Shared ->
                      Alcotest.(check bool) "shared: holds a unit" true
                        (held res me >= 1)
                  | Config.Exclusive ->
                      List.iter
                        (fun (r : Replica.t) ->
                          Alcotest.(check int)
                            ("exclusive: holdings at " ^ r.Replica.id)
                            (if r == me then n else 0)
                            (held res r))
                        reps);
                  true
                end
                else false
            in
            (* Σ holdings = N once a reservation exists, 0 before *)
            List.for_all
              (fun res -> List.mem (total res) [ 0; n ])
              [ "res0"; "res1" ]
            && ((not acquired) || total res = n))
          script
        &&
        (Engine.run engine;
         ignore (Read.quiesce cluster);
         List.for_all
           (fun (r : Replica.t) ->
             List.for_all
               (fun res ->
                 match Replica.peek r (Config.reservation_key res) with
                 | None -> true
                 | Some o -> Bcounter.audit (Obj.as_bcounter o) = None)
               [ "res0"; "res1" ])
           reps)
      in
      run Config.Indigo && run (Config.Hybrid (fun name -> name = "flagged")))

(* ------------------------------------------------------------------ *)
(* Hybrid mode                                                         *)
(* ------------------------------------------------------------------ *)

let test_hybrid_routes_flagged_ops () =
  let engine, cfg, _ = make (Config.Hybrid (fun n -> n = "flagged")) in
  (* an unflagged op is local *)
  let lat, _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Alcotest.(check bool) "unflagged op local" true (lat < 5.0);
  (* flagged ops coordinate: the second region pays the hand-off *)
  let flagged region_tag =
    { (incr_op ~key:"shared" ()) with Config.op_name = "flagged" }
    |> fun o -> ignore region_tag; o
  in
  let _ = execute_sync engine cfg ~region:"us-west" (flagged "w") in
  let lat2, _ = execute_sync engine cfg ~region:"us-east" (flagged "e") in
  Alcotest.(check bool) "flagged op pays coordination" true (lat2 > 79.0)

let test_hybrid_forces_exclusive () =
  (* even if the op declares shared reservations, hybrid coordination
     serializes it *)
  let engine, cfg, _ = make (Config.Hybrid (fun n -> n = "flagged")) in
  let flagged =
    {
      (incr_op ()) with
      Config.op_name = "flagged";
      reservations = [ ("res", Config.Shared) ];
    }
  in
  let _ = execute_sync engine cfg ~region:"us-west" flagged in
  let lat, _ = execute_sync engine cfg ~region:"us-east" flagged in
  Alcotest.(check bool) "shared demoted to exclusive hand-off" true
    (lat > 79.0)

(* ------------------------------------------------------------------ *)
(* Failure injection (§5.2.5)                                          *)
(* ------------------------------------------------------------------ *)

let test_fail_local_reroutes () =
  let engine, cfg, cluster = make Config.Local in
  Config.fail_region cfg "us-west" ~for_ms:10_000.0;
  let lat, o = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Alcotest.(check bool) "still available" false o.Config.unavailable;
  (* rerouted to the closest live region: pays a WAN RTT *)
  Alcotest.(check bool) "pays the detour" true (lat > 79.0);
  (* the transaction was executed at a live replica, not the dead one *)
  (match o.Config.batch with
  | Some b ->
      Alcotest.(check bool) "executed elsewhere" true
        (b.Replica.b_origin <> "dc-west")
  | None -> Alcotest.fail "expected a committed batch");
  (* once recovered (all events drained), the replica caught up *)
  let west = Cluster.replica cluster "dc-west" in
  Alcotest.(check int) "dead replica caught up after recovery" 1
    (counter_value west)

let test_fail_strong_primary_down () =
  let engine, cfg, _ = make Config.Strong in
  Config.fail_region cfg "us-east" ~for_ms:10_000.0;
  let _, o = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Alcotest.(check bool) "updates unavailable" true o.Config.unavailable;
  (* reads remain available *)
  let _, o2 = execute_sync engine cfg ~region:"us-west" (read_op ()) in
  Alcotest.(check bool) "reads fine" false o2.Config.unavailable

let test_fail_indigo_holder_down () =
  let engine, cfg, _ = make Config.Indigo in
  (* the reservation migrates to us-west, then us-west dies *)
  let _ = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Config.fail_region cfg "us-west" ~for_ms:10_000.0;
  let _, o = execute_sync engine cfg ~region:"us-east" (incr_op ()) in
  Alcotest.(check bool) "blocked on dead holder" true o.Config.unavailable;
  (* an op on a fresh resource is fine *)
  let _, o2 =
    execute_sync engine cfg ~region:"us-east" (incr_op ~key:"other" ())
  in
  Alcotest.(check bool) "unrelated op executes" false o2.Config.unavailable

let test_fail_recovery () =
  let engine, cfg, _ = make Config.Local in
  Config.fail_region cfg "us-west" ~for_ms:100.0;
  Engine.schedule engine ~delay:200.0 (fun () -> ());
  Engine.run engine;
  let lat, o = execute_sync engine cfg ~region:"us-west" (incr_op ()) in
  Alcotest.(check bool) "recovered" false o.Config.unavailable;
  Alcotest.(check bool) "local again" true (lat < 5.0)

(* ------------------------------------------------------------------ *)
(* Service model                                                       *)
(* ------------------------------------------------------------------ *)

let multi_update_op n : Config.op_exec =
  {
    Config.op_name = "multi";
    is_update = true;
    reservations = [];
    run =
      (fun rep ->
        let tx = Txn.begin_ rep in
        let c = Obj.as_pncounter (Txn.get tx "ctr" Obj.T_pncounter) in
        for _ = 1 to n do
          Txn.update tx "ctr"
            (Obj.Op_pncounter (Pncounter.prepare c ~rep:rep.Replica.id 1))
        done;
        Config.outcome (Txn.commit tx));
  }

let test_service_scales_with_updates () =
  let engine, cfg, _ = make Config.Local in
  let l1, _ = execute_sync engine cfg ~region:"us-east" (multi_update_op 1) in
  let engine2, cfg2, _ = make Config.Local in
  ignore engine;
  let l100, _ =
    execute_sync engine2 cfg2 ~region:"us-east" (multi_update_op 100)
  in
  Alcotest.(check bool) "more updates cost more" true (l100 > l1 +. 3.0)

let test_queueing_under_load () =
  (* saturate one region's servers: later ops must wait *)
  let engine, cfg, _ = make Config.Local in
  let lats = ref [] in
  for _ = 1 to 200 do
    Config.execute cfg ~client_region:"us-east" (incr_op ())
      ~complete:(fun lat _ -> lats := lat :: !lats)
  done;
  Engine.run engine;
  let mx = List.fold_left max 0.0 !lats in
  Alcotest.(check bool) "queueing delay appears" true (mx > 10.0)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let test_driver_closed_loop () =
  let engine, cfg, _ = make Config.Local in
  ignore engine;
  let w =
    {
      Driver.clients_per_region = 2;
      duration_ms = 1_000.0;
      warmup_ms = 100.0;
      think_time_ms = 0.0;
      only_region = None;
      next_op = (fun _rng ~region:_ -> incr_op ());
    }
  in
  let m = Driver.run cfg w in
  Alcotest.(check bool) "work happened" true (Metrics.count m () > 100);
  Alcotest.(check bool) "throughput positive" true (Metrics.throughput m > 0.0)

let test_driver_only_region () =
  let engine, cfg, cluster = make Config.Local in
  ignore engine;
  let w =
    {
      Driver.clients_per_region = 1;
      duration_ms = 500.0;
      warmup_ms = 50.0;
      think_time_ms = 1.0;
      only_region = Some "eu-west";
      next_op = (fun _rng ~region:_ -> incr_op ());
    }
  in
  let _ = Driver.run cfg w in
  (* all updates originated at the eu replica *)
  let eu = Cluster.replica cluster "dc-eu" in
  Alcotest.(check bool) "eu committed everything" true
    (eu.Replica.committed > 0);
  let east = Cluster.replica cluster "dc-east" in
  Alcotest.(check int) "east committed nothing" 0 east.Replica.committed

let test_driver_deterministic () =
  let run () =
    let _, cfg, _ = make Config.Local in
    let w =
      {
        Driver.clients_per_region = 2;
        duration_ms = 500.0;
        warmup_ms = 50.0;
        think_time_ms = 0.5;
        only_region = None;
        next_op = (fun _rng ~region:_ -> incr_op ());
      }
    in
    let m = Driver.run ~seed:123 cfg w in
    (Metrics.count m (), Metrics.mean_latency m ())
  in
  let c1, l1 = run () and c2, l2 = run () in
  Alcotest.(check int) "same op count" c1 c2;
  Alcotest.(check (float 0.0001)) "same mean latency" l1 l2

let test_driver_replicas_converge () =
  let engine, cfg, cluster = make Config.Local in
  let w =
    {
      Driver.clients_per_region = 2;
      duration_ms = 1_000.0;
      warmup_ms = 0.0;
      think_time_ms = 1.0;
      only_region = None;
      next_op = (fun _rng ~region:_ -> incr_op ());
    }
  in
  let _ = Driver.run cfg w in
  Engine.run engine;
  (* after full delivery every replica sees every increment *)
  let values =
    List.map (fun r -> counter_value r) cluster.Cluster.replicas
  in
  Alcotest.(check bool) "all replicas equal" true
    (List.for_all (fun v -> v = List.hd values) values);
  Alcotest.(check bool) "cluster quiescent" true (Cluster.quiescent cluster)

(* ------------------------------------------------------------------ *)
(* Faults on the wire: exactly-once convergence                        *)
(* ------------------------------------------------------------------ *)

let make_faulty = Testutil.make_faulty

let total_committed cluster =
  List.fold_left
    (fun acc (r : Replica.t) -> acc + r.Replica.committed)
    0 cluster.Cluster.replicas

let run_faulty_workload (plan : Net.plan) ~seed =
  let engine, cfg, cluster = make_faulty ~seed plan in
  let w =
    {
      Driver.clients_per_region = 2;
      duration_ms = 4_000.0;
      warmup_ms = 0.0;
      think_time_ms = 20.0;
      only_region = None;
      next_op = (fun _rng ~region:_ -> incr_op ());
    }
  in
  let m = Driver.run ~seed cfg w in
  (* let anti-entropy close any gaps the workload window left open *)
  Engine.run_until engine 60_000.0;
  (engine, cfg, cluster, m)

let check_converged cluster =
  Alcotest.(check bool) "cluster quiescent" true (Cluster.quiescent cluster);
  let expect = total_committed cluster in
  Alcotest.(check bool) "some work happened" true (expect > 0);
  List.iter
    (fun (r : Replica.t) ->
      (* every increment applied everywhere, and exactly once *)
      Alcotest.(check int)
        (r.Replica.id ^ " counted every increment once")
        expect (counter_value r))
    cluster.Cluster.replicas

let test_converges_under_loss_and_duplication seed =
  let plan =
    {
      Net.faults =
        { Net.no_faults.Net.faults with loss = 0.05; duplication = 0.05 };
      partitions = [];
    }
  in
  let _, cfg, cluster, _ = run_faulty_workload plan ~seed in
  check_converged cluster;
  (* the fault plan actually did something, and anti-entropy repaired it *)
  let s = Net.stats cfg.Config.net in
  Alcotest.(check bool) "packets were dropped" true (s.Net.dropped > 0);
  Alcotest.(check bool) "packets were duplicated" true (s.Net.duplicated > 0);
  let dups =
    List.fold_left
      (fun acc (r : Replica.t) -> acc + r.Replica.duplicates_dropped)
      0 cluster.Cluster.replicas
  in
  Alcotest.(check bool) "duplicates reached replicas and were dropped" true
    (dups > 0)

let test_converges_across_partition seed =
  let plan =
    {
      Net.faults = { Net.no_faults.Net.faults with loss = 0.01 };
      partitions =
        [
          {
            Net.parts = ([ "us-east"; "us-west" ], [ "eu-west" ]);
            from_ms = 500.0;
            until_ms = 3_000.0;
          };
        ];
    }
  in
  let _, _, cluster, _ = run_faulty_workload plan ~seed in
  check_converged cluster

let test_faulty_run_deterministic seed =
  let plan =
    {
      Net.faults =
        { Net.no_faults.Net.faults with loss = 0.05; duplication = 0.02 };
      partitions = [];
    }
  in
  let run () =
    let _, cfg, cluster, m = run_faulty_workload plan ~seed in
    let s = Net.stats cfg.Config.net in
    ( Metrics.count m (),
      total_committed cluster,
      s.Net.sent,
      s.Net.dropped,
      s.Net.duplicated )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed reproduces the run bit-for-bit" true (a = b)

let test_delivery_metrics_populated seed =
  let plan =
    {
      Net.faults = { Net.no_faults.Net.faults with loss = 0.05 };
      partitions = [];
    }
  in
  let _, _, _, m = run_faulty_workload plan ~seed in
  let d = m.Metrics.delivery in
  Alcotest.(check bool) "sent tracked" true (d.Metrics.batches_sent > 0);
  Alcotest.(check bool) "drops tracked" true (d.Metrics.batches_dropped > 0);
  Alcotest.(check bool) "retransmissions tracked" true
    (d.Metrics.batches_retransmitted > 0);
  Alcotest.(check bool) "visibility sampled" true (d.Metrics.visibility_n > 0);
  Alcotest.(check bool) "visibility positive" true
    (List.for_all (fun v -> v > 0.0) d.Metrics.visibility)

(* ------------------------------------------------------------------ *)
(* Escrow planner (runtime half)                                       *)
(* ------------------------------------------------------------------ *)

let apply_all c ops = List.fold_left Bcounter.apply c ops

let test_escrow_seed_placement () =
  let shares = [ ("r1", 5); ("r2", 3); ("r3", 2) ] in
  let c =
    apply_all Bcounter.empty (Escrow.seed ~shares ~value:10 ())
  in
  Alcotest.(check int) "value" 10 (Bcounter.value c);
  List.iter
    (fun (r, n) ->
      Alcotest.(check int) (r ^ " share") n (Bcounter.local_rights c r))
    shares;
  Alcotest.(check bool) "uncapped" false (Bcounter.capped c);
  Alcotest.(check (option string)) "audit clean" None (Bcounter.audit c)

let test_escrow_seed_capped () =
  let c =
    apply_all Bcounter.empty
      (Escrow.seed
         ~shares:[ ("r1", 4) ]
         ~value:4 ~cap:10
         ~hshares:[ ("r1", 2); ("r2", 2); ("r3", 2) ]
         ())
  in
  Alcotest.(check bool) "capped" true (Bcounter.capped c);
  Alcotest.(check int) "cap" 10 (Bcounter.granted c);
  Alcotest.(check int) "r1 headroom" 2 (Bcounter.local_headroom c "r1");
  Alcotest.(check int) "r2 headroom" 2 (Bcounter.local_headroom c "r2");
  Alcotest.(check int) "r1 rights" 4 (Bcounter.local_rights c "r1");
  Alcotest.(check (option string)) "audit clean" None (Bcounter.audit c)

let test_escrow_tick_migration () =
  (* all rights at r1; r2 publishes demand; r1's tick ships toward it,
     then hysteresis stops the flow (cooldown, then no fresh demand) *)
  let c = apply_all Bcounter.empty (Escrow.seed ~shares:[ ("r1", 12) ] ~value:12 ()) in
  let c = Bcounter.apply c (Bcounter.prepare_demand c ~rep:"r2" 6) in
  let mgr = Escrow.create ~rep:"r1" () in
  let ops = Escrow.tick mgr ~now:0.0 ~key:"k" c in
  Alcotest.(check bool) "tick ships rights" true (ops <> []);
  let c = apply_all c ops in
  Alcotest.(check bool) "r2 received rights" true
    (Bcounter.local_rights c "r2" > 0);
  Alcotest.(check (option string)) "audit clean after migration" None
    (Bcounter.audit c);
  (* an immediate re-tick is inside the cooldown: nothing more ships *)
  Alcotest.(check bool) "cooldown suppresses re-ship" true
    (Escrow.tick mgr ~now:1.0 ~key:"k" c = []);
  (* demand gone quiet: the EWMA decays and no deficit re-opens, so
     rights don't ping-pong back and forth *)
  let c = ref c in
  for i = 1 to 5 do
    let ops = Escrow.tick mgr ~now:(float_of_int i *. 1000.0) ~key:"k" !c in
    Alcotest.(check bool)
      (Printf.sprintf "quiet tick %d ships nothing" i)
      true (ops = []);
    c := apply_all !c ops
  done

let test_escrow_forecast_prewarm () =
  (* no observed demand at all — the forecast alone must move rights
     toward the predicted-hot replica on the first tick *)
  let c = apply_all Bcounter.empty (Escrow.seed ~shares:[ ("r1", 12) ] ~value:12 ()) in
  let mgr = Escrow.create ~rep:"r1" () in
  Escrow.forecast mgr ~key:"k" [ ("r2", 3.0); ("r1", 0.1) ];
  let ops = Escrow.tick mgr ~now:0.0 ~key:"k" c in
  let c' = apply_all c ops in
  Alcotest.(check bool) "forecast moves rights preemptively" true
    (Bcounter.local_rights c' "r2" > 0);
  Alcotest.(check (option string)) "audit clean" None (Bcounter.audit c');
  (* without the forecast the same tick ships nothing *)
  let cold = Escrow.create ~rep:"r1" () in
  Alcotest.(check bool) "no forecast, no movement" true
    (Escrow.tick cold ~now:0.0 ~key:"k" c = [])

let test_escrow_publishes_demand () =
  (* note_dec buffers attempts; the next tick publishes them as one
     advisory Demand op so peers can difference the ledger *)
  let c = apply_all Bcounter.empty (Escrow.seed ~shares:[ ("r1", 4) ] ~value:4 ()) in
  let mgr = Escrow.create ~rep:"r2" () in
  Escrow.note_dec mgr ~key:"k" 3;
  Escrow.note_dec mgr ~key:"k" 2;
  let ops = Escrow.tick mgr ~now:0.0 ~key:"k" c in
  let c = apply_all c ops in
  Alcotest.(check int) "buffered attempts published" 5
    (Bcounter.local_demand c "r2");
  (* drained: a second tick has nothing left to publish *)
  let c' = apply_all c (Escrow.tick mgr ~now:1000.0 ~key:"k" c) in
  Alcotest.(check int) "pending drained" 5 (Bcounter.local_demand c' "r2")

(* the reactive fetch over a real cluster: counter "k" seeded at r1 *)
let fetch_cluster ?cap ?hshares shares value =
  let cluster =
    Cluster.create
      [ ("r1", "us-east"); ("r2", "us-west"); ("r3", "eu-west") ]
  in
  let tx = Txn.begin_ (Cluster.replica cluster "r1") in
  List.iter
    (fun op -> Txn.update tx "k" (Obj.Op_bcounter op))
    (Escrow.seed ~shares ~value ?cap ?hshares ());
  (match Txn.commit tx with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ());
  cluster

let bc cluster r =
  match Replica.peek (Cluster.replica cluster r) "k" with
  | Some o -> Obj.as_bcounter o
  | None -> Bcounter.empty

(* fetch one unit at [r], deliver the retried op, audit every replica *)
let fetch_at cluster side r =
  let f = Rights.fetch cluster side (Cluster.replica cluster r) ~key:"k" in
  Option.iter (Cluster.broadcast_now cluster) f.Rights.batch;
  List.iter
    (fun (rep : Replica.t) ->
      Alcotest.(check (option string))
        (rep.Replica.id ^ " audit clean") None
        (Bcounter.audit (bc cluster rep.Replica.id)))
    cluster.Cluster.replicas;
  f

let attempt =
  Alcotest.testable
    (fun ppf -> function
      | `Hit -> Fmt.string ppf "Hit" | `Miss n -> Fmt.pf ppf "Miss %d" n)
    ( = )

let rights cluster r = Bcounter.local_rights (bc cluster r) r

let test_fetch_richest_peer () =
  (* r2 and r3 tie at 4: the first in cluster order lends *)
  let cluster = fetch_cluster [ ("r1", 0); ("r2", 4); ("r3", 4) ] 8 in
  let f = fetch_at cluster Rights.Rights "r1" in
  Alcotest.check attempt "tie: half of r2's" (`Miss 2) f.Rights.attempt;
  Alcotest.(check int) "one rtt" 1 (Escrow.outcome f).Config.extra_rtts;
  Alcotest.(check (list int)) "r1 spent one, r2 lent two" [ 1; 2; 4 ]
    (List.map (rights cluster) [ "r1"; "r2"; "r3" ]);
  Alcotest.(check int) "value" 7 (Bcounter.value (bc cluster "r2"));
  (* covered locally now *)
  let f = fetch_at cluster Rights.Rights "r1" in
  Alcotest.check attempt "hit" `Hit f.Rights.attempt;
  Alcotest.(check int) "no rtt" 0 (Escrow.outcome f).Config.extra_rtts;
  (* r1 and r2 hold less than r3: r3 is the richest *)
  let f = fetch_at cluster Rights.Rights "r1" in
  Alcotest.check attempt "richest is r3" (`Miss 2) f.Rights.attempt;
  Alcotest.(check (list int)) "r3 lent two" [ 1; 2; 2 ]
    (List.map (rights cluster) [ "r1"; "r2"; "r3" ])

let test_fetch_half_min_one () =
  let cluster = fetch_cluster [ ("r1", 0); ("r2", 1); ("r3", 0) ] 1 in
  let f = fetch_at cluster Rights.Rights "r3" in
  Alcotest.check attempt "a single right still moves" (`Miss 1)
    f.Rights.attempt;
  Alcotest.(check bool) "retry committed" true (f.Rights.batch <> None);
  Alcotest.(check int) "sold out" 0 (Bcounter.value (bc cluster "r1"));
  let cluster = fetch_cluster [ ("r1", 0); ("r2", 5) ] 5 in
  Alcotest.check attempt "half rounds down" (`Miss 2)
    (fetch_at cluster Rights.Rights "r1").Rights.attempt;
  Alcotest.(check int) "r2 keeps three" 3 (rights cluster "r2")

let test_fetch_stockout () =
  let cluster = fetch_cluster [ ("r2", 1) ] 1 in
  Alcotest.check attempt "r2 spends the last" `Hit
    (fetch_at cluster Rights.Rights "r2").Rights.attempt;
  let committed () =
    List.map
      (fun (r : Replica.t) -> r.Replica.committed)
      cluster.Cluster.replicas
  in
  let before = committed () in
  let f = fetch_at cluster Rights.Rights "r1" in
  Alcotest.check attempt "global stock-out" (`Miss 0) f.Rights.attempt;
  Alcotest.(check bool) "no batch" true (f.Rights.batch = None);
  Alcotest.(check int) "still one rtt" 1 (Escrow.outcome f).Config.extra_rtts;
  Alcotest.(check (list int)) "nothing committed anywhere" before (committed ())

let test_fetch_headroom () =
  (* a capped counter at 0 of 6, all headroom at r2 *)
  let cluster =
    fetch_cluster ~cap:6 ~hshares:[ ("r2", 6) ] [ ("r1", 0) ] 0
  in
  let headroom r = Bcounter.local_headroom (bc cluster r) r in
  let f = fetch_at cluster Rights.Headroom "r1" in
  Alcotest.check attempt "half of r2's headroom" (`Miss 3) f.Rights.attempt;
  Alcotest.(check (list int)) "moved by Hmove, one spent" [ 2; 3; 0 ]
    (List.map headroom [ "r1"; "r2"; "r3" ]);
  Alcotest.(check int) "incremented" 1 (Bcounter.value (bc cluster "r3"));
  Alcotest.(check int) "no rights moved" 0 (rights cluster "r2");
  Alcotest.check attempt "hit" `Hit
    (fetch_at cluster Rights.Headroom "r2").Rights.attempt

(* the lender still has a batch in flight to the requester: the grant
   must not wait behind it in the requester's pending buffer *)
let test_fetch_catches_up_from_peer () =
  let cluster = fetch_cluster [ ("r1", 0); ("r2", 4) ] 4 in
  let r1 = Cluster.replica cluster "r1" in
  ignore (Testutil.counter_delta (Cluster.replica cluster "r2") 1 : Replica.batch)
  (* never delivered *);
  let f = fetch_at cluster Rights.Rights "r1" in
  Alcotest.check attempt "half of r2's" (`Miss 2) f.Rights.attempt;
  Alcotest.(check bool) "retry committed" true (f.Rights.batch <> None);
  Alcotest.(check (list int)) "r1 spent one of two" [ 1; 2 ]
    (List.map (rights cluster) [ "r1"; "r2" ]);
  Alcotest.(check int) "r1 took r2's batch on the way" 1
    (Testutil.counter_value r1);
  Alcotest.(check int) "nothing buffered at r1" 0
    (Replica.pending_count r1)

(* the piggyback path through a whole run: every right starts at dc-east
   while all demand comes from us-west, and the managers tick from the
   anti-entropy rounds of a [Driver.run_stream] run *)
let test_escrow_piggyback_run () =
  let _, cfg, cluster = Testutil.make_faulty ~seed:1 Net.no_faults in
  let east = Cluster.replica cluster "dc-east" in
  let tx = Txn.begin_ east in
  ignore (Txn.get tx "k" Obj.T_bcounter);
  List.iter
    (fun op -> Txn.update tx "k" (Obj.Op_bcounter op))
    (Escrow.seed ~shares:[ ("dc-east", 60) ] ~value:60 ());
  Cluster.broadcast_now cluster (Option.get (Txn.commit tx));
  let mgrs = Hashtbl.create 3 in
  List.iter
    (fun (r : Replica.t) ->
      Hashtbl.replace mgrs r.Replica.id (Escrow.create ~rep:r.Replica.id ()))
    cluster.Cluster.replicas;
  Escrow.piggyback cfg ~manager:(Hashtbl.find mgrs) ~keys:[ "k" ];
  (* a buyer notes its demand and spends a unit only if its replica
     holds one: no reactive fetch, so every Transfer is a migration *)
  let buy : Config.op_exec =
    {
      Config.op_name = "buy";
      is_update = true;
      reservations = [];
      run =
        (fun rep ->
          Escrow.note_dec (Hashtbl.find mgrs rep.Replica.id) ~key:"k" 1;
          let tx = Txn.begin_ rep in
          let c = Obj.as_bcounter (Txn.get tx "k" Obj.T_bcounter) in
          if Bcounter.local_rights c rep.Replica.id > 0 then
            Txn.update tx "k"
              (Obj.Op_bcounter (Bcounter.prepare_dec c ~rep:rep.Replica.id 1));
          Config.outcome (Txn.commit tx));
    }
  in
  let events =
    Workload.open_loop ~rng:(Rng.create 7) ~rate_per_s:20.0
      ~horizon_ms:4_000.0 (Workload.zipf 1)
  in
  let m = Driver.run_stream cfg ~events ~op_of:(fun _ -> ("us-west", buy)) in
  let e = m.Metrics.escrow in
  Alcotest.(check bool) "migrations counted" true (e.Metrics.migrations > 0);
  let transferred =
    List.fold_left
      (fun acc (r : Replica.t) ->
        Replica.log_after r ~origin:r.Replica.id ~known:0
        |> List.concat_map (fun (b : Replica.batch) -> b.Replica.b_updates)
        |> List.fold_left
             (fun acc -> function
               | _, Obj.Op_bcounter (Bcounter.Transfer { n; _ }) -> acc + n
               | _ -> acc)
             acc)
      0 cluster.Cluster.replicas
  in
  Alcotest.(check int) "migrated rights = committed Transfer units"
    transferred e.Metrics.migrated_rights;
  let view r = Obj.as_bcounter (Option.get (Replica.peek r "k")) in
  Alcotest.(check bool) "us-west sold migrated units" true
    (Bcounter.quick_value (view east) < 60);
  List.iter
    (fun (r : Replica.t) ->
      Alcotest.(check (option string))
        (r.Replica.id ^ " audit clean") None
        (Bcounter.audit (view r)))
    cluster.Cluster.replicas

(* ------------------------------------------------------------------ *)
(* Consistency-typed reads                                             *)
(* ------------------------------------------------------------------ *)

let test_bound_empty_history () =
  let _, cfg, _ = make Config.Local in
  List.iter
    (fun staleness_ms ->
      Alcotest.(check bool)
        (Fmt.str "budget %g: empty bound" staleness_ms)
        true
        (Vclock.equal Vclock.empty (Config.bound_clock cfg ~staleness_ms)))
    [ 0.0; 1000.0 ]

let test_bound_zero_is_committed () =
  let engine, cfg, cluster = make Config.Local in
  List.iter
    (fun region -> ignore (execute_sync engine cfg ~region (incr_op ())))
    [ "us-east"; "us-west"; "us-east" ];
  Alcotest.(check bool) "budget 0 = the current committed clock" true
    (Vclock.equal (Read.bound cluster Read.Strong)
       (Config.bound_clock cfg ~staleness_ms:0.0))

let test_bound_past_history () =
  let engine, cfg, _ = make Config.Local in
  let afters = ref [] in
  let commit () =
    match
      (snd (execute_sync engine cfg ~region:"us-east" (incr_op ())))
        .Config.batch
    with
    | Some b -> afters := b.Replica.b_after :: !afters
    | None -> Alcotest.fail "increment did not commit"
  in
  let before_everything () =
    Config.bound_clock cfg ~staleness_ms:(Engine.now engine +. 1.0)
  in
  for _ = 2 to Read.history_capacity do
    commit ()
  done;
  Alcotest.(check bool) "whole history kept: nothing committed before"
    true
    (Vclock.equal Vclock.empty (before_everything ()));
  commit ();
  commit ();
  (* the first checkpoint is evicted: the oldest retained one is the
     second commit's clock, stricter than the budget asked for *)
  let second = List.nth (List.rev !afters) 1 in
  Alcotest.(check bool) "past the ring: the oldest retained checkpoint" true
    (Vclock.equal second (before_everything ()))

(* A Local-mode runtime whose links are all cut for the whole test, so
   commits stay where they ran; [writers] each commit one increment at
   time 0. *)
let scripted_reads ~(writers : string list) =
  let engine = Engine.create () in
  let cut = { Net.parts = ([], []); from_ms = 0.0; until_ms = 1e9 } in
  let net =
    Testutil.faulty_net ~seed:1
      ~partitions:
        [
          { cut with Net.parts = ([ "us-west" ], [ "us-east"; "eu-west" ]) };
          { cut with Net.parts = ([ "us-east" ], [ "eu-west" ]) };
        ]
      ()
  in
  let cluster = Cluster.create Testutil.regions in
  let cfg = Config.create ~mode:Config.Local ~engine ~net ~cluster () in
  List.iter
    (fun region ->
      Config.execute cfg ~client_region:region (incr_op ())
        ~complete:(fun _ _ -> ()))
    writers;
  (engine, cfg, cluster)

(* one read of "ctr" through [Config.execute_read]: (latency, value,
   serving replica), after draining the engine *)
let read_at engine cfg ~region level =
  let served = ref "" and value = ref (-1) and lat = ref (-1.0) in
  let op =
    {
      (read_op ()) with
      Config.run =
        (fun rep ->
          served := rep.Replica.id;
          value := counter_value rep;
          Config.outcome None);
    }
  in
  Config.execute_read cfg ~client_region:region ~level op
    ~complete:(fun l _ -> lat := l);
  Engine.run engine;
  (!lat, !value, !served)

let test_strong_is_bounded_zero () =
  List.iter
    (fun (writers, want) ->
      let read level =
        let engine, cfg, _ = scripted_reads ~writers in
        read_at engine cfg ~region:"us-west" level
      in
      let ((lat, value, served) as strong) = read Config.RL_strong in
      Alcotest.(check (triple (float 1e-9) int string))
        (Fmt.str "%d writers: strong = bounded@0" (List.length writers))
        (read (Config.RL_bounded 0.0))
        strong;
      Alcotest.(check int) "reflects every commit" (List.length writers) value;
      Alcotest.(check string) "serving replica" want served;
      Alcotest.(check bool) "pays a WAN round-trip" true (lat > 80.0))
    [ ([ "us-east" ], "dc-east"); ([ "us-east"; "eu-west" ], "dc-west") ]

let test_bounded_forwards_nearest () =
  let engine, cfg, cluster = scripted_reads ~writers:[ "us-east" ] in
  (* eu covers the bound too, but it is twice as far from us-west *)
  let east = Cluster.replica cluster "dc-east" in
  Replica.receive
    (Cluster.replica cluster "dc-eu")
    (List.hd (Replica.log_after east ~origin:"dc-east" ~known:0));
  let lat, _, served =
    read_at engine cfg ~region:"us-west" (Config.RL_bounded 0.0)
  in
  Alcotest.(check string) "nearest covering replica" "dc-east" served;
  Alcotest.(check bool) "one 80 ms round-trip" true (lat > 80.0 && lat < 160.0);
  Config.fail_region cfg "us-east" ~for_ms:10_000.0;
  let lat, value, served =
    read_at engine cfg ~region:"us-west" (Config.RL_bounded 0.0)
  in
  Alcotest.(check string) "a failed region is skipped" "dc-eu" served;
  Alcotest.(check int) "the forwarded read covers the bound" 1 value;
  Alcotest.(check bool) "one 160 ms round-trip" true (lat > 160.0)

let test_barrier_catches_up_exec_only () =
  let engine, cfg, cluster =
    scripted_reads ~writers:[ "us-east"; "eu-west" ]
  in
  let clock id = (Cluster.replica cluster id).Replica.vv in
  let east = clock "dc-east" and eu = clock "dc-eu" in
  let bound = Config.bound_clock cfg ~staleness_ms:0.0 in
  let lat, value, served =
    read_at engine cfg ~region:"us-west" Config.RL_strong
  in
  Alcotest.(check string) "served at the exec replica" "dc-west" served;
  Alcotest.(check int) "after catching up" 2 value;
  Alcotest.(check bool) "the exec replica covers the bound" true
    (Read.covers (Cluster.replica cluster "dc-west") bound);
  Alcotest.(check bool) "the other replicas are unchanged" true
    (Vclock.equal east (clock "dc-east") && Vclock.equal eu (clock "dc-eu"));
  Alcotest.(check bool) "pays the 160 ms barrier" true (lat > 160.0)

(* ------------------------------------------------------------------ *)
(* Committed benchmark artifacts                                       *)
(* ------------------------------------------------------------------ *)

(* every committed BENCH_*.json (copied next to this directory by the
   tests' [deps]) must be a full run: [--quick] smoke runs write under
   _build/bench/ and must never replace one *)
let test_committed_bench_full () =
  let root = Filename.parent_dir_name in
  let files =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "committed BENCH_*.json files found" true (files <> []);
  List.iter
    (fun f ->
      let header =
        In_channel.with_open_text (Filename.concat root f) In_channel.input_line
      in
      let full =
        match header with
        | Some h -> Astring.String.is_infix ~affix:{|"quick":false|} h
        | None -> false
      in
      Alcotest.(check bool) (f ^ " is a full run (\"quick\":false)") true full)
    files

let () =
  Alcotest.run "ipa_runtime"
    [
      ( "local",
        [
          Alcotest.test_case "executes and replicates" `Quick
            test_local_executes_and_replicates;
          Alcotest.test_case "region independent" `Quick
            test_local_latency_independent_of_region;
        ] );
      ( "strong",
        [
          Alcotest.test_case "remote write pays rtt" `Quick
            test_strong_remote_write_pays_rtt;
          Alcotest.test_case "primary write local" `Quick
            test_strong_primary_write_is_local;
          Alcotest.test_case "read local" `Quick test_strong_read_is_local;
          Alcotest.test_case "write lands at primary" `Quick
            test_strong_write_lands_at_primary;
        ] );
      ( "indigo",
        [
          Alcotest.test_case "first use local" `Quick
            test_indigo_first_use_is_local;
          Alcotest.test_case "exclusive migration" `Quick
            test_indigo_exclusive_migration_pays_rtt;
          Alcotest.test_case "shared stays" `Quick
            test_indigo_shared_reservations_stay;
          Alcotest.test_case "exclusive revokes shares" `Quick
            test_indigo_exclusive_revokes_shares;
          Testutil.to_alcotest ~default:0 prop_reservations_are_rights;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "routes flagged ops" `Quick
            test_hybrid_routes_flagged_ops;
          Alcotest.test_case "forces exclusive" `Quick
            test_hybrid_forces_exclusive;
        ] );
      ( "failures",
        [
          Alcotest.test_case "local reroutes" `Quick test_fail_local_reroutes;
          Alcotest.test_case "strong primary down" `Quick
            test_fail_strong_primary_down;
          Alcotest.test_case "indigo holder down" `Quick
            test_fail_indigo_holder_down;
          Alcotest.test_case "recovery" `Quick test_fail_recovery;
        ] );
      ( "service model",
        [
          Alcotest.test_case "scales with updates" `Quick
            test_service_scales_with_updates;
          Alcotest.test_case "queueing under load" `Quick
            test_queueing_under_load;
        ] );
      ( "driver",
        [
          Alcotest.test_case "closed loop" `Quick test_driver_closed_loop;
          Alcotest.test_case "only region" `Quick test_driver_only_region;
          Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
          Alcotest.test_case "replicas converge" `Quick
            test_driver_replicas_converge;
        ] );
      ( "faulty network",
        [
          Testutil.seeded_case "loss + duplication" `Quick ~default:31
            test_converges_under_loss_and_duplication;
          Testutil.seeded_case "partition heals" `Quick ~default:37
            test_converges_across_partition;
          Testutil.seeded_case "deterministic" `Quick ~default:41
            test_faulty_run_deterministic;
          Testutil.seeded_case "delivery metrics" `Quick ~default:43
            test_delivery_metrics_populated;
        ] );
      ( "escrow",
        [
          Alcotest.test_case "seed placement" `Quick
            test_escrow_seed_placement;
          Alcotest.test_case "seed capped" `Quick test_escrow_seed_capped;
          Alcotest.test_case "tick migrates, hysteresis settles" `Quick
            test_escrow_tick_migration;
          Alcotest.test_case "forecast prewarms" `Quick
            test_escrow_forecast_prewarm;
          Alcotest.test_case "demand publication" `Quick
            test_escrow_publishes_demand;
          Alcotest.test_case "fetch: richest peer, first on ties" `Quick
            test_fetch_richest_peer;
          Alcotest.test_case "fetch: half, at least one" `Quick
            test_fetch_half_min_one;
          Alcotest.test_case "fetch: stock-out commits nothing" `Quick
            test_fetch_stockout;
          Alcotest.test_case "fetch: headroom via Hmove" `Quick
            test_fetch_headroom;
          Alcotest.test_case "fetch: grant from a peer with batches in flight"
            `Quick test_fetch_catches_up_from_peer;
          Alcotest.test_case "piggyback: migrations counted in the run"
            `Quick test_escrow_piggyback_run;
        ] );
      ( "reads",
        [
          Alcotest.test_case "empty history: empty bound" `Quick
            test_bound_empty_history;
          Alcotest.test_case "budget 0: committed clock" `Quick
            test_bound_zero_is_committed;
          Alcotest.test_case "past the ring: oldest kept" `Quick
            test_bound_past_history;
          Alcotest.test_case "strong = bounded@0" `Quick
            test_strong_is_bounded_zero;
          Alcotest.test_case "forwards to nearest cover" `Quick
            test_bounded_forwards_nearest;
          Alcotest.test_case "barrier: exec replica only" `Quick
            test_barrier_catches_up_exec_only;
        ] );
      ( "bench outputs",
        [
          Alcotest.test_case "committed runs are full" `Quick
            test_committed_bench_full;
        ] );
    ]
