(** Tests for [ipa_store]: replicas, causal delivery, highly-available
    transactions, and cross-replica convergence. *)

open Ipa_crdt
open Ipa_store

(* cluster + transaction helpers shared with the other suites *)
let three = Testutil.three
let add_to = Testutil.add_to
let remove_from = Testutil.remove_from
let elements = Testutil.elements

(* ------------------------------------------------------------------ *)
(* Digest oracles                                                      *)
(* ------------------------------------------------------------------ *)

(* The oracle: a set key's member hash sum and count recomputed from its
   sorted elements with this file's own copy of the element hash, and
   the key hash those give.  It shares no code with the replica's
   incremental bookkeeping. *)
let oracle_mix (h : int) : int =
  let h = h lxor (h lsr 30) in
  let h = h * 0xbf58476d1ce4e5b in
  let h = h lxor (h lsr 27) in
  let h = h * 0x94d049bb133111e in
  h lxor (h lsr 31)

let oracle_elt_hash (e : string) : int =
  let h = ref 0x10be64c5701f3d3 in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x100000001b3) e;
  oracle_mix !h

(* (type tag, members) of a set object; [None] for other types *)
let oracle_members (o : Obj.t) : (int * string list) option =
  match o with
  | Obj.O_awset s -> Some (4, Awset.elements s)
  | Obj.O_rwset s -> Some (5, Rwset.elements s)
  | Obj.O_compset s -> Some (6, Compset.raw_elements s)
  | _ -> None

(* [Ok ()] when every set cell of [r] agrees with the oracle: a cell
   whose count is not stale must hold the exact member sum and count;
   with [refreshed], every set cell must also be clean and carry the
   oracle's key hash *)
let check_set_cells ~(refreshed : bool) (r : Replica.t) :
    (unit, string) result =
  let bad = ref None in
  Array.iter
    (fun (sh : Replica.shard) ->
      Hashtbl.iter
        (fun kid (c : Replica.cell) ->
          match oracle_members c.Replica.c_obj with
          | None -> ()
          | Some (tag, elts) ->
              let n = List.length elts in
              let sum =
                List.fold_left (fun acc e -> acc + oracle_elt_hash e) 0 elts
              in
              let h =
                if n = 0 then 0
                else
                  oracle_mix
                    (oracle_mix (sum + n)
                    lxor oracle_mix ((kid * 8) + tag))
              in
              let fail what =
                bad :=
                  Some
                    (Fmt.str "%s key %s: %s" r.Replica.id (Intern.name kid)
                       what)
              in
              if c.Replica.c_n >= 0 && (c.Replica.c_n <> n || c.Replica.c_sum <> sum)
              then fail (Fmt.str "count %d / %d, sum differs" c.Replica.c_n n)
              else if refreshed && c.Replica.c_dirty then fail "still dirty"
              else if refreshed && c.Replica.c_h <> h then fail "key hash")
        sh.Replica.sh_data)
    r.Replica.shards;
  match !bad with None -> Ok () | Some m -> Error m

(* The rolling digests checked against references that share none of
   their code: after [Replica.refresh_digest] every set cell agrees with
   the oracle above, and for every pair of replicas [quick_digest]
   agrees exactly when the full rendering [state_digest] does *)
let check_digests (reps : Replica.t list) : (unit, string) result =
  List.iter Replica.refresh_digest reps;
  let rec pairs = function
    | [] -> []
    | r :: rest -> List.map (fun r' -> (r, r')) rest @ pairs rest
  in
  let disagree ((a : Replica.t), (b : Replica.t)) =
    Replica.quick_digest a = Replica.quick_digest b
    <> (Replica.state_digest a = Replica.state_digest b)
  in
  match
    List.find_map
      (fun r ->
        Result.fold ~ok:(fun () -> None) ~error:Option.some
          (check_set_cells ~refreshed:true r))
      reps
  with
  | Some m -> Error m
  | None -> (
      match List.find_opt disagree (pairs reps) with
      | Some ((a : Replica.t), b) ->
          Error
            (Fmt.str "%s/%s: quick_digest and state_digest disagree"
               a.Replica.id b.Replica.id)
      | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Basic replication                                                   *)
(* ------------------------------------------------------------------ *)

let test_commit_applies_locally () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let _ = add_to east "players" "alice" in
  Alcotest.(check (list string)) "visible locally" [ "alice" ]
    (elements east "players");
  Alcotest.(check (list string)) "not yet remote" []
    (elements (Cluster.replica c "dc-west") "players")

let test_broadcast_delivers () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let b = add_to east "players" "alice" in
  Cluster.broadcast_now c b;
  List.iter
    (fun (r : Replica.t) ->
      Alcotest.(check (list string))
        (r.Replica.id ^ " sees alice")
        [ "alice" ] (elements r "players"))
    c.Cluster.replicas;
  Alcotest.(check bool) "quiescent" true (Cluster.quiescent c)

let test_causal_buffering () =
  (* b2 depends on b1; delivering b2 first must buffer it *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let b1 = add_to east "players" "alice" in
  let b2 = add_to east "players" "bob" in
  Replica.receive west b2;
  Alcotest.(check int) "b2 buffered" 1 (Replica.pending_count west);
  Alcotest.(check (list string)) "nothing applied" [] (elements west "players");
  Replica.receive west b1;
  Alcotest.(check int) "both applied" 0 (Replica.pending_count west);
  Alcotest.(check (list string)) "in order" [ "alice"; "bob" ]
    (elements west "players")

let test_causal_cross_replica () =
  (* west's update causally follows east's; eu receiving west-first must
     wait for east's *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  let b1 = add_to east "players" "alice" in
  Replica.receive west b1;
  let b2 = add_to west "players" "bob" (* b2 deps include east's event *) in
  Replica.receive eu b2;
  Alcotest.(check (list string)) "b2 waits for b1" [] (elements eu "players");
  Replica.receive eu b1;
  Alcotest.(check (list string)) "both arrive" [ "alice"; "bob" ]
    (elements eu "players")

let test_own_batch_ignored () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let b = add_to east "players" "alice" in
  Replica.receive east b;
  Alcotest.(check (list string)) "no duplication" [ "alice" ]
    (elements east "players")

(* ------------------------------------------------------------------ *)
(* Exactly-once delivery                                               *)
(* ------------------------------------------------------------------ *)

let dec_stock (rep : Replica.t) n = Testutil.counter_delta ~key:"stock" rep n
let stock_value (rep : Replica.t) = Testutil.counter_value ~key:"stock" rep

let test_duplicate_batch_not_reapplied () =
  (* regression: a duplicated batch whose deps are satisfied used to be
     silently re-applied, double-counting counter increments *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let b = dec_stock east 10 in
  Replica.receive west b;
  Alcotest.(check int) "applied once" 10 (stock_value west);
  Replica.receive west b;
  Replica.receive west b;
  Alcotest.(check int) "counter unchanged after duplicates" 10
    (stock_value west);
  Alcotest.(check int) "duplicates counted" 2 west.Replica.duplicates_dropped;
  Alcotest.(check int) "applied exactly once" 1 west.Replica.delivered

let test_duplicate_of_pending_dropped () =
  (* a duplicate of a batch still buffered for causal delivery must not
     enter the buffer twice *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let b1 = dec_stock east 5 in
  let b2 = dec_stock east 7 in
  Replica.receive west b2;
  Replica.receive west b2;
  Alcotest.(check int) "buffered once" 1 (Replica.pending_count west);
  Replica.receive west b1;
  Alcotest.(check int) "both applied" 0 (Replica.pending_count west);
  Alcotest.(check int) "value counted once" 12 (stock_value west)

let test_retransmission_after_apply_dropped () =
  (* an anti-entropy retransmission arriving after the original *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let b1 = dec_stock east 1 in
  let b2 = dec_stock east 1 in
  Replica.receive west b1;
  Replica.receive west b2;
  Replica.receive west b1 (* late retransmission of an old batch *);
  Alcotest.(check int) "still 2" 2 (stock_value west)

(* ------------------------------------------------------------------ *)
(* State digests                                                       *)
(* ------------------------------------------------------------------ *)

let test_digest_converged_replicas_equal () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  Cluster.broadcast_now c (add_to east "players" "alice");
  Cluster.broadcast_now c (dec_stock west 3);
  let ds =
    List.map (fun (r : Replica.t) -> Replica.state_digest r) c.Cluster.replicas
  in
  Alcotest.(check bool) "all digests equal" true
    (List.for_all (( = ) (List.hd ds)) ds)

let test_digest_ignores_read_created_objects () =
  (* a replica that merely read a key must digest like one that never
     touched it *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  Cluster.broadcast_now c (add_to east "players" "alice");
  let d_before = Replica.state_digest west in
  ignore (Replica.get west "never-written" Obj.T_awset);
  ignore (Replica.get west "never-written-2" Obj.T_pncounter);
  Alcotest.(check string) "digest unchanged" d_before
    (Replica.state_digest west)

let test_quiescent_detects_state_divergence () =
  (* equal clocks no longer imply equal state once faults exist: force a
     divergence behind the clocks' back and check quiescent sees it *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  Cluster.broadcast_now c (dec_stock east 10);
  Alcotest.(check bool) "quiescent when converged" true (Cluster.quiescent c);
  let west = Cluster.replica c "dc-west" in
  (* simulate a double-applied increment: same clock, different state *)
  (match Replica.peek west "stock" with
  | Some (Obj.O_pncounter ctr) ->
      Replica.apply_update west
        ("stock", Obj.Op_pncounter (Pncounter.prepare ctr ~rep:"dc-east" 10))
  | _ -> Alcotest.fail "stock missing");
  Alcotest.(check bool) "divergence detected despite equal clocks" false
    (Cluster.quiescent c)

(* ------------------------------------------------------------------ *)
(* Anti-entropy                                                        *)
(* ------------------------------------------------------------------ *)

let direct_send = Testutil.direct_send

let test_sync_recovers_lost_batch () =
  (* b1 is lost; b2 buffers behind the gap forever without anti-entropy *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let _b1 = dec_stock east 5 in
  let b2 = dec_stock east 7 in
  Replica.receive west b2 (* b1 never arrives *);
  Alcotest.(check int) "wedged behind the gap" 1 (Replica.pending_count west);
  let s = Sync.create ~base_backoff_ms:100.0 c in
  (* first round only starts the grace period for the missing batches *)
  ignore (Sync.round s ~now:0.0 ~send:direct_send);
  let n = Sync.round s ~now:200.0 ~send:direct_send in
  Alcotest.(check bool) "retransmitted something" true (n > 0);
  Alcotest.(check int) "gap closed" 0 (Replica.pending_count west);
  Alcotest.(check int) "both applied exactly once" 12 (stock_value west);
  Alcotest.(check bool) "cluster converges" true
    (let eu = Cluster.replica c "dc-eu" in
     stock_value eu = 12)

let test_sync_backoff_paces_retransmissions () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let _b = dec_stock east 1 in
  (* a sink that drops everything: the batch stays missing *)
  let drop ~src:_ ~dst:_ _ = () in
  let s = Sync.create ~base_backoff_ms:100.0 ~max_backoff_ms:400.0 c in
  ignore (Sync.round s ~now:0.0 ~send:drop) (* grace period *);
  let r1 = Sync.round s ~now:150.0 ~send:drop in
  Alcotest.(check bool) "due after grace" true (r1 > 0);
  let r2 = Sync.round s ~now:200.0 ~send:drop in
  Alcotest.(check int) "within backoff: no resend" 0 r2;
  let r3 = Sync.round s ~now:300.0 ~send:drop in
  Alcotest.(check bool) "due again after backoff" true (r3 > 0);
  (* backoff doubled to 200, then 400 (cap); it never exceeds the cap *)
  let r4 = Sync.round s ~now:450.0 ~send:drop in
  Alcotest.(check int) "doubled backoff not yet elapsed" 0 r4;
  let r5 = Sync.round s ~now:1_000.0 ~send:drop in
  Alcotest.(check bool) "capped backoff still retries" true (r5 > 0)

let test_sync_backoff_cap_reached () =
  (* base 100 / cap 150: retransmission intervals must go 100, 150,
     150, ... — the doubled backoff is clamped at the cap and never
     grows past it *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let _b = dec_stock east 1 in
  let drop ~src:_ ~dst:_ _ = () in
  let s = Sync.create ~base_backoff_ms:100.0 ~max_backoff_ms:150.0 c in
  ignore (Sync.round s ~now:0.0 ~send:drop) (* grace period *);
  Alcotest.(check bool) "first retransmit after grace" true
    (Sync.round s ~now:100.0 ~send:drop > 0);
  Alcotest.(check int) "silent inside the base interval" 0
    (Sync.round s ~now:199.0 ~send:drop);
  Alcotest.(check bool) "second retransmit at +100" true
    (Sync.round s ~now:200.0 ~send:drop > 0);
  (* the doubled backoff (200) was clamped to the 150 cap *)
  Alcotest.(check int) "capped: silent at +149" 0
    (Sync.round s ~now:349.0 ~send:drop);
  Alcotest.(check bool) "due at the cap" true
    (Sync.round s ~now:350.0 ~send:drop > 0);
  (* and the interval stays at the cap from here on *)
  Alcotest.(check int) "still silent inside the capped interval" 0
    (Sync.round s ~now:499.0 ~send:drop);
  Alcotest.(check bool) "due again one cap later" true
    (Sync.round s ~now:500.0 ~send:drop > 0)

let test_sync_gap_closed_mid_backoff () =
  (* the batch was missing when the grace period started, but arrives
     through the normal path before the backoff elapses: the next round
     must retransmit nothing *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  let b = dec_stock east 1 in
  let drop ~src:_ ~dst:_ _ = () in
  let s = Sync.create ~base_backoff_ms:100.0 c in
  ignore (Sync.round s ~now:0.0 ~send:drop) (* grace period opens *);
  Replica.receive west b;
  Replica.receive eu b (* gap closes mid-backoff *);
  Alcotest.(check int) "nothing to resend once the gap closed" 0
    (Sync.round s ~now:200.0 ~send:drop);
  Alcotest.(check int) "batch applied exactly once" 1 (stock_value west);
  Alcotest.(check bool) "cluster quiescent" true (Cluster.quiescent c)

let test_sync_noop_when_converged () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  Cluster.broadcast_now c (dec_stock east 5);
  let s = Sync.create c in
  ignore (Sync.round s ~now:0.0 ~send:direct_send);
  let n = Sync.round s ~now:10_000.0 ~send:direct_send in
  Alcotest.(check int) "nothing to retransmit" 0 n

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let test_txn_read_your_writes () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let tx = Txn.begin_ east in
  let s = Obj.as_awset (Txn.get tx "players" Obj.T_awset) in
  Txn.update tx "players"
    (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) "alice"));
  (* the transaction sees its own buffered write *)
  let s' = Obj.as_awset (Txn.get tx "players" Obj.T_awset) in
  Alcotest.(check bool) "read your writes" true (Awset.mem "alice" s');
  (* but the replica does not, until commit *)
  Alcotest.(check (list string)) "not visible outside" []
    (elements east "players");
  ignore (Txn.commit tx);
  Alcotest.(check (list string)) "visible after commit" [ "alice" ]
    (elements east "players")

let test_txn_atomic_batch () =
  (* a two-update transaction is applied atomically at remote replicas *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let tx = Txn.begin_ east in
  let s = Obj.as_awset (Txn.get tx "players" Obj.T_awset) in
  Txn.update tx "players"
    (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) "alice"));
  let t = Obj.as_awset (Txn.get tx "tournaments" Obj.T_awset) in
  Txn.update tx "tournaments"
    (Obj.Op_awset (Awset.prepare_add t ~dot:(Txn.fresh_dot tx) "cup"));
  let b = Option.get (Txn.commit tx) in
  Alcotest.(check int) "two updates in batch" 2 (List.length b.Replica.b_updates);
  Replica.receive west b;
  Alcotest.(check (list string)) "players" [ "alice" ] (elements west "players");
  Alcotest.(check (list string)) "tournaments" [ "cup" ]
    (elements west "tournaments")

let test_txn_readonly_no_batch () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let tx = Txn.begin_ east in
  let _ = Txn.get tx "players" Obj.T_awset in
  Alcotest.(check bool) "read-only commits to nothing" true
    (Txn.commit tx = None)

let test_txn_counts () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let tx = Txn.begin_ east in
  let s = Obj.as_awset (Txn.get tx "k1" Obj.T_awset) in
  Txn.update tx "k1"
    (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) "a"));
  Txn.update tx "k1"
    (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) "b"));
  Txn.update tx "k2"
    (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) "c"));
  Alcotest.(check int) "update count" 3 (Txn.update_count tx);
  Alcotest.(check int) "distinct keys" 2 (Txn.keys_written tx);
  ignore (Txn.commit tx)

let test_txn_repeated_read_modify_write () =
  (* 1,000 get+increment rounds on one key: each read sees every earlier
     increment, and the commit is the batch a transaction buffering the
     same increments without reading commits *)
  let commit_increments ~read =
    let east = Cluster.replica (three ()) "dc-east" in
    let tx = Txn.begin_ east in
    let value () =
      Pncounter.value (Obj.as_pncounter (Txn.get tx "ctr" Obj.T_pncounter))
    in
    for i = 1 to 1000 do
      if read then
        Alcotest.(check int) "reads every earlier increment" (i - 1) (value ());
      Txn.update tx "ctr"
        (Obj.Op_pncounter (Pncounter.prepare Pncounter.empty ~rep:"dc-east" 1))
    done;
    let v = value () in
    (v, Option.get (Txn.commit tx))
  in
  let v, b = commit_increments ~read:true in
  Alcotest.(check int) "reads back 1,000" 1000 v;
  Alcotest.(check bool) "same batch as the write-only transaction" true
    (b = snd (commit_increments ~read:false))

let test_txn_set_view_matches_replay () =
  (* interleaved adds and removes on a read set key: after every write
     the transaction's view equals the replay of its buffered ops *)
  let east = Cluster.replica (three ()) "dc-east" in
  let tx = Txn.begin_ east in
  let view () = Obj.as_awset (Txn.get tx "k" Obj.T_awset) in
  let ops = ref [] in
  List.iteri
    (fun i x ->
      let s = view () in
      let op =
        if i mod 3 = 2 then Awset.prepare_remove s x
        else Awset.prepare_add s ~dot:(Txn.fresh_dot tx) x
      in
      Txn.update tx "k" (Obj.Op_awset op);
      ops := op :: !ops;
      Alcotest.(check (list string)) "view = replay"
        (Awset.elements (List.fold_left Awset.apply Awset.empty (List.rev !ops)))
        (Awset.elements (view ())))
    [ "a"; "b"; "a"; "c"; "d"; "c"; "a"; "e"; "b"; "b" ]

let test_txn_double_commit_rejected () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let tx = Txn.begin_ east in
  ignore (Txn.commit tx);
  match Txn.commit tx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double commit must be rejected"

(* ------------------------------------------------------------------ *)
(* Conflict resolution through the store                               *)
(* ------------------------------------------------------------------ *)

let test_concurrent_add_remove_add_wins () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  (* both start from a synced state containing alice *)
  let b0 = add_to east "players" "alice" in
  Cluster.broadcast_now c b0;
  (* concurrently: east removes alice, west re-adds alice *)
  let b_rm = remove_from east "players" "alice" in
  let b_add = add_to west "players" "alice" in
  Cluster.broadcast_now c b_rm;
  Cluster.broadcast_now c b_add;
  List.iter
    (fun (r : Replica.t) ->
      Alcotest.(check (list string))
        (r.Replica.id ^ " add wins")
        [ "alice" ] (elements r "players"))
    c.Cluster.replicas

let test_concurrent_counter () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let dec (rep : Replica.t) n =
    let tx = Txn.begin_ rep in
    let ctr = Obj.as_pncounter (Txn.get tx "stock" Obj.T_pncounter) in
    Txn.update tx "stock"
      (Obj.Op_pncounter (Pncounter.prepare ctr ~rep:rep.Replica.id n));
    Option.get (Txn.commit tx)
  in
  let b1 = dec east 10 in
  Cluster.broadcast_now c b1;
  let b2 = dec east (-3) and b3 = dec west (-4) in
  Cluster.broadcast_now c b2;
  Cluster.broadcast_now c b3;
  List.iter
    (fun (r : Replica.t) ->
      let v = Pncounter.value (Obj.as_pncounter (Option.get (Replica.peek r "stock"))) in
      Alcotest.(check int) (r.Replica.id ^ " counter") 3 v)
    c.Cluster.replicas

(* ------------------------------------------------------------------ *)
(* Causal stability and garbage collection                             *)
(* ------------------------------------------------------------------ *)

let test_stability_cut_advances () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  (* before any cross-replica traffic, nothing is stable *)
  Alcotest.(check int) "initially nothing stable" 0
    (Vclock.total (Replica.stable_vv east));
  let b = add_to east "players" "alice" in
  Cluster.broadcast_now c b;
  (* east has not heard back: its event is not yet known-stable *)
  Alcotest.(check int) "not stable before acks" 0
    (Vclock.total (Replica.stable_vv east));
  (* the other replicas send batches whose clocks include east's event *)
  let b2 = add_to (Cluster.replica c "dc-west") "players" "bob" in
  let b3 = add_to (Cluster.replica c "dc-eu") "players" "carol" in
  Cluster.broadcast_now c b2;
  Cluster.broadcast_now c b3;
  let stable = Replica.stable_vv east in
  Alcotest.(check int) "east's event now stable" 1 (Vclock.get stable "dc-east")

let test_gc_reclaims_rwset_barriers () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  let rw_op (rep : Replica.t) f =
    let tx = Txn.begin_ rep in
    let s = Obj.as_rwset (Txn.get tx "active" Obj.T_rwset) in
    f tx s;
    Option.get (Txn.commit tx)
  in
  let add rep e =
    rw_op rep (fun tx s ->
        Txn.update tx "active"
          (Obj.Op_rwset
             (Rwset.prepare_add s ~dot:(Txn.fresh_dot tx)
                ~vv:(Txn.current_vv tx) e)))
  in
  let remove rep e =
    rw_op rep (fun tx s ->
        Txn.update tx "active"
          (Obj.Op_rwset (Rwset.prepare_remove s ~vv:(Txn.fresh_vv tx) e)))
  in
  Cluster.broadcast_now c (add east "t1");
  Cluster.broadcast_now c (remove east "t1");
  (* traffic from everyone so the removes become stable at east *)
  Cluster.broadcast_now c (add west "t2");
  Cluster.broadcast_now c (add eu "t3");
  Cluster.broadcast_now c (add west "t4");
  Cluster.broadcast_now c (add eu "t5");
  let before =
    Rwset.metadata_size (Obj.as_rwset (Option.get (Replica.peek east "active")))
  in
  let reclaimed = Replica.gc east in
  let after =
    Rwset.metadata_size (Obj.as_rwset (Option.get (Replica.peek east "active")))
  in
  Alcotest.(check bool) "metadata reclaimed" true (reclaimed > 0);
  Alcotest.(check int) "size accounting" (before - reclaimed) after;
  (* semantics unchanged *)
  let s = Obj.as_rwset (Option.get (Replica.peek east "active")) in
  Alcotest.(check bool) "t1 still removed" false (Rwset.mem "t1" s);
  Alcotest.(check bool) "t2 still present" true (Rwset.mem "t2" s)

let test_gc_preserves_unstable_state () =
  (* a remove that is NOT yet stable must survive GC so a concurrent
     in-flight add still loses to it *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let tx = Txn.begin_ east in
  let s = Obj.as_rwset (Txn.get tx "k" Obj.T_rwset) in
  Txn.update tx "k"
    (Obj.Op_rwset (Rwset.prepare_remove s ~vv:(Txn.fresh_vv tx) "x"));
  let b_rm = Option.get (Txn.commit tx) in
  (* concurrent add at west (has not seen the remove) *)
  let tx2 = Txn.begin_ west in
  let s2 = Obj.as_rwset (Txn.get tx2 "k" Obj.T_rwset) in
  Txn.update tx2 "k"
    (Obj.Op_rwset
       (Rwset.prepare_add s2 ~dot:(Txn.fresh_dot tx2) ~vv:(Txn.current_vv tx2)
          "x"));
  let b_add = Option.get (Txn.commit tx2) in
  (* east GCs before the add arrives: the unstable barrier must remain *)
  let _ = Replica.gc east in
  Replica.receive east b_add;
  Replica.receive west b_rm;
  let s_east = Obj.as_rwset (Option.get (Replica.peek east "k")) in
  Alcotest.(check bool) "remove still wins after gc" false
    (Rwset.mem "x" s_east)

let test_gc_awset_payload () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  (* add with payload, then remove; make both stable via peer traffic *)
  let tx = Txn.begin_ east in
  let s = Obj.as_awset (Txn.get tx "players" Obj.T_awset) in
  Txn.update tx "players"
    (Obj.Op_awset
       (Awset.prepare_add ~payload:"data" s ~dot:(Txn.fresh_dot tx) "alice"));
  Cluster.broadcast_now c (Option.get (Txn.commit tx));
  Cluster.broadcast_now c (remove_from east "players" "alice");
  Cluster.broadcast_now c (add_to west "players" "bob");
  Cluster.broadcast_now c (add_to eu "players" "carol");
  let before =
    Awset.metadata_size (Obj.as_awset (Option.get (Replica.peek east "players")))
  in
  let _ = Replica.gc east in
  let after =
    Awset.metadata_size (Obj.as_awset (Option.get (Replica.peek east "players")))
  in
  Alcotest.(check bool) "tombstone entry reclaimed" true (after < before);
  let s = Obj.as_awset (Option.get (Replica.peek east "players")) in
  Alcotest.(check bool) "members unchanged" true
    (Awset.elements s = [ "bob"; "carol" ])

(* ------------------------------------------------------------------ *)
(* Remote-first creation of compensation objects                       *)
(* ------------------------------------------------------------------ *)

let test_remote_first_compset_bounds () =
  (* regression: a compset created by a remote effect (before any local
     access) used to get the sentinel bound max_int, silently disabling
     the size invariant until the first local access *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let add e =
    let tx = Txn.begin_ east in
    let s =
      Obj.as_compset (Txn.get tx "vip" (Obj.T_compset { max_size = 1 }))
    in
    Txn.update tx "vip"
      (Obj.Op_compset (Compset.prepare_add s ~dot:(Txn.fresh_dot tx) e));
    Option.get (Txn.commit tx)
  in
  Cluster.broadcast_now c (add "a");
  Cluster.broadcast_now c (add "b");
  (* west never accessed the key: the object must carry the real bound *)
  match Replica.peek west "vip" with
  | Some (Obj.O_compset cs) ->
      Alcotest.(check bool) "violation visible at west" true
        (Compset.violated cs);
      let visible, comp = Compset.read cs in
      Alcotest.(check int) "bound enforced on read" 1 (List.length visible);
      Alcotest.(check bool) "compensation generated" true (comp <> [])
  | _ -> Alcotest.fail "compset missing at west"

let test_remote_first_compcounter_bounds () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let tx = Txn.begin_ east in
  let ctr =
    Obj.as_compcounter (Txn.get tx "bal" (Obj.T_compcounter { min_value = 5 }))
  in
  Txn.update tx "bal"
    (Obj.Op_compcounter
       (Compcounter.prepare_delta ctr ~rep:east.Replica.id 3));
  Cluster.broadcast_now c (Option.get (Txn.commit tx));
  match Replica.peek west "bal" with
  | Some (Obj.O_compcounter cc) ->
      (* with the sentinel bound 0 the value 3 would look fine *)
      Alcotest.(check bool) "real bound carried (3 < 5 violates)" true
        (Compcounter.violated cc);
      let v, ops, repaired = Compcounter.read cc ~rep:west.Replica.id in
      Alcotest.(check int) "read repairs to the real bound" 5 v;
      Alcotest.(check int) "two units repaired" 2 repaired;
      Alcotest.(check bool) "compensation ops produced" true (ops <> [])
  | _ -> Alcotest.fail "compcounter missing at west"

(* ------------------------------------------------------------------ *)
(* Stability-based log truncation                                      *)
(* ------------------------------------------------------------------ *)

let test_truncation_retains_unstable_then_drops () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  (* b1 is lost to west; b2 buffers behind the gap there *)
  let b1 = dec_stock east 5 in
  Replica.receive eu b1;
  let b2 = dec_stock east 7 in
  Replica.receive west b2;
  Replica.receive eu b2;
  (* peer traffic so east learns its peers' clocks *)
  Cluster.broadcast_now c (dec_stock west 1);
  Cluster.broadcast_now c (dec_stock eu 1);
  ignore (Replica.gc east);
  (* west has not applied b1: the stability cut pins east's entries at
     zero, so nothing of east's log may be truncated *)
  Alcotest.(check int) "gap batches retained" 2
    (List.length (Replica.log_after east ~origin:"dc-east" ~known:0));
  Alcotest.(check int) "east's unstable prefix pinned" 1
    (Hashtbl.find east.Replica.log "dc-east").Replica.min_seq;
  (* anti-entropy closes the gap *)
  let s = Sync.create ~base_backoff_ms:100.0 c in
  ignore (Sync.round s ~now:0.0 ~send:direct_send);
  ignore (Sync.round s ~now:200.0 ~send:direct_send);
  Alcotest.(check bool) "converged" true (Cluster.quiescent c);
  Alcotest.(check int) "all applied" 14 (stock_value west);
  (* fresh commits from both peers prove they now know east's events *)
  Cluster.broadcast_now c (dec_stock west 1);
  Cluster.broadcast_now c (dec_stock eu 1);
  ignore (Replica.gc east);
  Alcotest.(check bool) "stable prefix truncated" true
    (east.Replica.log_truncated > 0);
  (* conservation: every batch east ever logged (6 commits cluster-wide)
     is either still retained or was truncated as stable *)
  Alcotest.(check int) "retained + truncated = all batches" 6
    (east.Replica.log_size + east.Replica.log_truncated);
  Alcotest.(check bool) "high-water mark bounds retained log" true
    (east.Replica.log_size <= east.Replica.log_hwm);
  (* truncation must not disturb a converged cluster *)
  Alcotest.(check bool) "still quiescent" true (Cluster.quiescent c);
  Alcotest.(check int) "sync has nothing to resend" 0
    (Sync.round s ~now:10_000.0 ~send:direct_send)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

let test_snapshot_restore_roundtrip () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  Cluster.broadcast_now c (add_to east "players" "alice");
  Cluster.broadcast_now c (dec_stock west 3);
  let digests0 =
    List.map (fun (r : Replica.t) -> Replica.state_digest r) c.Cluster.replicas
  in
  let snap = Cluster.snapshot c in
  (* diverge well past the snapshot point *)
  Cluster.broadcast_now c (add_to east "players" "bob");
  Cluster.broadcast_now c (remove_from west "players" "alice");
  Cluster.broadcast_now c (dec_stock east 7);
  Alcotest.(check bool) "state moved on" true
    (Replica.state_digest east <> List.hd digests0);
  Cluster.restore c snap;
  Alcotest.(check (list string)) "restored digests identical" digests0
    (List.map
       (fun (r : Replica.t) -> Replica.state_digest r)
       c.Cluster.replicas);
  Alcotest.(check (list string)) "restored membership" [ "alice" ]
    (elements east "players");
  Alcotest.(check int) "restored counter" 3 (stock_value west);
  Alcotest.(check bool) "restored cluster quiescent" true (Cluster.quiescent c)

let test_snapshot_restore_replica_still_works () =
  (* a restored replica must keep functioning: fresh commits replicate
     and the incremental digests stay coherent with the oracles *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  Cluster.broadcast_now c (add_to east "players" "alice");
  let snap = Cluster.snapshot c in
  Cluster.broadcast_now c (add_to east "players" "bob");
  Cluster.restore c snap;
  Cluster.broadcast_now c (add_to east "players" "carol");
  List.iter
    (fun (r : Replica.t) ->
      Alcotest.(check (list string))
        (r.Replica.id ^ " sees post-restore commit")
        [ "alice"; "carol" ] (elements r "players"))
    c.Cluster.replicas;
  Alcotest.(check (result unit string)) "incremental digests coherent"
    (Ok ()) (check_digests c.Cluster.replicas);
  Alcotest.(check bool) "quiescent after restore + commit" true
    (Cluster.quiescent c)

(* ------------------------------------------------------------------ *)
(* Sharding and the digest tree                                        *)
(* ------------------------------------------------------------------ *)

(** One transaction bumping each of [keys] by 1. *)
let inc_keys (rep : Replica.t) (keys : string list) : Replica.batch =
  let tx = Txn.begin_ rep in
  List.iter
    (fun key ->
      let ctr = Obj.as_pncounter (Txn.get tx key Obj.T_pncounter) in
      Txn.update tx key
        (Obj.Op_pncounter (Pncounter.prepare ctr ~rep:rep.Replica.id 1)))
    keys;
  Option.get (Txn.commit tx)

let test_shard_count_invariance () =
  (* the same update stream must digest identically whatever the shard
     count — partitioning is internal layout, never observable state *)
  let run shards =
    let c = Cluster.create ~shards Testutil.regions in
    let reps = Array.of_list c.Cluster.replicas in
    for i = 0 to 39 do
      let rep = reps.(i mod 3) in
      let b =
        if i mod 2 = 0 then
          add_to rep
            (Printf.sprintf "set-%d" (i mod 7))
            (Printf.sprintf "e%d" i)
        else inc_keys rep [ Printf.sprintf "ctr-%d" (i mod 25) ]
      in
      Cluster.broadcast_now c b
    done;
    Alcotest.(check bool)
      (Printf.sprintf "quiescent at %d shards" shards)
      true (Cluster.quiescent c);
    Alcotest.(check (result unit string))
      (Printf.sprintf "digests coherent at %d shards" shards)
      (Ok ()) (check_digests c.Cluster.replicas);
    ( List.map
        (fun (r : Replica.t) -> Replica.state_digest r)
        c.Cluster.replicas,
      List.map (fun (r : Replica.t) -> Replica.quick_digest r) c.Cluster.replicas
    )
  in
  let d1 = run 1 and d4 = run 4 and d16 = run 16 in
  Alcotest.(check bool) "1 and 4 shards digest identically" true (d1 = d4);
  Alcotest.(check bool) "4 and 16 shards digest identically" true (d4 = d16)

let test_digest_tree_descent () =
  let c = Cluster.create ~shards:8 Testutil.regions in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let n_keys = 30 in
  for i = 0 to n_keys - 1 do
    Cluster.broadcast_now c (inc_keys east [ Printf.sprintf "key-%02d" i ])
  done;
  let shards = Replica.shard_count east in
  let d0 = Sync.divergent_keys ~a:east ~b:west in
  Alcotest.(check (list string)) "converged: no divergent keys" []
    d0.Sync.divergent;
  Alcotest.(check bool) "converged descent stops at the shard level" true
    (d0.Sync.nodes_visited <= shards + 1);
  (* commit at east only: the descent must localize exactly those keys
     without hashing the whole keyspace on both sides *)
  let touched = [ "key-03"; "key-07"; "key-11"; "key-19"; "key-23" ] in
  let b = inc_keys east touched in
  let d1 = Sync.divergent_keys ~a:east ~b:west in
  Alcotest.(check (list string)) "exactly the touched keys localized" touched
    (List.sort String.compare d1.Sync.divergent);
  Alcotest.(check bool)
    (Printf.sprintf "descent cheaper than a full scan (%d nodes)"
       d1.Sync.nodes_visited)
    true
    (d1.Sync.nodes_visited < shards + 1 + (2 * n_keys));
  Cluster.broadcast_now c b;
  let d2 = Sync.divergent_keys ~a:east ~b:west in
  Alcotest.(check (list string)) "healed: no divergent keys" []
    d2.Sync.divergent

let test_snapshot_restore_across_shards () =
  List.iter
    (fun shards ->
      let c = Cluster.create ~shards Testutil.regions in
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      for i = 0 to 19 do
        Cluster.broadcast_now c (inc_keys east [ Printf.sprintf "k-%d" i ])
      done;
      Cluster.broadcast_now c (add_to west "roster" "alice");
      let digests0 =
        List.map
          (fun (r : Replica.t) -> Replica.state_digest r)
          c.Cluster.replicas
      in
      let snap = Cluster.snapshot c in
      Cluster.broadcast_now c (inc_keys west [ "k-3"; "k-999" ]);
      Cluster.broadcast_now c (remove_from west "roster" "alice");
      Cluster.restore c snap;
      Alcotest.(check (list string))
        (Printf.sprintf "digests restored at %d shards" shards)
        digests0
        (List.map
           (fun (r : Replica.t) -> Replica.state_digest r)
           c.Cluster.replicas);
      (* the restored cluster keeps working, digests stay coherent *)
      Cluster.broadcast_now c (inc_keys east [ "k-5" ]);
      Alcotest.(check (result unit string))
        (Printf.sprintf "coherent post-restore (%d shards)" shards)
        (Ok ()) (check_digests c.Cluster.replicas);
      Alcotest.(check bool)
        (Printf.sprintf "quiescent after restore at %d shards" shards)
        true (Cluster.quiescent c))
    [ 1; 4; 16 ]

let test_drain_linear_reversed_burst () =
  (* worst case for the pending drain: N batches delivered newest-first,
     so nothing applies until the oldest arrives and the whole buffer
     then drains in one cascade.  The drain must examine O(N) head
     candidates — a full re-scan of the buffer per arrival would be
     ~N²/2 examinations *)
  let n = 60 in
  let c = Cluster.create [ ("dr-a", "us"); ("dr-b", "eu") ] in
  let a = Cluster.replica c "dr-a" in
  let b = Cluster.replica c "dr-b" in
  let batches = List.init n (fun _ -> Testutil.counter_delta ~key:"x" a 1) in
  let scans0 = b.Replica.drain_scans in
  List.iter (Replica.receive b) (List.rev batches);
  Alcotest.(check int) "all applied" 0 (Replica.pending_count b);
  Alcotest.(check int) "value counted once each" n
    (Testutil.counter_value ~key:"x" b);
  let scans = b.Replica.drain_scans - scans0 in
  Alcotest.(check bool)
    (Printf.sprintf "drain scans linear (%d <= %d)" scans ((4 * n) + 16))
    true
    (scans <= (4 * n) + 16)

let test_commit_alloc_independent_of_keyspace () =
  (* regression for the million-key collapse: a commit's allocation must
     not scale with the number of interned keys.  When vector clocks
     indexed the shared intern namespace, a replica id first seen after
     a large population forced every commit to copy a keyspace-width
     clock (>400 KB here) *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  Cluster.broadcast_now c (inc_keys east [ "alloc-probe" ]) (* warm up *);
  for i = 0 to 49_999 do
    ignore (Intern.id (Printf.sprintf "alloc-flood-%d" i))
  done;
  let bytes0 = Gc.allocated_bytes () in
  let b = inc_keys east [ "alloc-probe" ] in
  let allocated = Gc.allocated_bytes () -. bytes0 in
  Cluster.broadcast_now c b;
  Alcotest.(check bool)
    (Printf.sprintf "commit allocation bounded (%.0f bytes)" allocated)
    true
    (allocated < 100_000.0)

(* ------------------------------------------------------------------ *)
(* Durability: WAL crash recovery and the corruption matrix            *)
(* ------------------------------------------------------------------ *)

let wal_ctr = ref 0

(* a directory no previous run left files in (Wal.create mkdirs it) *)
let fresh_wal_dir () =
  let rec go () =
    incr wal_ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ipa-test-wal-%d" !wal_ctr)
    in
    if Sys.file_exists d then go () else d
  in
  go ()

(* a three-replica cluster with a WAL attached to every replica;
   files are removed however the test exits *)
let with_walled_cluster ?group_commit (f : Cluster.t -> Wal.t array -> unit) :
    unit =
  let dir = fresh_wal_dir () in
  let c = three () in
  let ws =
    Array.of_list
      (List.map
         (fun (r : Replica.t) ->
           let w = Wal.create ?group_commit ~dir ~id:r.Replica.id () in
           Wal.attach w r;
           w)
         c.Cluster.replicas)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Wal.remove_files ws;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f c ws)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* frame start offsets of a well-formed WAL file *)
let frame_offsets (s : string) : int list =
  let rec go pos acc =
    if pos + 8 > String.length s then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le s pos) in
      go (pos + 8 + len) (pos :: acc)
  in
  go 0 []

(* the corruption-matrix workload: two commits at east, two applies
   from west — four frames in east's WAL, every one flushed *)
let matrix_setup (c : Cluster.t) : Replica.t =
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  Cluster.broadcast_now c (add_to east "players" "alice");
  Cluster.broadcast_now c (add_to east "players" "bob");
  Cluster.broadcast_now c (dec_stock west 5);
  Cluster.broadcast_now c (dec_stock west 7);
  east

let heal (c : Cluster.t) : unit =
  let s = Sync.create ~base_backoff_ms:1.0 c in
  let now = ref 0.0 in
  let rounds = ref 0 in
  while (not (Cluster.quiescent c)) && !rounds < 50 do
    ignore (Sync.round s ~now:!now ~send:Testutil.direct_send);
    now := !now +. 1000.0;
    incr rounds
  done;
  Alcotest.(check bool) "anti-entropy re-converged the cluster" true
    (Cluster.quiescent c)

let test_wal_recover_roundtrip () =
  with_walled_cluster ~group_commit:1 (fun c ws ->
      let east = matrix_setup c in
      let d = Replica.state_digest east in
      Wal.crash ws.(0);
      let r = Wal.recover ws.(0) east in
      Alcotest.(check bool) "no snapshot yet" false r.Wal.rec_snapshot;
      Alcotest.(check int) "all four records replayed" 4 r.Wal.rec_replayed;
      Alcotest.(check int) "nothing dropped" 0 r.Wal.rec_dropped_bytes;
      Alcotest.(check string) "digest bit-identical" d
        (Replica.state_digest east);
      Alcotest.(check int) "counter exact" 12 (stock_value east);
      Alcotest.(check bool) "cluster still quiescent" true
        (Cluster.quiescent c))

(* corrupt east's WAL file with [mutate], recover, check the recovery
   record, then heal and demand full convergence back to [d_full] *)
let corruption_case ~(mutate : string -> string)
    ~(check : Wal.recovery -> int -> unit) () =
  with_walled_cluster ~group_commit:1 (fun c ws ->
      let east = matrix_setup c in
      let d_full = Replica.state_digest east in
      Wal.crash ws.(0);
      let path = Wal.wal_path ~dir:ws.(0).Wal.dir ~id:"dc-east" in
      let orig = read_file path in
      write_file path (mutate orig);
      let r = Wal.recover ws.(0) east in
      check r (String.length orig);
      (* the invalid tail was truncated away on disk *)
      Alcotest.(check int) "file rewritten to the valid prefix"
        r.Wal.rec_valid_bytes
        (String.length (read_file path));
      heal c;
      Alcotest.(check string) "healed back to the full digest" d_full
        (Replica.state_digest east);
      Alcotest.(check int) "counter healed exactly" 12 (stock_value east))

let test_wal_truncated_tail =
  corruption_case
    ~mutate:(fun s -> String.sub s 0 (String.length s - 5))
    ~check:(fun r _ ->
      Alcotest.(check int) "three records survive" 3 r.Wal.rec_replayed;
      Alcotest.(check bool) "torn tail dropped" true
        (r.Wal.rec_dropped_bytes > 0))

let test_wal_flipped_checksum_byte =
  corruption_case
    ~mutate:(fun s ->
      (* flip one payload byte of the last frame: the CRC must refuse
         the whole record, not just garble its batch *)
      let last = List.nth (frame_offsets s) 3 in
      let b = Bytes.of_string s in
      Bytes.set b (last + 8) (Char.chr (Char.code (Bytes.get b (last + 8)) lxor 0xFF));
      Bytes.to_string b)
    ~check:(fun r total ->
      Alcotest.(check int) "three records survive" 3 r.Wal.rec_replayed;
      Alcotest.(check bool) "checksum-failed record dropped" true
        (r.Wal.rec_dropped_bytes > 0 && r.Wal.rec_valid_bytes < total))

let test_wal_duplicated_record =
  corruption_case
    ~mutate:(fun s ->
      let last = List.nth (frame_offsets s) 3 in
      s ^ String.sub s last (String.length s - last))
    ~check:(fun r _ ->
      (* the duplicate parses fine; replay must skip it by cursor, not
         double-apply the counter increment (checked via d_full) *)
      Alcotest.(check int) "four records replayed" 4 r.Wal.rec_replayed;
      Alcotest.(check int) "duplicate skipped" 1 r.Wal.rec_skipped;
      Alcotest.(check int) "nothing dropped" 0 r.Wal.rec_dropped_bytes)

let test_wal_torn_final_record =
  corruption_case
    ~mutate:(fun s ->
      let last = List.nth (frame_offsets s) 3 in
      s ^ String.sub s last 10)
    ~check:(fun r _ ->
      Alcotest.(check int) "all whole records replayed" 4 r.Wal.rec_replayed;
      Alcotest.(check int) "torn half-frame dropped" 10
        r.Wal.rec_dropped_bytes)

let test_wal_checkpoint_snapshot_replay () =
  with_walled_cluster ~group_commit:1 (fun c ws ->
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      Cluster.broadcast_now c (add_to east "players" "alice");
      Cluster.broadcast_now c (add_to east "players" "bob");
      Wal.checkpoint ws.(0) east;
      Cluster.broadcast_now c (dec_stock west 5);
      Cluster.broadcast_now c (dec_stock west 7);
      let d_full = Replica.state_digest east in
      Wal.crash ws.(0);
      let r = Wal.recover ws.(0) east in
      Alcotest.(check bool) "snapshot restored" true r.Wal.rec_snapshot;
      Alcotest.(check int) "only the post-checkpoint records replayed" 2
        r.Wal.rec_replayed;
      Alcotest.(check string) "digest bit-identical" d_full
        (Replica.state_digest east);
      Alcotest.(check int) "counter exact" 12 (stock_value east))

let test_wal_group_commit_loses_unflushed_applies () =
  (* applies are group-committed: an unflushed remote apply may be lost
     on crash (regressing the cursor consistently with the state) and
     anti-entropy must re-deliver it; the replica's OWN commit is
     flushed synchronously and survives *)
  with_walled_cluster ~group_commit:100 (fun c ws ->
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      Cluster.broadcast_now c (add_to east "players" "alice");
      Cluster.broadcast_now c (dec_stock west 5);
      Alcotest.(check int) "apply visible before the crash" 5
        (stock_value east);
      Wal.crash ws.(0);
      let r = Wal.recover ws.(0) east in
      Alcotest.(check int) "own commit durable" 1 r.Wal.rec_replayed;
      Alcotest.(check int) "unflushed apply lost" 0 (stock_value east);
      Alcotest.(check (list string)) "committed add survived" [ "alice" ]
        (elements east "players");
      heal c;
      Alcotest.(check int) "re-delivered by anti-entropy" 5
        (stock_value east))

let test_wal_checkpoint_captures_pending () =
  (* a checkpoint snapshot captures the pending buffer.  Here west's w2
     waits at east for w1 and for eu's e1 when east checkpoints; both
     later arrive and w2 drains.  Recovery restores w2 as pending, and
     replaying w1 then e1 moves the cursors past it: the cursor move must
     drop it from the buffer, or it sits there forever (retransmissions
     of a buffered batch are dropped as duplicates) *)
  with_walled_cluster ~group_commit:1 (fun c ws ->
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      let eu = Cluster.replica c "dc-eu" in
      let w1 = dec_stock west 5 in
      let e1 = dec_stock eu 3 in
      Replica.receive west e1;
      let w2 = dec_stock west 7 in
      Replica.receive east w2;
      Alcotest.(check int) "w2 buffered at the checkpoint" 1
        (Replica.pending_count east);
      Wal.checkpoint ws.(0) east;
      Replica.receive east w1;
      Alcotest.(check int) "w2 still waits for e1" 1
        (Replica.pending_count east);
      Replica.receive east e1;
      Alcotest.(check int) "w2 drained" 0 (Replica.pending_count east);
      let d_full = Replica.state_digest east in
      Wal.crash ws.(0);
      let r = Wal.recover ws.(0) east in
      Alcotest.(check bool) "snapshot restored" true r.Wal.rec_snapshot;
      Alcotest.(check int) "w1 and e1 replayed" 2 r.Wal.rec_replayed;
      Alcotest.(check int) "w2's record skipped: already drained" 1
        r.Wal.rec_skipped;
      Alcotest.(check int) "no batch left buffered" 0
        (Replica.pending_count east);
      Alcotest.(check string) "digest bit-identical" d_full
        (Replica.state_digest east);
      heal c;
      Alcotest.(check int) "counter exact everywhere" 15 (stock_value eu);
      Alcotest.(check string) "still the pre-crash digest" d_full
        (Replica.state_digest east))

(* ------------------------------------------------------------------ *)
(* Delta repair: convergence and wire cost vs raw batches              *)
(* ------------------------------------------------------------------ *)

let test_delta_repair_fewer_bytes () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  (* a large converged set, then a small tail of updates eu misses *)
  for i = 0 to 199 do
    Cluster.broadcast_now c (add_to east "big" (Printf.sprintf "e%03d" i))
  done;
  for i = 200 to 209 do
    let b = add_to east "big" (Printf.sprintf "e%03d" i) in
    Replica.receive west b
  done;
  Cluster.broadcast_now c (dec_stock east 3);
  Replica.receive west (dec_stock east 4);
  let d_ref = Replica.state_digest east in
  Alcotest.(check string) "west converged by op application" d_ref
    (Replica.state_digest west);
  let snap = Cluster.snapshot c in
  let run_mode mode =
    Cluster.restore c snap;
    let eu = Cluster.replica c "dc-eu" in
    let s = Sync.create ~base_backoff_ms:1.0 c in
    let st = Sync.repair s ~mode ~src:east ~dst:eu in
    Alcotest.(check string) "repair converged eu" d_ref
      (Replica.state_digest eu);
    Alcotest.(check bool) "something was shipped" true (st.Sync.r_accepted > 0);
    st.Sync.r_bytes
  in
  let bytes_delta = run_mode Sync.Deltas in
  let bytes_batches = run_mode Sync.Batches in
  Alcotest.(check bool)
    (Printf.sprintf "deltas no dearer than raw batches (%d vs %d)" bytes_delta
       bytes_batches)
    true
    (bytes_delta <= bytes_batches)

let test_delta_group_supersedes_pending () =
  (* a compacted batch over commits 1..3 reaches east while commit 2 is
     buffered there: its delivery moves the cursor past it, so the
     buffer empties and commit 4 then takes the receive fast path (no
     buffering and no drain) *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let _w1 = dec_stock west 1 in
  let w2 = dec_stock west 2 in
  let _w3 = dec_stock west 4 in
  let g =
    Option.get
      (Replica.compact_after west ~origin:"dc-west" ~have:east.Replica.vv)
  in
  Alcotest.(check (pair int int)) "covers commits 1..3" (1, 3)
    (g.Replica.b_first, g.Replica.b_seq);
  let w4 = dec_stock west 8 in
  Replica.receive east w2;
  Alcotest.(check int) "w2 buffered" 1 (Replica.pending_count east);
  let delivered = east.Replica.delivered in
  Replica.receive east g;
  Alcotest.(check bool) "group accepted" true
    (east.Replica.delivered = delivered + 1);
  Alcotest.(check int) "superseded batch dropped" 0
    (Replica.pending_count east);
  let hwm = east.Replica.pending_hwm and scans = east.Replica.drain_scans in
  Replica.receive east w4;
  Alcotest.(check int) "w4 applied on arrival" 0 (Replica.pending_count east);
  Alcotest.(check int) "fast path: not buffered" hwm east.Replica.pending_hwm;
  Alcotest.(check int) "fast path: no drain" scans east.Replica.drain_scans;
  Alcotest.(check int) "counter exact" 15 (stock_value east);
  Alcotest.(check string) "east matches west" (Replica.state_digest west)
    (Replica.state_digest east)

let test_blocked_group_not_buffered () =
  (* a compacted batch that cannot apply at once is dropped, neither
     buffered (it would shadow its first commit's own batch) nor counted
     as a duplicate, even where that batch is buffered; once stale it is
     a duplicate *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  let e1 = dec_stock east 1 in
  Replica.receive west e1;
  let w1 = dec_stock west 2 in
  let _w2 = dec_stock west 4 in
  (* built for east, which has e1: eu lacks it *)
  let g =
    Option.get
      (Replica.compact_after west ~origin:"dc-west" ~have:east.Replica.vv)
  in
  Replica.receive eu w1;
  Alcotest.(check int) "w1 waits for e1" 1 (Replica.pending_count eu);
  Replica.receive eu g;
  Alcotest.(check int) "group dropped, not buffered" 1
    (Replica.pending_count eu);
  Alcotest.(check int) "not a duplicate" 0 eu.Replica.duplicates_dropped;
  Replica.receive eu e1;
  Alcotest.(check int) "e1 and w1 applied" 3 (stock_value eu);
  Replica.receive eu g;
  Alcotest.(check int) "a stale group is a duplicate" 1
    eu.Replica.duplicates_dropped;
  Option.iter (Replica.receive eu)
    (Replica.compact_after west ~origin:"dc-west" ~have:eu.Replica.vv);
  Alcotest.(check int) "the rest applies" 7 (stock_value eu)

let test_delta_repair_crossing_origins () =
  (* commits a1 <- b1 <- a2 <- b2 alternate between east and west, so
     each origin's lagging interval needs the other's later commit: a
     compacted batch of a whole interval could never apply at eu.  Each
     repair ships the prefixes eu can apply, and makes progress *)
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let eu = Cluster.replica c "dc-eu" in
  List.iteri
    (fun i (src, dst) -> Replica.receive dst (dec_stock src (1 lsl i)))
    [ (east, west); (west, east); (east, west); (west, east) ];
  let s = Sync.create c in
  let rec heal calls =
    if Replica.state_digest eu <> Replica.state_digest east then begin
      Alcotest.(check bool) "converges within four calls" true (calls < 4);
      let st = Sync.repair s ~mode:Sync.Deltas ~src:east ~dst:eu in
      Alcotest.(check bool) "each call accepts a batch" true
        (st.Sync.r_accepted >= 1);
      heal (calls + 1)
    end
  in
  heal 0;
  Alcotest.(check int) "all four commits" 15 (stock_value eu)

let test_compacted_batch_survives_crash () =
  (* east applies a compacted batch of west's commits 1..2 and then
     receives commit 3.  The compacted batch is an apply record in
     east's WAL like any delivery, so recovery replays all three
     commits; were it missing, the replayed commit 3 would move the
     cursor over the lost interval, the counter would read 4 and
     anti-entropy could never bring commits 1..2 back *)
  with_walled_cluster ~group_commit:1 (fun c ws ->
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      let _w1 = dec_stock west 1 in
      let _w2 = dec_stock west 2 in
      let s = Sync.create ~base_backoff_ms:1.0 c in
      let st = Sync.repair s ~mode:Sync.Deltas ~src:west ~dst:east in
      Alcotest.(check (pair int int)) "one compacted batch, accepted" (1, 1)
        (st.Sync.r_units, st.Sync.r_accepted);
      Replica.receive east (dec_stock west 4);
      Alcotest.(check int) "counter before the crash" 7 (stock_value east);
      Alcotest.(check (list (pair int int))) "logged as 1..2, then 3"
        [ (1, 2); (3, 3) ]
        (List.map
           (fun (b : Replica.batch) -> (b.Replica.b_first, b.Replica.b_seq))
           (Replica.log_after east ~origin:"dc-west" ~known:0));
      Alcotest.(check (list int)) "a peer inside 1..2 is sent 3 alone" [ 3 ]
        (List.map
           (fun (b : Replica.batch) -> b.Replica.b_first)
           (Replica.log_after east ~origin:"dc-west" ~known:1));
      let d = Replica.state_digest east in
      Wal.crash ws.(0);
      let r = Wal.recover ws.(0) east in
      Alcotest.(check int) "both records replayed" 2 r.Wal.rec_replayed;
      Alcotest.(check int) "counter survives the crash" 7 (stock_value east);
      Alcotest.(check string) "digest bit-identical" d
        (Replica.state_digest east);
      heal c;
      Alcotest.(check int) "counter exact everywhere" 7 (stock_value east))

let test_compacted_batch_log_truncates () =
  (* a compacted interval is logged as one entry, so the receiver's log
     stays contiguous and stable truncation steps over the interval:
     east (commits 3..5 compacted) truncates west's log exactly as eu
     (commits 3..5 one by one) does, and so does east's log rebuilt by
     crash recovery.  A hole there would stop truncation at commit 3
     for good *)
  with_walled_cluster ~group_commit:1 (fun c ws ->
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      let eu = Cluster.replica c "dc-eu" in
      List.iter (fun n -> Cluster.broadcast_now c (dec_stock west n)) [ 1; 2 ];
      List.iter (fun n -> Replica.receive eu (dec_stock west n)) [ 1; 2; 3 ];
      let s = Sync.create ~base_backoff_ms:1.0 c in
      let st = Sync.repair s ~mode:Sync.Deltas ~src:west ~dst:east in
      Alcotest.(check (pair int int)) "one compacted batch, accepted" (1, 1)
        (st.Sync.r_units, st.Sync.r_accepted);
      List.iter
        (fun n -> Cluster.broadcast_now c (dec_stock west n))
        [ 1; 2; 3; 4; 5 ];
      (* every replica learns every clock *)
      List.iter
        (fun r -> Cluster.broadcast_now c (dec_stock r 1))
        [ east; eu; west ];
      let west_log (r : Replica.t) = Hashtbl.find r.Replica.log "dc-west" in
      let entries r =
        List.length (Replica.log_after r ~origin:"dc-west" ~known:0)
      in
      let check_truncated what =
        List.iter (fun r -> ignore (Replica.gc r)) [ east; eu ];
        Alcotest.(check int) "eu truncated west's commits 1..10" 11
          (west_log eu).Replica.min_seq;
        Alcotest.(check int) (what ^ ": east truncated as far as eu")
          (west_log eu).Replica.min_seq (west_log east).Replica.min_seq;
        Alcotest.(check int) (what ^ ": east retains what eu retains")
          (entries eu) (entries east)
      in
      check_truncated "live";
      Wal.crash ws.(0);
      ignore (Wal.recover ws.(0) east);
      check_truncated "recovered")

(* ------------------------------------------------------------------ *)
(* Convergence property: random ops, random delivery interleavings     *)
(* ------------------------------------------------------------------ *)

let prop_store_convergence =
  QCheck.Test.make ~name:"replicas converge under random delivery order"
    ~count:100
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 1 12)
               (triple (int_bound 2) (oneofl [ "a"; "b"; "c"; "d" ]) bool))
            (int_bound 10_000)))
    (fun (script, shuffle_seed) ->
      let c = three () in
      let ids = [ "dc-east"; "dc-west"; "dc-eu" ] in
      (* run the script, collecting batches (concurrent: no broadcast yet) *)
      let batches =
        List.map
          (fun (ri, e, add) ->
            let rep = Cluster.replica c (List.nth ids ri) in
            if add then add_to rep "set" e
            else remove_from rep "set" e)
          script
      in
      (* deliver everything to everyone in a pseudo-random order, some
         of it also as compacted intervals *)
      let st = ref shuffle_seed in
      let next_int bound =
        st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
        !st mod bound
      in
      let deliveries =
        List.concat_map
          (fun b ->
            List.filter_map
              (fun id ->
                if id = b.Replica.b_origin then None else Some (id, b))
              ids)
          batches
      in
      let arr = Array.of_list deliveries in
      for i = Array.length arr - 1 downto 1 do
        let j = next_int (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- tmp
      done;
      Array.iter
        (fun (id, b) ->
          let dst = Cluster.replica c id in
          let origin = b.Replica.b_origin in
          (* one delivery in three first ships the origin's interval
             beyond dst's clock that dst can apply as one compacted
             batch *)
          if next_int 3 = 0 then
            Option.iter (Replica.receive dst)
              (Replica.compact_after (Cluster.replica c origin) ~origin
                 ~have:dst.Replica.vv);
          Replica.receive dst b)
        arr;
      (* all replicas must agree *)
      Cluster.quiescent c
      &&
      let views =
        List.map (fun id -> elements (Cluster.replica c id) "set") ids
      in
      List.for_all (fun v -> v = List.hd views) views)

(* ------------------------------------------------------------------ *)
(* Replication schedules against test-side oracles                     *)
(* ------------------------------------------------------------------ *)

(* The linear reference for [Sync.missing_for]: the batches of [src]'s
   log beyond the digest's clock, minus those the digest lists as
   buffered, found by [List.mem] *)
let missing_oracle ~(src : Replica.t) (d : Sync.digest) : Replica.batch list =
  List.concat
    (Hashtbl.fold
       (fun origin _ acc ->
         let known = Vclock.get d.Sync.d_vv origin in
         List.filter
           (fun (b : Replica.batch) ->
             not (List.mem (b.Replica.b_origin, b.Replica.b_seq) d.Sync.d_have))
           (Replica.log_after src ~origin ~known)
         :: acc)
       src.Replica.log [])

(* Run a randomized replication schedule: interleaved commits, partial
   and lost deliveries, [gc] (hence stable truncation) while gaps are
   still open, then anti-entropy recovery.  With [~gc:false] the gc
   calls are skipped but the schedule is otherwise the same.  Checks the
   digests against {!check_digests} after every gc point and at the
   end; at every anti-entropy round, [Sync.missing_for] against
   {!missing_oracle} for every (source, destination) pair; and every
   [Cluster.quiescent] answer against the exact definition (equal
   clocks, nothing pending, equal [state_digest]s).  Returns the final
   per-replica exact digests, whether quiescence was reached, and
   whether every check held. *)
let run_schedule ~(gc : bool) (script : (int * string * int) list)
    (seed : int) : string list * bool * bool =
  let c = three () in
  let ids = [ "dc-east"; "dc-west"; "dc-eu" ] in
  let st = ref (seed lor 1) in
  let next_int bound =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st mod bound
  in
  let ok = ref true in
  let check_digests () =
    if Result.is_error (check_digests c.Cluster.replicas) then ok := false
  in
  let quiescent () =
    let q = Cluster.quiescent c in
    let r0 = List.hd c.Cluster.replicas in
    let d0 = Replica.state_digest r0 in
    let exact =
      List.for_all
        (fun (r : Replica.t) ->
          Vclock.equal r.Replica.vv r0.Replica.vv
          && Replica.pending_count r = 0
          && Replica.state_digest r = d0)
        c.Cluster.replicas
    in
    if q <> exact then ok := false;
    q
  in
  let check_missing () =
    let key (b : Replica.batch) = (b.Replica.b_origin, b.Replica.b_seq) in
    List.iter
      (fun (src : Replica.t) ->
        List.iter
          (fun (dst : Replica.t) ->
            let d = Sync.digest_of dst in
            if
              List.map key (Sync.missing_for ~src d)
              <> List.map key (missing_oracle ~src d)
            then ok := false)
          c.Cluster.replicas)
      c.Cluster.replicas
  in
  let deferred = ref [] in
  List.iteri
    (fun i (ri, e, kind) ->
      let rep = Cluster.replica c (List.nth ids ri) in
      let b =
        match kind with
        | 0 -> add_to rep ("set-" ^ e) e
        | 1 -> remove_from rep ("set-" ^ e) e
        | _ -> dec_stock rep 1
      in
      (* each copy is delivered now, deferred, or lost (anti-entropy
         must close the gap from the origin's batch log) *)
      List.iter
        (fun id ->
          if id <> b.Replica.b_origin then
            match next_int 3 with
            | 0 -> Replica.receive (Cluster.replica c id) b
            | 1 -> deferred := (id, b) :: !deferred
            | _ -> ())
        ids;
      if i mod 3 = 2 then begin
        (* drawn either way, so both runs see the same deliveries *)
        let r = Cluster.replica c (List.nth ids (next_int 3)) in
        if gc then ignore (Replica.gc r);
        check_digests ()
      end)
    script;
  (* deliver the deferred copies in a shuffled order *)
  let arr = Array.of_list !deferred in
  for i = Array.length arr - 1 downto 1 do
    let j = next_int (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.iter (fun (id, b) -> Replica.receive (Cluster.replica c id) b) arr;
  (* anti-entropy heals the losses; gc every round so truncation runs
     while gaps are still open — a truncated batch a peer still needed
     would wedge convergence and fail the property *)
  let s = Sync.create ~base_backoff_ms:100.0 c in
  let now = ref 0.0 in
  let rounds = ref 0 in
  while (not (quiescent ())) && !rounds < 80 do
    check_missing ();
    ignore (Sync.round s ~now:!now ~send:direct_send);
    now := !now +. 250.0;
    incr rounds;
    if gc then
      List.iter (fun (r : Replica.t) -> ignore (Replica.gc r)) c.Cluster.replicas
  done;
  check_digests ();
  ( List.map (fun r -> Replica.state_digest r) c.Cluster.replicas,
    quiescent (),
    !ok )

let schedule_gen =
  QCheck.(
    make
      Gen.(
        pair
          (list_size (int_range 1 14)
             (triple (int_bound 2) (oneofl [ "a"; "b"; "c"; "d" ]) (int_bound 2)))
          (int_bound 100_000)))

let prop_truncation_safe_under_loss =
  QCheck.Test.make
    ~name:"lossy delivery + gc truncation still converges via anti-entropy"
    ~count:60 schedule_gen
    (fun (script, seed) ->
      let _, quiescent, ok = run_schedule ~gc:true script seed in
      quiescent && ok)

let prop_schedule_oracles =
  QCheck.Test.make
    ~name:"gc on/off, missing_for and quiescent agree with oracles"
    ~count:40 schedule_gen
    (fun (script, seed) ->
      let d_gc, q_gc, ok_gc = run_schedule ~gc:true script seed in
      let d, q, ok = run_schedule ~gc:false script seed in
      d_gc = d && q_gc = q && q && ok_gc && ok)

(* ------------------------------------------------------------------ *)
(* Delta-group equivalence property                                    *)
(* ------------------------------------------------------------------ *)

let rw_add (rep : Replica.t) (key : string) (e : string) : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_rwset (Txn.get tx key Obj.T_rwset) in
  Txn.update tx key
    (Obj.Op_rwset
       (Rwset.prepare_add s ~dot:(Txn.fresh_dot tx) ~vv:(Txn.current_vv tx) e));
  Option.get (Txn.commit tx)

let rw_remove (rep : Replica.t) (key : string) (e : string) : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_rwset (Txn.get tx key Obj.T_rwset) in
  Txn.update tx key
    (Obj.Op_rwset (Rwset.prepare_remove s ~vv:(Txn.fresh_vv tx) e));
  Option.get (Txn.commit tx)

let prop_delta_merge_equiv =
  (* the two ways eu can learn east's history — replayed ops, one
     compacted batch per origin — must land on the same observable state,
     for every delta CRDT mixed freely *)
  QCheck.Test.make ~name:"delta repair == op application"
    ~count:60
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 16)
            (pair (int_bound 4) (oneofl [ "a"; "b"; "c" ]))))
    (fun script ->
      let c = three () in
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      (* east commits; west is the op-application reference; eu is dark *)
      List.iter
        (fun (kind, e) ->
          let b =
            match kind with
            | 0 -> add_to east ("aw-" ^ e) e
            | 1 -> remove_from east ("aw-" ^ e) e
            | 2 -> rw_add east ("rw-" ^ e) e
            | 3 -> rw_remove east ("rw-" ^ e) e
            | _ -> dec_stock east 1
          in
          Replica.receive west b)
        script;
      let d_ref = Replica.state_digest east in
      let eu = Cluster.replica c "dc-eu" in
      let s = Sync.create ~base_backoff_ms:1.0 c in
      ignore (Sync.repair s ~mode:Sync.Deltas ~src:east ~dst:eu);
      Replica.state_digest west = d_ref && Replica.state_digest eu = d_ref)

(* ------------------------------------------------------------------ *)
(* Consistency-typed reads                                             *)
(* ------------------------------------------------------------------ *)

let read_counter (v : Obj.t option) : int =
  match v with Some o -> Pncounter.value (Obj.as_pncounter o) | None -> 0

(** Deliver [b] to the non-origin replicas selected by [mask] (bit per
    replica, in cluster order). *)
let masked_deliver (c : Cluster.t) (b : Replica.batch) (mask : int) : unit =
  let others =
    List.filter
      (fun (r : Replica.t) -> r.Replica.id <> b.Replica.b_origin)
      c.Cluster.replicas
  in
  List.iteri
    (fun i r -> if mask land (1 lsl i) <> 0 then Replica.receive r b)
    others

(** Seed the escrow ledger on [key] and broadcast it: 30 granted at
    replica 0, headroom moved 10/10 to replicas 1 and 2, value raised to
    8, decrement rights transferred 3/3 to replicas 1 and 2. *)
let seed_escrow (c : Cluster.t) ~(key : string) : Replica.batch =
  let reps = Array.of_list c.Cluster.replicas in
  let tx = Txn.begin_ reps.(0) in
  let bc () = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
  let upd op = Txn.update tx key (Obj.Op_bcounter op) in
  let id i = reps.(i).Replica.id in
  upd (Bcounter.prepare_grant (bc ()) ~rep:(id 0) 30);
  upd (Bcounter.prepare_hmove (bc ()) ~from_:(id 0) ~to_:(id 1) 10);
  upd (Bcounter.prepare_hmove (bc ()) ~from_:(id 0) ~to_:(id 2) 10);
  upd (Bcounter.prepare_inc (bc ()) ~rep:(id 0) 8);
  upd (Bcounter.prepare_transfer (bc ()) ~from_:(id 0) ~to_:(id 1) 3);
  upd (Bcounter.prepare_transfer (bc ()) ~from_:(id 0) ~to_:(id 2) 3);
  let b = Option.get (Txn.commit tx) in
  Cluster.broadcast_now c b;
  b

let test_read_weak_local () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let _ = Testutil.counter_delta ~key:"ctr" east 5 in
  (* not broadcast *)
  let r_east = Read.read c Read.Weak ~prefer:"dc-east" "ctr" in
  let r_west = Read.read c Read.Weak ~prefer:"dc-west" "ctr" in
  Alcotest.(check int) "weak at the origin sees the commit" 5
    (read_counter r_east.Read.value);
  Alcotest.(check int) "weak elsewhere serves the stale local state" 0
    (read_counter r_west.Read.value);
  Alcotest.(check string) "served by the preferred replica" "dc-west"
    r_west.Read.served_by;
  Alcotest.(check bool) "weak never escalates" false
    (r_east.Read.escalated || r_west.Read.escalated)

let test_read_bounded_cover_rule () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let b = Testutil.counter_delta ~key:"ctr" east 3 in
  let bound = b.Replica.b_after in
  (* west does not cover the bound: the read must route to a covering
     replica (east), not escalate *)
  let r = Read.read c (Read.Bounded bound) ~prefer:"dc-west" "ctr" in
  Alcotest.(check string) "served by the covering replica" "dc-east"
    r.Read.served_by;
  Alcotest.(check bool) "no quiesce needed" false r.Read.escalated;
  Alcotest.(check bool) "serving clock covers the bound" true
    (Vclock.leq bound r.Read.at);
  Alcotest.(check int) "the bounded read reflects the bound" 3
    (read_counter r.Read.value);
  (* once west covers the bound it serves locally *)
  Replica.receive (Cluster.replica c "dc-west") b;
  let r2 = Read.read c (Read.Bounded bound) ~prefer:"dc-west" "ctr" in
  Alcotest.(check string) "served locally once covered" "dc-west"
    r2.Read.served_by;
  Alcotest.(check bool) "still no escalation" false r2.Read.escalated

let clocks (c : Cluster.t) : Vclock.t list =
  List.map (fun (r : Replica.t) -> r.Replica.vv) c.Cluster.replicas

let test_read_strong_serves_cut () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let _ = Testutil.counter_delta ~key:"ctr" east 7 in
  (* never broadcast: east alone covers the cut, so it serves *)
  let before = clocks c in
  let r = Read.read c Read.Strong ~prefer:"dc-west" "ctr" in
  Alcotest.(check int) "strong read sees the unreplicated commit" 7
    (read_counter r.Read.value);
  Alcotest.(check string) "served by the covering replica" "dc-east"
    r.Read.served_by;
  Alcotest.(check bool) "no catch-up needed" false r.Read.escalated;
  Alcotest.(check bool) "no replica's clock moved" true
    (List.for_all2 Vclock.equal before (clocks c));
  (* a concurrent commit at west: no replica covers the cut, so west
     alone catches up *)
  let west = Cluster.replica c "dc-west" in
  let _ = Testutil.counter_delta ~key:"ctr" west 2 in
  let cut = Read.bound c Read.Strong in
  let east_vv = east.Replica.vv
  and eu_vv = (Cluster.replica c "dc-eu").Replica.vv in
  let r = Read.read c Read.Strong ~prefer:"dc-west" "ctr" in
  Alcotest.(check int) "the catch-up reflects both commits" 9
    (read_counter r.Read.value);
  Alcotest.(check string) "served at home" "dc-west" r.Read.served_by;
  Alcotest.(check bool) "escalated" true r.Read.escalated;
  Alcotest.(check bool) "serving clock covers the cut" true
    (Vclock.leq cut r.Read.at);
  Alcotest.(check bool) "the other replicas' clocks are unchanged" true
    (Vclock.equal east_vv east.Replica.vv
    && Vclock.equal eu_vv (Cluster.replica c "dc-eu").Replica.vv)

let test_interval_brackets_truth () =
  let c = three () in
  let _ = seed_escrow c ~key:"stock" in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  (* east spends 2 of its decrement rights; the commit stays local *)
  let tx = Txn.begin_ east in
  let bc = Obj.as_bcounter (Txn.get tx "stock" Obj.T_bcounter) in
  Txn.update tx "stock"
    (Obj.Op_bcounter (Bcounter.prepare_dec bc ~rep:east.Replica.id 2));
  let b = Option.get (Txn.commit tx) in
  (* truth (strongly consistent value) is 8 - 2 = 6 *)
  let iv_w = Read.interval_at west "stock" in
  Alcotest.(check int) "west lo = its own rights" 3 iv_w.Read.lo;
  Alcotest.(check (option int)) "west hi = granted - its headroom" (Some 20)
    iv_w.Read.hi;
  Alcotest.(check int) "west still observes the pre-dec value" 8
    iv_w.Read.observed;
  Alcotest.(check bool) "west's interval brackets the truth" true
    (iv_w.Read.lo <= 6 && 6 <= Option.get iv_w.Read.hi);
  let iv_e = Read.interval_at east "stock" in
  Alcotest.(check int) "east lo after spending its rights" 0 iv_e.Read.lo;
  Alcotest.(check (option int)) "east hi after dec replenishes headroom"
    (Some 26) iv_e.Read.hi;
  Alcotest.(check int) "east observes the dec" 6 iv_e.Read.observed;
  (* delivery tightens west's observation but the bracket holds *)
  Replica.receive west b;
  let iv_w2 = Read.interval_at west "stock" in
  Alcotest.(check int) "west observes the dec after delivery" 6
    iv_w2.Read.observed;
  Alcotest.(check bool) "bracket still holds" true
    (iv_w2.Read.lo <= 6 && 6 <= Option.get iv_w2.Read.hi)

let test_descent_shard_boundary () =
  (* divergence counts straddling the shard count: k = shards - 1,
     shards, shards + 1 — the three-level descent must localize exactly
     the touched keys and stay cheaper than a full keyspace scan *)
  let shards = 16 in
  let n_keys = 64 in
  List.iter
    (fun k ->
      let c = Cluster.create ~shards Testutil.regions in
      let east = Cluster.replica c "dc-east" in
      let west = Cluster.replica c "dc-west" in
      for i = 0 to n_keys - 1 do
        Cluster.broadcast_now c (inc_keys east [ Printf.sprintf "key-%02d" i ])
      done;
      let touched =
        List.init k (fun i -> Printf.sprintf "key-%02d" (i * 3))
      in
      let b = inc_keys east touched in
      let d = Sync.divergent_keys ~a:east ~b:west in
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d: exactly the touched keys localized" k)
        (List.sort String.compare touched)
        (List.sort String.compare d.Sync.divergent);
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: descent cheaper than a full scan (%d nodes)" k
           d.Sync.nodes_visited)
        true
        (d.Sync.nodes_visited < shards + 1 + (2 * n_keys));
      Cluster.broadcast_now c b;
      let d2 = Sync.divergent_keys ~a:east ~b:west in
      Alcotest.(check (list string))
        (Printf.sprintf "k=%d: healed" k)
        [] d2.Sync.divergent)
    [ shards - 1; shards; shards + 1 ]

let prop_interval_brackets_strong =
  QCheck.Test.make
    ~name:"escrow interval reads bracket the strongly consistent value"
    ~count:60
    QCheck.(
      make
        Gen.(list_size (int_range 1 24) (triple (int_bound 2) bool (int_bound 3))))
    (fun script ->
      let c = three () in
      let shadow = Replica.create ~region:"shadow" "shadow" in
      shadow.Replica.peers <- List.map fst Testutil.regions;
      Replica.receive shadow (seed_escrow c ~key:"stock");
      let reps = Array.of_list c.Cluster.replicas in
      let ok = ref true in
      List.iter
        (fun (ri, is_inc, mask) ->
          let rep = reps.(ri) in
          let tx = Txn.begin_ rep in
          let bc = Obj.as_bcounter (Txn.get tx "stock" Obj.T_bcounter) in
          (match
             if is_inc then Bcounter.prepare_inc bc ~rep:rep.Replica.id 1
             else Bcounter.prepare_dec bc ~rep:rep.Replica.id 1
           with
          | op ->
              Txn.update tx "stock" (Obj.Op_bcounter op);
              let b = Option.get (Txn.commit tx) in
              (* the shadow sees every commit instantly: it holds the
                 strongly consistent value.  The cluster sees a random
                 subset. *)
              Replica.receive shadow b;
              masked_deliver c b mask
          | exception
              ( Bcounter.Insufficient_rights _
              | Bcounter.Insufficient_headroom _ ) ->
              Txn.abort tx);
          let truth =
            match Replica.peek shadow "stock" with
            | Some o -> Bcounter.quick_value (Obj.as_bcounter o)
            | None -> 0
          in
          Array.iter
            (fun r ->
              let iv = Read.interval_at r "stock" in
              let hi_ok =
                match iv.Read.hi with Some h -> truth <= h | None -> true
              in
              if not (iv.Read.lo <= truth && hi_ok) then ok := false)
            reps)
        script;
      !ok)

let prop_bound_zero_equals_strong =
  QCheck.Test.make
    ~name:"staleness-bound-0 reads match strong reads"
    ~count:60
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 16)
            (triple (int_bound 2) (int_range 1 3) (int_bound 3))))
    (fun script ->
      let c = three () in
      let ids = [| "dc-east"; "dc-west"; "dc-eu" |] in
      List.iter
        (fun (ri, n, mask) ->
          let rep = Cluster.replica c ids.(ri) in
          masked_deliver c (Testutil.counter_delta ~key:"ctr" rep n) mask)
        script;
      (* bound 0 = cover everything committed anywhere right now *)
      let bound =
        List.fold_left
          (fun acc (r : Replica.t) -> Vclock.merge acc r.Replica.vv)
          Vclock.empty c.Cluster.replicas
      in
      let rb = Read.read c (Read.Bounded bound) ~prefer:"dc-west" "ctr" in
      let rs = Read.read c Read.Strong ~prefer:"dc-west" "ctr" in
      read_counter rb.Read.value = read_counter rs.Read.value
      && Vclock.leq bound rb.Read.at
      && Vclock.leq bound rs.Read.at)

let prop_strong_is_tightest_bound =
  QCheck.Test.make
    ~name:"strong reads serve the cut, catching up only home"
    ~count:100
    QCheck.(
      make
        Gen.(
          pair (int_bound 2)
            (list_size (int_range 1 16)
               (triple (int_bound 2) (int_range 1 3) (int_bound 3)))))
    (fun (home, script) ->
      let c = three () in
      let ids = [| "dc-east"; "dc-west"; "dc-eu" |] in
      List.iter
        (fun (ri, n, mask) ->
          let rep = Cluster.replica c ids.(ri) in
          masked_deliver c (Testutil.counter_delta ~key:"ctr" rep n) mask)
        script;
      let cut = Read.bound c Read.Strong in
      let covered =
        List.exists (fun r -> Read.covers r cut) c.Cluster.replicas
      in
      let before = clocks c in
      let rs = Read.read c Read.Strong ~prefer:ids.(home) "ctr" in
      let moved =
        List.map2
          (fun (r : Replica.t) vv -> not (Vclock.equal vv r.Replica.vv))
          c.Cluster.replicas before
      in
      let rb = Read.read c (Read.Bounded cut) ~prefer:ids.(home) "ctr" in
      Vclock.leq cut rs.Read.at
      && read_counter rs.Read.value = read_counter rb.Read.value
      && rs.Read.escalated = not covered
      && List.for_all2
           (fun (r : Replica.t) m ->
             (not m) || (rs.Read.escalated && r.Replica.id = ids.(home)))
           c.Cluster.replicas moved)

let prop_weak_converges_at_quiescence =
  QCheck.Test.make
    ~name:"weak reads converge to the strong read at quiescence"
    ~count:60
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 16)
            (triple (int_bound 2) (int_range 1 3) (int_bound 3))))
    (fun script ->
      let c = three () in
      let ids = [| "dc-east"; "dc-west"; "dc-eu" |] in
      List.iter
        (fun (ri, n, mask) ->
          let rep = Cluster.replica c ids.(ri) in
          masked_deliver c (Testutil.counter_delta ~key:"ctr" rep n) mask)
        script;
      let rs = Read.read c Read.Strong ~prefer:"dc-east" "ctr" in
      let strong = read_counter rs.Read.value in
      (* at quiescence every replica's weak read agrees with it *)
      ignore (Read.quiesce c);
      Cluster.quiescent c
      && List.for_all
           (fun (r : Replica.t) ->
             let w = Read.read c Read.Weak ~prefer:r.Replica.id "ctr" in
             read_counter w.Read.value = strong && not w.Read.escalated)
           c.Cluster.replicas)

(* ------------------------------------------------------------------ *)
(* Incremental set digests                                             *)
(* ------------------------------------------------------------------ *)

let rw_remove_all (rep : Replica.t) (key : string) : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_rwset (Txn.get tx key Obj.T_rwset) in
  Txn.update tx key
    (Obj.Op_rwset (Rwset.prepare_remove_all s ~vv:(Txn.fresh_vv tx)));
  Option.get (Txn.commit tx)

let aw_op (rep : Replica.t) (key : string) prep : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_awset (Txn.get tx key Obj.T_awset) in
  Txn.update tx key (Obj.Op_awset (prep tx s));
  Option.get (Txn.commit tx)

let cs_op (rep : Replica.t) (key : string) prep : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_compset (Txn.get tx key (Obj.T_compset { max_size = 2 })) in
  Txn.update tx key (Obj.Op_compset (prep tx s));
  Option.get (Txn.commit tx)

(* one scripted commit at [rep]: kind × element over the three set
   types, wildcard removes included *)
let set_commit (rep : Replica.t) (kind : int) (e : string) : Replica.batch =
  match kind with
  | 0 ->
      aw_op rep "aw" (fun tx s ->
          Awset.prepare_add ~payload:e s ~dot:(Txn.fresh_dot tx) e)
  | 1 -> aw_op rep "aw" (fun tx s -> Awset.prepare_touch s ~dot:(Txn.fresh_dot tx) e)
  | 2 -> aw_op rep "aw" (fun _ s -> Awset.prepare_remove s e)
  | 3 ->
      aw_op rep "aw" (fun _ s ->
          Awset.prepare_remove_where s (fun x -> e = "a" || x <= "b"))
  | 4 -> rw_add rep "rw" e
  | 5 -> rw_remove rep "rw" e
  | 6 -> rw_remove_all rep "rw"
  | 7 -> cs_op rep "cs" (fun tx s -> Compset.prepare_add s ~dot:(Txn.fresh_dot tx) e)
  | 8 -> cs_op rep "cs" (fun tx s -> Compset.prepare_touch s ~dot:(Txn.fresh_dot tx) e)
  | _ -> cs_op rep "cs" (fun _ s -> Compset.prepare_remove s e)

(* a script step: (action, replica, element, aux) — actions 0..9 commit
   (aux picks the delivery: everywhere, withheld from one peer,
   duplicated, withheld from all), 10 delivers the withheld batches
   (newest first when aux is odd), 11 delta-repairs a peer from the
   replica, 12 runs gc, 13 snapshots the cluster, 14 restores the last
   snapshot, 15 crashes the replica and recovers it from its WAL *)
let set_script_gen =
  QCheck.(
    make
      Gen.(
        list_size (int_range 1 30)
          (quad (int_bound 15) (int_bound 2)
             (oneofl [ "a"; "b"; "c"; "d" ])
             (int_bound 3))))

let run_set_script (c : Cluster.t) (ws : Wal.t array) script :
    (unit, string) result =
  let reps = Array.of_list c.Cluster.replicas in
  let sync = Sync.create ~base_backoff_ms:1.0 c in
  let withheld = ref [] in
  let saved = ref None in
  (* a crash must not lose state that only a rollback installed — the
     WAL does not record it — so a rollback checkpoints every replica;
     a delta repair's compacted batches are WAL records like any
     delivery, so it needs no checkpoint *)
  let checkpoint i = Wal.checkpoint ~gc:false ws.(i) reps.(i) in
  let step (act, ri, e, aux) =
    let rep = reps.(ri) in
    if act <= 9 then begin
      let b = set_commit rep act e in
      Array.iteri
        (fun j (r : Replica.t) ->
          if j <> ri then
            match aux with
            | 0 -> Replica.receive r b
            | 1 when j = (ri + 1) mod 3 -> withheld := (j, b) :: !withheld
            | 1 -> Replica.receive r b
            | 2 ->
                Replica.receive r b;
                Replica.receive r b
            | _ -> withheld := (j, b) :: !withheld)
        reps
    end
    else
      match act with
      | 10 ->
          let l = if aux land 1 = 1 then !withheld else List.rev !withheld in
          withheld := [];
          List.iter (fun (j, b) -> Replica.receive reps.(j) b) l
      | 11 ->
          let j = (ri + 1 + (aux land 1)) mod 3 in
          ignore (Sync.repair sync ~mode:Sync.Deltas ~src:rep ~dst:reps.(j))
      | 12 -> ignore (Replica.gc rep)
      | 13 -> saved := Some (Cluster.snapshot c, !withheld)
      | 14 -> (
          match !saved with
          | None -> ()
          | Some (snap, w) ->
              Cluster.restore c snap;
              withheld := w;
              Array.iteri (fun i _ -> checkpoint i) reps)
      | _ ->
          Wal.crash ws.(ri);
          ignore (Wal.recover ws.(ri) rep)
  in
  let check () =
    let all f =
      Array.fold_left
        (fun acc r -> Result.bind acc (fun () -> f r))
        (Ok ()) reps
    in
    let ( let* ) = Result.bind in
    let* () = all (check_set_cells ~refreshed:false) in
    let vv0 = reps.(0).Replica.vv in
    let clocks_match =
      Array.for_all (fun (r : Replica.t) -> Vclock.equal r.Replica.vv vv0) reps
    in
    let q = Cluster.quiescent c in
    Array.iter (fun r -> ignore (Replica.quick_digest r)) reps;
    let* () = all (check_set_cells ~refreshed:true) in
    let ds = Array.map Replica.state_digest reps in
    let same = Array.for_all (String.equal ds.(0)) ds in
    (* pairwise, whatever the clocks: the rolling digests agree exactly
       when the exact digests do *)
    let pairs_agree =
      List.for_all
        (fun (i, j) ->
          Replica.digest_equal reps.(i) reps.(j) = String.equal ds.(i) ds.(j))
        [ (0, 1); (0, 2); (1, 2) ]
    in
    if clocks_match && q <> same then
      Error (Fmt.str "clocks match but quiescent=%b, digests equal=%b" q same)
    else if not pairs_agree then Error "digest_equal disagrees with state_digest"
    else Ok ()
  in
  let rec go = function
    | [] -> check ()
    | s :: rest -> Result.bind (check ()) (fun () -> step s; go rest)
  in
  let ( let* ) = Result.bind in
  let* () = go script in
  (* heal: deliver everything withheld, then anti-entropy to quiescence *)
  step (10, 0, "a", 0);
  let now = ref 0.0 and rounds = ref 0 in
  while (not (Cluster.quiescent c)) && !rounds < 50 do
    ignore (Sync.round sync ~now:!now ~send:Testutil.direct_send);
    now := !now +. 1000.0;
    incr rounds
  done;
  let* () = check () in
  if Cluster.quiescent c then Ok () else Error "did not re-converge"

let prop_incremental_set_hash =
  QCheck.Test.make
    ~name:"incremental set hashes match a from-scratch oracle" ~count:200
    set_script_gen (fun script ->
      let result = ref (Ok ()) in
      with_walled_cluster ~group_commit:1 (fun c ws ->
          result := run_set_script c ws script);
      match !result with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* the cell of [key] at [r] *)
let cell_of (r : Replica.t) (key : string) : Replica.cell =
  Hashtbl.find
    r.Replica.shards.(Replica.shard_of_key r key).Replica.sh_data
    (Intern.id key)

let dirty_entries (r : Replica.t) : int =
  Array.fold_left
    (fun acc (sh : Replica.shard) -> acc + sh.Replica.sh_dirty_n)
    0 r.Replica.shards

let test_hot_key_dirty_once () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  ignore (Replica.quick_digest east);
  for i = 1 to 1000 do
    ignore (add_to east "hot" (string_of_int (i mod 37)))
  done;
  Alcotest.(check int) "one dirty entry for 1000 updates" 1
    (dirty_entries east);
  ignore (Replica.quick_digest east);
  Alcotest.(check int) "refresh drains it" 0 (dirty_entries east);
  Alcotest.(check int) "members counted" 37 (cell_of east "hot").Replica.c_n

let test_rwset_wildcard_rehash () =
  let c = three () in
  let east = Cluster.replica c "dc-east" in
  let west = Cluster.replica c "dc-west" in
  let sent = ref [] in
  let bcast b =
    Cluster.broadcast_now c b;
    sent := b :: !sent
  in
  List.iter (fun e -> bcast (rw_add east "rw" e)) [ "a"; "b"; "c" ];
  ignore (Replica.quick_digest east);
  (* west's add is concurrent with east's wildcard: the barrier hides it *)
  let concurrent = rw_add west "rw" "x" in
  let wild = rw_remove_all east "rw" in
  Alcotest.(check bool) "the barrier marks the cell stale" true
    ((cell_of east "rw").Replica.c_n < 0);
  bcast wild;
  bcast concurrent;
  bcast (rw_add east "rw" "d");
  ignore (Replica.quick_digest east);
  let fresh = Replica.create ~shards:(Replica.shard_count east) "dc-fresh" in
  List.iter (Replica.receive fresh) (List.rev !sent);
  ignore (Replica.quick_digest fresh);
  Alcotest.(check (list string)) "only the post-barrier add survives" [ "d" ]
    (match Replica.peek east "rw" with
    | Some o -> Rwset.elements (Obj.as_rwset o)
    | None -> []);
  let ce = cell_of east "rw" and cf = cell_of fresh "rw" in
  Alcotest.(check int) "same key hash as a fresh replica" cf.Replica.c_h
    ce.Replica.c_h;
  Alcotest.(check int) "same member count" 1 ce.Replica.c_n;
  Alcotest.(check (result unit string)) "oracle agrees" (Ok ())
    (check_set_cells ~refreshed:true east)

(* ------------------------------------------------------------------ *)
(* Plain data: what the WAL and the wire marshal holds no closure      *)
(* ------------------------------------------------------------------ *)

(* every argument tuple over per-position domains *)
let rec tuples = function
  | [] -> [ [] ]
  | d :: ds ->
      let rest = tuples ds in
      List.concat_map (fun a -> List.map (fun t -> a :: t) rest) d

(* every fuzz-harness operation of the four apps, both variants, over
   its whole argument domain: each committed batch, the origin's
   snapshot and a compacted interval marshal without [Closures] *)
let test_batches_plain_data () =
  let plain what v =
    match Marshal.to_string v [] with
    | _ -> ()
    | exception Invalid_argument m -> Alcotest.failf "%s: %s" what m
  in
  List.iter
    (fun app ->
      List.iter
        (fun repaired ->
          let h = Ipa_check.Harness.make ~app ~repaired in
          let c = three () in
          let r0 = List.hd c.Cluster.replicas in
          let lag = List.nth c.Cluster.replicas 2 in
          let run (name, args) =
            let what =
              Fmt.str "%s (repaired=%b) %s(%s)" app repaired name
                (String.concat ", " args)
            in
            match h.Ipa_check.Harness.exec ~name ~args with
            | None -> Alcotest.failf "%s: unknown operation" what
            | Some op ->
                let o = op.Ipa_runtime.Config.run r0 in
                Option.map
                  (fun b ->
                    plain what b;
                    ignore (Sync.wire_bytes b);
                    b)
                  o.Ipa_runtime.Config.batch
          in
          (* seeded everywhere; the fuzz operations stay at the origin *)
          List.iter
            (fun o -> Option.iter (Cluster.broadcast_now c) (run o))
            h.Ipa_check.Harness.seed_ops;
          List.iter
            (fun (o : Ipa_check.Harness.opspec) ->
              List.iter
                (fun args -> ignore (run (o.Ipa_check.Harness.opname, args)))
                (tuples o.Ipa_check.Harness.argdoms))
            h.Ipa_check.Harness.ops;
          let where = Fmt.str "%s (repaired=%b)" app repaired in
          plain (where ^ " snapshot") (Replica.snapshot r0);
          match
            Replica.compact_after r0 ~origin:r0.Replica.id ~have:lag.Replica.vv
          with
          | None -> Alcotest.failf "%s: nothing to compact" where
          | Some b ->
              plain (where ^ " compacted batch") b;
              ignore (Sync.wire_bytes b))
        [ true; false ])
    Ipa_check.Harness.app_names

(* generator seed from IPA_TEST_SEED (printed on failure) *)
let qcheck_tests =
  List.map
    (Testutil.to_alcotest ~default:0)
    [
      prop_store_convergence;
      prop_truncation_safe_under_loss;
      prop_schedule_oracles;
      prop_delta_merge_equiv;
      prop_interval_brackets_strong;
      prop_bound_zero_equals_strong;
      prop_strong_is_tightest_bound;
      prop_weak_converges_at_quiescence;
      prop_incremental_set_hash;
    ]

let () =
  Alcotest.run "ipa_store"
    [
      ( "replication",
        [
          Alcotest.test_case "commit applies locally" `Quick
            test_commit_applies_locally;
          Alcotest.test_case "broadcast delivers" `Quick test_broadcast_delivers;
          Alcotest.test_case "causal buffering" `Quick test_causal_buffering;
          Alcotest.test_case "causal cross-replica" `Quick
            test_causal_cross_replica;
          Alcotest.test_case "own batch ignored" `Quick test_own_batch_ignored;
        ] );
      ( "exactly-once delivery",
        [
          Alcotest.test_case "duplicate batch not re-applied" `Quick
            test_duplicate_batch_not_reapplied;
          Alcotest.test_case "duplicate of pending dropped" `Quick
            test_duplicate_of_pending_dropped;
          Alcotest.test_case "late retransmission dropped" `Quick
            test_retransmission_after_apply_dropped;
        ] );
      ( "state digests",
        [
          Alcotest.test_case "converged replicas digest equal" `Quick
            test_digest_converged_replicas_equal;
          Alcotest.test_case "read-created objects ignored" `Quick
            test_digest_ignores_read_created_objects;
          Alcotest.test_case "quiescent detects divergence" `Quick
            test_quiescent_detects_state_divergence;
        ] );
      ( "anti-entropy",
        [
          Alcotest.test_case "recovers lost batch" `Quick
            test_sync_recovers_lost_batch;
          Alcotest.test_case "backoff paces retransmissions" `Quick
            test_sync_backoff_paces_retransmissions;
          Alcotest.test_case "backoff cap reached" `Quick
            test_sync_backoff_cap_reached;
          Alcotest.test_case "gap closed mid-backoff" `Quick
            test_sync_gap_closed_mid_backoff;
          Alcotest.test_case "no-op when converged" `Quick
            test_sync_noop_when_converged;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "read your writes" `Quick test_txn_read_your_writes;
          Alcotest.test_case "atomic batch" `Quick test_txn_atomic_batch;
          Alcotest.test_case "read-only" `Quick test_txn_readonly_no_batch;
          Alcotest.test_case "counts" `Quick test_txn_counts;
          Alcotest.test_case "repeated read-modify-write" `Quick
            test_txn_repeated_read_modify_write;
          Alcotest.test_case "set view matches replay" `Quick
            test_txn_set_view_matches_replay;
          Alcotest.test_case "double commit" `Quick
            test_txn_double_commit_rejected;
        ] );
      ( "conflict resolution",
        [
          Alcotest.test_case "add wins" `Quick test_concurrent_add_remove_add_wins;
          Alcotest.test_case "counters merge" `Quick test_concurrent_counter;
        ] );
      ( "stability",
        [
          Alcotest.test_case "cut advances" `Quick test_stability_cut_advances;
          Alcotest.test_case "gc reclaims barriers" `Quick
            test_gc_reclaims_rwset_barriers;
          Alcotest.test_case "gc preserves unstable" `Quick
            test_gc_preserves_unstable_state;
          Alcotest.test_case "gc awset payloads" `Quick test_gc_awset_payload;
          Alcotest.test_case "log truncation waits for stability" `Quick
            test_truncation_retains_unstable_then_drops;
        ] );
      ( "snapshot/restore",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_restore_roundtrip;
          Alcotest.test_case "replica works after restore" `Quick
            test_snapshot_restore_replica_still_works;
        ] );
      ( "sharding & digest tree",
        [
          Alcotest.test_case "shard count invariance" `Quick
            test_shard_count_invariance;
          Alcotest.test_case "digest-tree descent localizes" `Quick
            test_digest_tree_descent;
          Alcotest.test_case "snapshot/restore across shard counts" `Quick
            test_snapshot_restore_across_shards;
          Alcotest.test_case "drain linear on reversed burst" `Quick
            test_drain_linear_reversed_burst;
          Alcotest.test_case "commit allocation independent of keyspace" `Quick
            test_commit_alloc_independent_of_keyspace;
        ] );
      ( "durability (WAL)",
        [
          Alcotest.test_case "crash/recover round-trip" `Quick
            test_wal_recover_roundtrip;
          Alcotest.test_case "truncated tail" `Quick test_wal_truncated_tail;
          Alcotest.test_case "flipped checksum byte" `Quick
            test_wal_flipped_checksum_byte;
          Alcotest.test_case "duplicated record" `Quick
            test_wal_duplicated_record;
          Alcotest.test_case "torn final record" `Quick
            test_wal_torn_final_record;
          Alcotest.test_case "checkpoint snapshot + replay" `Quick
            test_wal_checkpoint_snapshot_replay;
          Alcotest.test_case "group commit loses unflushed applies" `Quick
            test_wal_group_commit_loses_unflushed_applies;
          Alcotest.test_case "checkpoint captures a buffered batch" `Quick
            test_wal_checkpoint_captures_pending;
          Alcotest.test_case "batches and snapshots are plain data" `Quick
            test_batches_plain_data;
        ] );
      ( "delta repair",
        [
          Alcotest.test_case "delta sync no dearer than batches" `Quick
            test_delta_repair_fewer_bytes;
          Alcotest.test_case "group supersedes a buffered batch" `Quick
            test_delta_group_supersedes_pending;
          Alcotest.test_case "blocked group dropped, not buffered" `Quick
            test_blocked_group_not_buffered;
          Alcotest.test_case "crossing origins make progress" `Quick
            test_delta_repair_crossing_origins;
          Alcotest.test_case "compacted batch survives a crash" `Quick
            test_compacted_batch_survives_crash;
          Alcotest.test_case "compacted batch truncates like its commits"
            `Quick test_compacted_batch_log_truncates;
        ] );
      ( "remote-first bounds",
        [
          Alcotest.test_case "compset bound carried in ops" `Quick
            test_remote_first_compset_bounds;
          Alcotest.test_case "compcounter bound carried in ops" `Quick
            test_remote_first_compcounter_bounds;
        ] );
      ( "consistency reads",
        [
          Alcotest.test_case "weak serves locally" `Quick test_read_weak_local;
          Alcotest.test_case "bounded routes to a covering replica" `Quick
            test_read_bounded_cover_rule;
          Alcotest.test_case "strong serves the cut" `Quick
            test_read_strong_serves_cut;
          Alcotest.test_case "interval brackets the truth" `Quick
            test_interval_brackets_truth;
          Alcotest.test_case "descent at shard-boundary divergence" `Quick
            test_descent_shard_boundary;
        ] );
      ( "incremental digests",
        [
          Alcotest.test_case "hot key queued once per poll" `Quick
            test_hot_key_dirty_once;
          Alcotest.test_case "rwset wildcard re-hash" `Quick
            test_rwset_wildcard_rehash;
        ] );
      ("properties", qcheck_tests);
    ]
