(* The replicated-store workloads: a 3-replica cluster driven directly
   through Txn / Replica / Sync / Wal / Read / Escrow by one closed-loop
   client stream, back to back, round-robin over the replicas.

   The loop runs in epochs of a fixed number of operations.  Each
   epoch's inputs are drawn from the seeded generator before the
   epoch's clock starts, so generation is never timed.  Inside an
   epoch, at fixed operation indices: an anti-entropy round (with the
   escrow planner ticking on it) and, less often, a GC pass on every
   replica.  Epoch 1 partitions one replica, healed at its end by
   digest-tree descent and delta repair; the end of epoch 2 checkpoints
   replica 0's WAL.  One batch in 17 is withheld from one peer, so
   anti-entropy has work.  After the last epoch replica 0 crashes and
   recovers from its WAL, and the cluster is driven to quiescence.

   Where the operation mix comes from (README.md, "Workload sources"):
   the catalog apps run their own [next_op] mixes over their
   [default_params] domains, with Zipf instead of uniform arguments; the
   Bcounter stock slice replays the escrow experiment's stream
   (bench/experiments.ml); the remaining shares are choices of this
   benchmark.

   Not routed through Runtime.Driver / Engine / Net: those report
   modelled time computed from constants, not the program's cost. *)

open Ipa_crdt
open Ipa_store
open Perfbench_lib
module Rng = Ipa_sim.Rng
module Zipf = Ipa_sim.Workload
module Config = Ipa_runtime.Config
module Escrow = Ipa_runtime.Escrow
module Twitter = Ipa_apps.Twitter
module Tournament = Ipa_apps.Tournament
module Ticket = Ipa_apps.Ticket
module Tpc = Ipa_apps.Tpc

type params = {
  apps : bool;  (** run the catalog apps' transactions *)
  app_theta : float;
  counter_keys : int;  (** Pncounter keyspace populated at set-up *)
  counter_theta : float;
  txn_keys : int;  (** keys per counter transaction *)
  p_strong : float;  (** share of Read.read ... Strong *)
  p_read : float;  (** share of weak / bounded Read.read probes *)
  p_stock : float;  (** share of Bcounter stock operations *)
  epoch_ops : int;
  sync_every : int;
  gc_every : int;
  epochs_per_s : float;  (** epochs per requested second: the run's size *)
}

(* A hot, set-heavy working set: the four repaired catalog apps over
   Zipf 0.99 arguments; the other operations outside them. *)
let zipf =
  {
    apps = true;
    app_theta = 0.99;
    counter_keys = 0;
    counter_theta = 0.0;
    txn_keys = 0;
    p_strong = 0.02;
    p_read = 0.04;
    p_stock = 0.06;
    epoch_ops = 8192;
    sync_every = 512;
    gc_every = 4096;
    epochs_per_s = 2.0;
  }

(* A keyspace far beyond the last-level cache: 2^17 counters, spread
   access, multi-key counter transactions. *)
let wide =
  {
    apps = false;
    app_theta = 0.0;
    counter_keys = 1 lsl 17;
    counter_theta = 0.5;
    txn_keys = 4;
    p_strong = 0.02;
    p_read = 0.40;
    p_stock = 0.02;
    epoch_ops = 16384;
    sync_every = 1024;
    gc_every = 16384;
    epochs_per_s = 2.0;
  }

(* A fixed-size run touching every store layer once, for the analysis
   workloads' traced runs. *)
let slice = { zipf with epoch_ops = 2048; sync_every = 256; gc_every = 1024 }
let rep_specs = [ ("r0", "us-east"); ("r1", "us-west"); ("r2", "eu-west") ]

(* ------------------------------------------------------------------ *)
(* The catalog apps                                                    *)
(* ------------------------------------------------------------------ *)

let tw_p = Twitter.default_params
let to_p = Tournament.default_params
let ti_p = Ticket.default_params
let tp_p = Tpc.default_params

(* Tpc.next_op names each order afresh from a million ids; a Zipf over
   that many ranks grows the [orders] set through the whole run, so the
   run's cost would depend on its length.  The benchmark caps the domain
   at 2048 orders. *)
let n_orders = 2048

(* Argument domains of the apps' default workloads.  Rank 0 is the
   hottest key, so the fuzz harness's small domains (u0.., p0.., e0..,
   o0..) are the hottest keys and the invariant check covers them. *)
let sorts =
  [
    ("User", "u", tw_p.Twitter.n_users);
    ("Tweet", "tw", tw_p.Twitter.n_tweets);
    ("Player", "p", to_p.Tournament.n_players);
    ("Tournament", "t", to_p.Tournament.n_tournaments);
    ("Event", "e", ti_p.Ticket.n_events);
    ("Item", "i", tp_p.Tpc.n_items);
    ("Customer", "c", tp_p.Tpc.n_customers);
    ("Order", "o", n_orders);
  ]

let app_names = [| "twitter"; "tournament"; "ticket"; "tpcw" |]

type apps = {
  twitter : Twitter.t;
  tournament : Tournament.t;
  ticket : Ticket.t;
  tpc : Tpc.t;
  doms : (string, string array * Zipf.zipf) Hashtbl.t;  (** sort → names by rank *)
}

let make_apps (p : params) : apps =
  let doms = Hashtbl.create 16 in
  List.iter
    (fun (sort, prefix, n) ->
      Hashtbl.replace doms sort
        (Array.init n (fun i -> prefix ^ string_of_int i), Zipf.zipf ~theta:p.app_theta n))
    sorts;
  let capacity =
    List.assoc "Capacity" (Ipa_spec.Catalog.tournament ()).Ipa_spec.Types.consts
  in
  {
    twitter = Twitter.create Twitter.Rem_wins;
    tournament = Tournament.create ~capacity Tournament.Ipa;
    ticket = Ticket.create Ticket.Ipa;
    tpc = Tpc.create Tpc.Ipa;
    doms;
  }

let exec_op (a : apps) (app : int) (name : string) (args : string list) :
    Config.op_exec =
  let op =
    match app with
    | 0 -> Twitter.exec_op a.twitter ~n_users:tw_p.Twitter.n_users name args
    | 1 -> Tournament.exec_op a.tournament name args
    | 2 -> Ticket.exec_op a.ticket name args
    | _ -> Tpc.exec_op a.tpc name args
  in
  match op with Some o -> o | None -> failwith ("no app op " ^ name)

(* One operation of a uniformly chosen app, from that app's next_op mix
   with Zipf-drawn arguments. *)
let draw_app_op (a : apps) (rng : Rng.t) : Config.op_exec =
  let arg sort =
    let names, z = Hashtbl.find a.doms sort in
    names.(Zipf.draw rng z)
  in
  let u () = arg "User" and tw () = arg "Tweet" and pl () = arg "Player" in
  let t () = arg "Tournament" and e () = arg "Event" and it () = arg "Item" in
  let app = Rng.int rng 4 in
  let op name args = exec_op a app name args in
  match app with
  | 0 ->
      if Rng.flip rng tw_p.Twitter.read_ratio then op "timeline" [ u () ]
      else begin
        match Rng.int rng 7 with
        | 0 -> let x = u () in op "do_tweet" [ x; tw () ]
        | 1 -> let x = u () in op "retweet" [ x; tw () ]
        | 2 -> op "del_tweet" [ tw () ]
        | 3 -> let x = u () in op "follow" [ x; u () ]
        | 4 -> let x = u () in op "unfollow" [ x; u () ]
        | 5 -> op "add_user" [ u () ]
        | _ -> op "rem_user" [ u () ]
      end
  | 1 ->
      if not (Rng.flip rng to_p.Tournament.write_ratio) then op "status" [ t () ]
      else begin
        match Rng.int rng 8 with
        | 0 -> op "add_player" [ pl () ]
        | 1 -> op "rem_player" [ pl () ]
        | 2 -> let x = pl () in op "enroll" [ x; t () ]
        | 3 -> let x = pl () in op "disenroll" [ x; t () ]
        | 4 -> op "begin_tourn" [ t () ]
        | 5 -> op "finish_tourn" [ t () ]
        | 6 ->
            let x = pl () in
            let y = pl () in
            op "do_match" [ x; y; t () ]
        | _ -> if Rng.flip rng 0.5 then op "add_tourn" [ t () ] else op "rem_tourn" [ t () ]
      end
  | 2 ->
      let r = Rng.float rng in
      if r < ti_p.Ticket.buy_ratio then op "buy_ticket" [ e () ]
      else if r < ti_p.Ticket.buy_ratio +. ti_p.Ticket.restock_ratio then
        op "add_tickets" [ e (); string_of_int ti_p.Ticket.restock_amount ]
      else op "read_event" [ e () ]
  | _ -> (
      match Rng.int rng 10 with
      | 0 -> op "add_item" [ it () ]
      | 1 -> op "rem_item" [ it () ]
      | n when float_of_int n < 2.0 +. (tp_p.Tpc.order_ratio *. 10.0) ->
          let o = arg "Order" in
          let c = arg "Customer" in
          op "new_order" [ o; c; it () ]
      | _ -> op "check_stock" [ it () ])

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* Span names, interned once. *)
let sp_exec = Span.id "apps.exec"
let sp_wal = Span.id "wal.append"
let sp_receive = Span.id "store.receive"
let sp_digest = Span.id "store.digest"
let sp_gc = Span.id "store.gc"
let sp_quiesce = Span.id "read.quiesce"
let sp_round = Span.id "sync.round"
let sp_descent = Span.id "sync.descent"
let sp_repair = Span.id "sync.repair"
let sp_tick = Span.id "escrow.tick"
let sp_checkpoint = Span.id "wal.checkpoint"
let sp_recover = Span.id "wal.recover"

type counters = {
  mutable ops : int;
  mutable failed : int;
  mutable aborts : int;  (** precondition aborts: app outcomes *)
  mutable updates : int;  (** committed client transactions *)
  mutable batches : int;
  mutable strong_rounds : int;
  mutable dirty : int;
  mutable gc_reclaimed : int;
  mutable retransmitted : int;
  mutable divergent : int;  (** keys the heal's descent found divergent *)
  mutable nodes_visited : int;
  mutable repair_bytes : int;
  mutable fetches : int;
  mutable dec_attempts : int;
  mutable dec_hits : int;
  mutable wal_bytes : int;  (** WAL bytes written, including those a checkpoint retired *)
}

let counters () =
  {
    ops = 0; failed = 0; aborts = 0; updates = 0; batches = 0; strong_rounds = 0;
    dirty = 0; gc_reclaimed = 0; retransmitted = 0; divergent = 0; nodes_visited = 0;
    repair_bytes = 0; fetches = 0; dec_attempts = 0; dec_hits = 0; wal_bytes = 0;
  }

type st = {
  p : params;
  cluster : Cluster.t;
  reps : Replica.t array;
  wals : Wal.t array;
  dir : string;
  sync : Sync.t;
  mgrs : Escrow.t array;
  apps : apps option;
  ckeys : string array;  (** counter keys *)
  ctruth : int array;
  ekeys : string array;  (** stock keys *)
  etruth : int array;
  read_keys : string array;  (** keys of the weak / strong Read.read probes *)
  mutable cut : int;  (** partitioned replica, or -1 *)
  mutable views : Cluster.t array;  (** the replicas a client at each replica reaches *)
  mutable stock_seq : int;  (** stock operations drawn so far *)
  mutable now : float;  (** modelled ms, drives backoff and escrow cooldowns *)
  mutable bound : Vclock.t;  (** staleness bound of the bounded reads *)
  mutable wal_base : int array;  (** WAL file sizes when the measured run starts *)
  mutable c : counters;
}

(* Partition replica [cut] (or heal with -1).  Clients of the cut
   replica reach only it; the others reach each other. *)
let set_cut (st : st) (cut : int) : unit =
  st.cut <- cut;
  st.views <-
    Array.init 3 (fun i ->
        if cut < 0 then st.cluster
        else if i = cut then { Cluster.replicas = [ st.reps.(i) ] }
        else
          {
            Cluster.replicas =
              List.filter (fun r -> r != st.reps.(cut)) st.cluster.Cluster.replicas;
          })

let blocked (st : st) (a : Replica.t) (b : Replica.t) : bool =
  st.cut >= 0
  && (a == st.reps.(st.cut) || b == st.reps.(st.cut))

let receive (r : Replica.t) (b : Replica.batch) : unit =
  Span.with_ sp_receive (fun () -> Replica.receive r b)

(* Deliver a committed batch to every reachable peer, withholding one
   batch in 17 from the origin's successor. *)
let deliver (st : st) (origin : int) (b : Replica.batch) : unit =
  st.c.batches <- st.c.batches + 1;
  let victim = if st.c.batches mod 17 = 0 then (origin + 1) mod 3 else -1 in
  Array.iteri
    (fun i r ->
      if i <> origin && i <> victim && not (blocked st st.reps.(origin) r) then
        receive r b)
    st.reps

let commit_deliver (st : st) (i : int) (tx : Txn.t) : unit =
  match Txn.commit tx with Some b -> deliver st i b | None -> ()

let dirty_entries (c : Cluster.t) : int =
  List.fold_left
    (fun acc (r : Replica.t) ->
      Array.fold_left (fun acc sh -> acc + sh.Replica.sh_dirty_n) acc r.Replica.shards)
    0 c.Cluster.replicas

let quiescent (st : st) (c : Cluster.t) : bool =
  if !Span.enabled then st.c.dirty <- st.c.dirty + dirty_entries c;
  Span.with_ sp_digest (fun () -> Cluster.quiescent c)

let send (st : st) ~(src : Replica.t) ~(dst : Replica.t) (b : Replica.batch) =
  if not (blocked st src dst) then receive dst b

let sync_round (st : st) : unit =
  st.now <- st.now +. 10.0;
  let n =
    Span.with_ sp_round (fun () -> Sync.round st.sync ~now:st.now ~send:(send st))
  in
  st.c.retransmitted <- st.c.retransmitted + n;
  st.bound <- st.reps.(0).Replica.vv

let gc_all (st : st) : unit =
  Array.iter
    (fun r ->
      st.c.gc_reclaimed <- st.c.gc_reclaimed + Span.with_ sp_gc (fun () -> Replica.gc r))
    st.reps

(* The escrow planner's tick, piggybacked on anti-entropy rounds. *)
let escrow_tick (st : st) ~(now : float) : unit =
  Span.with_ sp_tick (fun () ->
      Array.iteri
        (fun i (r : Replica.t) ->
          if i <> st.cut then
            Array.iter
              (fun key ->
                match Replica.peek r key with
                | None -> ()
                | Some o -> (
                    match Escrow.tick st.mgrs.(i) ~now ~key (Obj.as_bcounter o) with
                    | [] -> ()
                    | ops ->
                        let tx = Txn.begin_ r in
                        ignore (Txn.get tx key Obj.T_bcounter);
                        List.iter (fun op -> Txn.update tx key (Obj.Op_bcounter op)) ops;
                        commit_deliver st i tx))
              st.ekeys)
        st.reps)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let seed_apps (st : st) (a : apps) : unit =
  Twitter.seed_data a.twitter tw_p st.cluster;
  Tournament.seed_data a.tournament to_p st.cluster;
  Ticket.seed_data a.ticket ti_p st.cluster;
  Tpc.seed_data a.tpc tp_p st.cluster

let populate_counters (st : st) : unit =
  let r0 = st.reps.(0) in
  let chunk = 4096 in
  let k = ref 0 in
  while !k < Array.length st.ckeys do
    let tx = Txn.begin_ r0 in
    for j = !k to min (Array.length st.ckeys) (!k + chunk) - 1 do
      let key = st.ckeys.(j) in
      let c = Obj.as_pncounter (Txn.get tx key Obj.T_pncounter) in
      Txn.update tx key (Obj.Op_pncounter (Pncounter.prepare c ~rep:r0.Replica.id 1));
      st.ctruth.(j) <- 1
    done;
    commit_deliver st 0 tx;
    k := !k + chunk
  done

(* The escrow experiment's "Planned" system: each stock key starts with
   [stock_pool] units, 70% of the rights at the key's home replica (rank
   mod 3) and 15% at each other; every manager's demand forecast is
   primed with the same bias. *)
let stock_pool = 32
let stock_keys = 12

let seed_stock (st : st) : unit =
  let r0 = st.reps.(0) in
  let ids = Array.to_list (Array.map (fun (r : Replica.t) -> r.Replica.id) st.reps) in
  Array.iteri
    (fun k key ->
      let hot = st.reps.(k mod 3).Replica.id in
      let tx = Txn.begin_ r0 in
      ignore (Txn.get tx key Obj.T_bcounter);
      let shares =
        Ipa_core.Escrow_plan.apportion ~total:stock_pool
          (List.map (fun id -> (id, if id = hot then 0.7 else 0.15)) ids)
      in
      List.iter
        (fun op -> Txn.update tx key (Obj.Op_bcounter op))
        (Escrow.seed ~shares ~value:stock_pool ());
      st.etruth.(k) <- stock_pool;
      commit_deliver st 0 tx;
      Array.iter
        (fun mgr ->
          Escrow.forecast mgr ~key
            (List.map (fun id -> (id, if id = hot then 0.8 else 0.1)) ids))
        st.mgrs)
    st.ekeys

let build ~(dir : string) (p : params) : st =
  let cluster = Cluster.create rep_specs in
  let reps = Array.of_list cluster.Cluster.replicas in
  rm_rf dir;
  let wals =
    Array.map
      (fun (r : Replica.t) ->
        let w = Wal.create ~group_commit:8 ~dir ~id:r.Replica.id () in
        Wal.attach w r;
        let on_commit = r.Replica.on_commit and on_apply = r.Replica.on_apply in
        r.Replica.on_commit <- (fun b -> Span.with_ sp_wal (fun () -> on_commit b));
        r.Replica.on_apply <- (fun b -> Span.with_ sp_wal (fun () -> on_apply b));
        w)
      reps
  in
  let sync = Sync.create ~base_backoff_ms:10.0 ~max_backoff_ms:40.0 cluster in
  let policy = { Escrow.default_policy with hysteresis = 0.02; min_batch = 1; slack = 4 } in
  let apps = if p.apps then Some (make_apps p) else None in
  let read_keys =
    if p.apps then
      [| "tweets"; "users"; "players"; "tournaments"; "events"; "items"; "orders";
         "avail:e0"; "stock:i0"; "timeline:u0"; "enrolled:t0" |]
    else Array.init 64 (fun i -> Printf.sprintf "c%07d" i)
  in
  let st =
    {
      p;
      cluster;
      reps;
      wals;
      dir;
      sync;
      mgrs = Array.map (fun (r : Replica.t) -> Escrow.create ~policy ~rep:r.Replica.id ()) reps;
      apps;
      ckeys = Array.init p.counter_keys (Printf.sprintf "c%07d");
      ctruth = Array.make p.counter_keys 0;
      ekeys = Array.init stock_keys (Printf.sprintf "stock%02d");
      etruth = Array.make stock_keys 0;
      read_keys;
      cut = -1;
      views = [||];
      stock_seq = 0;
      now = 0.0;
      bound = Vclock.empty;
      wal_base = [| 0; 0; 0 |];
      c = counters ();
    }
  in
  set_cut st (-1);
  sync.Sync.on_round <- Some (fun ~now -> escrow_tick st ~now);
  Option.iter (seed_apps st) apps;
  populate_counters st;
  seed_stock st;
  ignore (quiescent st cluster);
  st

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(* Op kinds of a plan slot. *)
let k_app = 0
let k_weak = 1
let k_bounded = 2
let k_strong = 3
let k_dec = 4
let k_inc = 5
let k_counter = 6

type plan = {
  kind : int array;
  x : int array;  (** read key / stock key *)
  region : int array;  (** replica of a stock operation, -1 for round-robin *)
  app_ops : Config.op_exec array;
  keys : int array;  (** counter transaction keys, [txn_keys] per slot *)
  deltas : int array;
}

let no_op =
  { Config.op_name = ""; is_update = false; reservations = []; run = (fun _ -> Config.outcome None) }

let make_plan (p : params) : plan =
  {
    kind = Array.make p.epoch_ops 0;
    x = Array.make p.epoch_ops 0;
    region = Array.make p.epoch_ops (-1);
    app_ops = Array.make p.epoch_ops no_op;
    keys = Array.make (p.epoch_ops * max 1 p.txn_keys) 0;
    deltas = Array.make (p.epoch_ops * max 1 p.txn_keys) 0;
  }

let stock_zipf = Zipf.zipf ~theta:0.99 stock_keys

(* The escrow experiment's stream: every 8th stock operation restocks 8
   units at the warehouse (replica 0); the others decrement one unit,
   70% of them at the key's home replica, the rest anywhere. *)
let draw_stock (st : st) (rng : Rng.t) (pl : plan) (i : int) : unit =
  let k = Zipf.draw rng stock_zipf in
  let restock = st.stock_seq mod 8 = 7 in
  st.stock_seq <- st.stock_seq + 1;
  pl.x.(i) <- k;
  if restock then begin
    pl.kind.(i) <- k_inc;
    pl.region.(i) <- 0
  end
  else begin
    pl.kind.(i) <- k_dec;
    pl.region.(i) <- (if Rng.flip rng 0.7 then k mod 3 else Rng.int rng 3)
  end

let fill_plan (st : st) (rng : Rng.t) (pl : plan) (zk : Zipf.zipf option) : unit =
  let p = st.p in
  let read_x () =
    match zk with Some z -> Zipf.draw rng z | None -> Rng.int rng (Array.length st.read_keys)
  in
  for i = 0 to p.epoch_ops - 1 do
    let u = Rng.float rng in
    pl.region.(i) <- -1;
    if u < p.p_strong then begin
      pl.kind.(i) <- k_strong;
      pl.x.(i) <- read_x ()
    end
    else if u < p.p_strong +. p.p_read then begin
      pl.kind.(i) <- (if Rng.flip rng 0.5 then k_weak else k_bounded);
      pl.x.(i) <- read_x ()
    end
    else if u < p.p_strong +. p.p_read +. p.p_stock then draw_stock st rng pl i
    else
      match (st.apps, zk) with
      | Some a, _ ->
          pl.kind.(i) <- k_app;
          pl.app_ops.(i) <- draw_app_op a rng
      | None, Some z ->
          for j = 0 to p.txn_keys - 1 do
            pl.keys.((i * p.txn_keys) + j) <- Zipf.draw rng z;
            pl.deltas.((i * p.txn_keys) + j) <- (if Rng.flip rng 0.5 then 1 else -1)
          done;
          pl.kind.(i) <- k_counter
      | None, None -> invalid_arg "Replicate: no update source"
  done

(* Run an app operation; true for a read-only one. *)
let run_app_op (st : st) (e : Config.op_exec) (i : int) : bool =
  let out = Span.with_ sp_exec (fun () -> e.Config.run st.reps.(i)) in
  if out.Config.unavailable then st.c.failed <- st.c.failed + 1;
  (match out.Config.batch with
  | Some b ->
      if e.Config.is_update then st.c.updates <- st.c.updates + 1;
      deliver st i b
  | None -> if e.Config.is_update then st.c.aborts <- st.c.aborts + 1);
  not e.Config.is_update

(* Richest reachable peer's rights, fetched by a blocking Transfer. *)
let fetch_rights (st : st) (i : int) (key : string) : bool =
  let me = st.reps.(i) in
  let best = ref (-1) and have = ref 0 in
  Array.iteri
    (fun j (r : Replica.t) ->
      if j <> i && not (blocked st me r) then
        match Replica.peek r key with
        | Some o ->
            let h = Bcounter.local_rights (Obj.as_bcounter o) r.Replica.id in
            if h > !have then begin best := j; have := h end
        | None -> ())
    st.reps;
  if !best < 0 then false
  else begin
    st.c.fetches <- st.c.fetches + 1;
    let peer = st.reps.(!best) in
    let tx = Txn.begin_ peer in
    let c = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
    Txn.update tx key
      (Obj.Op_bcounter
         (Bcounter.prepare_transfer c ~from_:peer.Replica.id ~to_:me.Replica.id
            (max 1 (!have / 2))));
    (match Txn.commit tx with
    | Some b ->
        (* the requester blocks on the grant; the third replica learns
           of it like any other batch *)
        st.c.batches <- st.c.batches + 1;
        Array.iteri
          (fun j r -> if j <> !best && not (blocked st peer r) then receive r b)
          st.reps
    | None -> ());
    true
  end

let restock_units = 8

let stock_op (st : st) (i : int) (k : int) ~(dec : bool) : unit =
  let r = st.reps.(i) and key = st.ekeys.(k) in
  let attempt () =
    let tx = Txn.begin_ r in
    let c = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
    match
      if dec then Bcounter.prepare_dec c ~rep:r.Replica.id 1
      else Bcounter.prepare_inc c ~rep:r.Replica.id restock_units
    with
    | op ->
        Txn.update tx key (Obj.Op_bcounter op);
        (match Txn.commit tx with Some b -> deliver st i b | None -> ());
        st.c.updates <- st.c.updates + 1;
        st.etruth.(k) <- st.etruth.(k) + if dec then -1 else restock_units;
        true
    | exception Bcounter.Insufficient_rights _ ->
        Txn.abort tx;
        false
  in
  if dec then begin
    Escrow.note_dec st.mgrs.(i) ~key 1;
    st.c.dec_attempts <- st.c.dec_attempts + 1
  end;
  Span.with_ sp_exec (fun () ->
      if attempt () then (if dec then st.c.dec_hits <- st.c.dec_hits + 1)
      else if not (fetch_rights st i key && attempt ()) then
        (* globally sold out: an app outcome *)
        st.c.aborts <- st.c.aborts + 1)

let counter_txn (st : st) (pl : plan) (slot : int) (i : int) : unit =
  let r = st.reps.(i) in
  Span.with_ sp_exec (fun () ->
      let tx = Txn.begin_ r in
      for j = 0 to st.p.txn_keys - 1 do
        let k = pl.keys.((slot * st.p.txn_keys) + j) in
        let d = pl.deltas.((slot * st.p.txn_keys) + j) in
        let key = st.ckeys.(k) in
        let c = Obj.as_pncounter (Txn.get tx key Obj.T_pncounter) in
        Txn.update tx key (Obj.Op_pncounter (Pncounter.prepare c ~rep:r.Replica.id d));
        st.ctruth.(k) <- st.ctruth.(k) + d
      done;
      commit_deliver st i tx);
  st.c.updates <- st.c.updates + 1

let read_key (st : st) (x : int) : string =
  if Array.length st.ckeys > 0 then st.ckeys.(x) else st.read_keys.(x)

(* Quiesce the replicas the client reaches, then read. *)
let strong_read (st : st) (i : int) (key : string) : unit =
  let c = st.views.(i) in
  if not (quiescent st c) then
    st.c.strong_rounds <- st.c.strong_rounds + Span.with_ sp_quiesce (fun () -> Read.quiesce c);
  ignore (Read.read c Read.Strong ~prefer:st.reps.(i).Replica.id key)

(* ------------------------------------------------------------------ *)
(* The measured loop                                                   *)
(* ------------------------------------------------------------------ *)

type lat = {
  update : Stats.buf;
  read : Stats.buf;
  strong : Stats.buf;
  mutable sum_us : float;  (** every operation's latency, summed *)
}

let lat () = { update = Stats.buf (); read = Stats.buf (); strong = Stats.buf (); sum_us = 0.0 }

let run_op (st : st) (pl : plan) (lat : lat) (slot : int) : unit =
  let n = st.c.ops in
  st.c.ops <- n + 1;
  Span.op := n;
  let kind = pl.kind.(slot) in
  let i =
    let i = if pl.region.(slot) >= 0 then pl.region.(slot) else n mod 3 in
    (* a partitioned replica can neither fetch rights nor reach the
       others, so its stock and strong-read clients fail over *)
    if i = st.cut && (kind = k_strong || kind = k_dec || kind = k_inc) then (i + 1) mod 3
    else i
  in
  let x = pl.x.(slot) in
  let prefer = st.reps.(i).Replica.id in
  let t0 = Span.now_ns () in
  let is_read =
    try
      if kind = k_app then run_app_op st pl.app_ops.(slot) i
      else if kind = k_counter then (counter_txn st pl slot i; false)
      else if kind = k_dec || kind = k_inc then (stock_op st i x ~dec:(kind = k_dec); false)
      else if kind = k_weak then begin
        ignore (Read.read st.views.(i) Read.Weak ~prefer (read_key st x));
        true
      end
      else if kind = k_bounded then begin
        ignore (Read.read st.views.(i) (Read.Bounded st.bound) ~prefer (read_key st x));
        true
      end
      else (strong_read st i (read_key st x); false)
    with e ->
      Printf.eprintf "op %d (kind %d) failed: %s\n%!" n kind (Printexc.to_string e);
      st.c.failed <- st.c.failed + 1;
      false
  in
  let us = float_of_int (Span.now_ns () - t0) /. 1e3 in
  lat.sum_us <- lat.sum_us +. us;
  Stats.push
    (if kind = k_strong then lat.strong else if is_read then lat.read else lat.update)
    us

let wal_size (st : st) (i : int) : int =
  let path = Wal.wal_path ~dir:st.dir ~id:st.reps.(i).Replica.id in
  if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

(* WAL bytes replica [i] wrote since the measured run started. *)
let wal_written (st : st) (i : int) : int =
  Wal.flush st.wals.(i);
  wal_size st i - st.wal_base.(i)

(* Heal the partition: descend the digest trees and ship deltas both
   ways between the cut replica and each peer. *)
let heal (st : st) : unit =
  let cut = st.reps.(st.cut) in
  set_cut st (-1);
  Array.iter
    (fun (r : Replica.t) ->
      if r != cut then begin
        let d = Span.with_ sp_descent (fun () -> Sync.divergent_keys ~a:cut ~b:r) in
        st.c.divergent <- st.c.divergent + List.length d.Sync.divergent;
        st.c.nodes_visited <- st.c.nodes_visited + d.Sync.nodes_visited;
        List.iter
          (fun (src, dst) ->
            let s =
              Span.with_ sp_repair (fun () -> Sync.repair st.sync ~mode:Sync.Deltas ~src ~dst)
            in
            st.c.repair_bytes <- st.c.repair_bytes + s.Sync.r_bytes)
          [ (r, cut); (cut, r) ]
      end)
    st.reps

(* Drive anti-entropy until every replica agrees; returns ms taken. *)
let converge (st : st) : float =
  let t0 = Span.now_ns () in
  let rounds = ref 0 in
  while not (quiescent st st.cluster) do
    incr rounds;
    if !rounds > 1000 then failwith "converge: no quiescence after 1000 rounds";
    sync_round st
  done;
  float_of_int (Span.now_ns () - t0) /. 1e6

(* Exact output checks on the converged cluster. *)
let output_checks (st : st) : (string * bool) list =
  let counters_ok =
    Array.for_all
      (fun (r : Replica.t) ->
        let ok = ref true in
        Array.iteri
          (fun k key ->
            let v =
              match Replica.peek r key with
              | Some o -> Pncounter.value (Obj.as_pncounter o)
              | None -> 0
            in
            if v <> st.ctruth.(k) then ok := false)
          st.ckeys;
        !ok)
      st.reps
  in
  let stock_ok =
    Array.for_all
      (fun (r : Replica.t) ->
        let ok = ref true in
        Array.iteri
          (fun k key ->
            match Replica.peek r key with
            | Some o ->
                let c = Obj.as_bcounter o in
                if Bcounter.audit c <> None || Bcounter.value c <> st.etruth.(k) then
                  ok := false
            | None -> ok := false)
          st.ekeys;
        !ok)
      st.reps
  in
  let invariants_ok =
    match st.apps with
    | None -> true
    | Some _ ->
        List.for_all
          (fun app ->
            let h = Ipa_check.Harness.make ~app ~repaired:true in
            let checked = Ipa_check.Harness.ground_checked h in
            Array.for_all
              (fun r ->
                let batom, bnum = h.Ipa_check.Harness.valuation r in
                List.for_all
                  (fun (_, g) -> Ipa_logic.Ground.eval ~batom ~bnum g)
                  checked)
              st.reps)
          (Array.to_list app_names)
  in
  [ ("the partition left divergent keys for the heal", st.c.divergent > 0);
    ("counter values = committed deltas", counters_ok);
    ("stock audit and values", stock_ok);
    ("app invariants hold on the harness domain", invariants_ok) ]

type result = {
  st : st;
  lat : lat;
  loop_s : float;  (** wall seconds of the epochs, generation excluded *)
  epoch_s : float array;  (** wall seconds of each epoch *)
  epoch_us : float array;  (** mean operation latency of each epoch *)
  minor_words : float;  (** allocated over the epochs, generation included *)
  major_collections : int;
  converge_ms : float list;
  recover_ms : float;
  recovery : Wal.recovery;
  checks : (string * bool) list;
}

(* The number of epochs a run of [seconds] makes: a fixed amount of
   work, sized on the reference host, so that every commit measures the
   same operations and the count-type layer metrics repeat exactly. *)
let epochs (p : params) ~(seconds : float) : int =
  max 3 (int_of_float (Float.round (seconds *. p.epochs_per_s)))

let key_zipf (st : st) : Zipf.zipf option =
  let p = st.p in
  if p.counter_keys > 0 then Some (Zipf.zipf ~theta:p.counter_theta p.counter_keys)
  else if p.apps then Some (Zipf.zipf ~theta:p.app_theta (Array.length st.read_keys))
  else None

let epoch_ops (st : st) (pl : plan) (lat : lat) : unit =
  for slot = 0 to st.p.epoch_ops - 1 do
    run_op st pl lat slot;
    if (slot + 1) mod st.p.sync_every = 0 then sync_round st;
    if (slot + 1) mod st.p.gc_every = 0 then gc_all st
  done

(* Build the cluster and run one unmeasured epoch from a fixed stream,
   so that lazy initialisation (interning, digest caches, WAL buffers,
   escrow estimates) is done before the measured loop. *)
let setup ~(dir : string) (p : params) : st =
  let st = build ~dir p in
  let pl = make_plan p in
  fill_plan st (Rng.create 0) pl (key_zipf st);
  epoch_ops st pl (lat ());
  st.c <- { (counters ()) with failed = st.c.failed };
  st.wal_base <- Array.init 3 (wal_written st);
  st

let run ~(epochs : int) (st : st) (rng : Rng.t) : result =
  let pl = make_plan st.p in
  let lat = lat () in
  let zk = key_zipf st in
  let loop_ns = ref 0 in
  let converge_ms = ref [] in
  let epoch_s = Array.make epochs 0.0 and epoch_us = Array.make epochs 0.0 in
  let g0 = Gc.quick_stat () in
  let epoch = ref 0 in
  while !epoch < epochs do
    fill_plan st rng pl zk;
    if !epoch = 1 then set_cut st 2;
    let t0 = Span.now_ns () in
    let sum0 = lat.sum_us in
    epoch_ops st pl lat;
    epoch_us.(!epoch) <- (lat.sum_us -. sum0) /. float_of_int st.p.epoch_ops;
    if !epoch = 1 then begin
      let h0 = Span.now_ns () in
      heal st;
      ignore (converge st);
      converge_ms := (float_of_int (Span.now_ns () - h0) /. 1e6) :: !converge_ms
    end;
    if !epoch = 2 then begin
      st.c.wal_bytes <- st.c.wal_bytes + wal_written st 0;
      st.wal_base.(0) <- 0;
      Span.with_ sp_checkpoint (fun () -> Wal.checkpoint st.wals.(0) st.reps.(0))
    end;
    let dt = Span.now_ns () - t0 in
    epoch_s.(!epoch) <- float_of_int dt /. 1e9;
    loop_ns := !loop_ns + dt;
    incr epoch
  done;
  let g1 = Gc.quick_stat () in
  Span.op := -1;
  (* crash replica 0 at a durable point and recover it from its WAL *)
  let w0 = st.wals.(0) and r0 = st.reps.(0) in
  st.c.wal_bytes <- st.c.wal_bytes + Array.fold_left ( + ) 0 (Array.init 3 (wal_written st));
  let pre = Replica.state_digest r0 in
  Wal.crash w0;
  let t0 = Span.now_ns () in
  let recovery = Span.with_ sp_recover (fun () -> Wal.recover w0 r0) in
  let recover_ms = float_of_int (Span.now_ns () - t0) /. 1e6 in
  let recovered_ok = Replica.state_digest r0 = pre in
  let final = converge st in
  let d0 = Replica.state_digest r0 in
  let converged = Array.for_all (fun r -> Replica.state_digest r = d0) st.reps in
  let checks =
    [ ("recovered digest = pre-crash digest", recovered_ok);
      ("state digests equal after convergence", converged) ]
    @ output_checks st
  in
  {
    st;
    lat;
    loop_s = float_of_int !loop_ns /. 1e9;
    epoch_s;
    epoch_us;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    converge_ms = List.rev (final :: !converge_ms);
    recover_ms;
    recovery;
    checks;
  }

let close (st : st) : unit =
  Array.iter Wal.close st.wals;
  rm_rf st.dir
