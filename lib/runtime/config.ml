(** System configurations of the evaluation (§5.2.1).

    All four configurations execute {e real} transactions against the
    replicated store; they differ in where an operation runs and what
    coordination it pays before running:

    - {b Local} (used for both {e Causal} and {e IPA}): execute at the
      client's co-located replica, replicate asynchronously.  IPA differs
      from Causal only in the application code (extra restoring effects),
      so both use this mode.
    - {b Strong}: updates are forwarded to a single primary region
      (us-east in the paper) and pay the WAN round-trip; reads stay
      local.
    - {b Indigo}: an operation needs reservations.  Each reservation is
      the rights of a bounded counter with one unit per replica, under
      its own store key; the requester pulls the units it lacks from
      its peers ({!Ipa_store.Rights.acquire}), paying the round-trip to
      the farthest peer pulled from, and then executes locally.
    - {b Hybrid}: IPA, with the operations the analysis flagged sent
      down the Indigo path with exclusive reservations.

    Time model: client↔local-replica LAN RTT plus a service time of
    [service_base] + [service_per_update] × (number of update effects) —
    the cost model behind Figure 8's microbenchmarks. *)

open Ipa_store
open Ipa_sim

(** Result of running an operation's transaction at some replica. *)
type outcome = {
  batch : Replica.batch option;
  violations : int;  (** violation units this operation observed/repaired *)
  extra_work : int;
      (** additional service-time units beyond the update count, e.g.
          objects read and filtered by a read-side compensation *)
  extra_rtts : int;
      (** WAN round-trips the operation performed internally (e.g. an
          escrow rights transfer) — charged to its latency *)
  unavailable : bool;
      (** the configuration could not execute the operation (failure
          injection, §5.2.5): Strong with a down primary, Indigo with an
          unreachable reservation holder *)
}

let outcome ?(violations = 0) ?(extra_work = 0) ?(extra_rtts = 0) batch =
  { batch; violations; extra_work; extra_rtts; unavailable = false }

let unavailable_outcome =
  {
    batch = None;
    violations = 0;
    extra_work = 0;
    extra_rtts = 0;
    unavailable = true;
  }

(** Reservation kinds (Indigo): a reservation is a {!Ipa_crdt.Bcounter}
    of N rights, N the replica count.  [Shared]: hold ≥ 1 unit — every
    replica can, so after the first acquisition it never moves (Indigo's
    reservations are "exchanged very infrequently", §5.2.2).
    [Exclusive]: hold all N — conservation makes that exclusive. *)
type res_kind = Shared | Exclusive

(** An executable operation: the application provides the real
    transaction code plus the metadata the configurations need. *)
type op_exec = {
  op_name : string;
  is_update : bool;
  reservations : (string * res_kind) list;  (** resources Indigo must hold *)
  run : Replica.t -> outcome;
}

(** Per-operation read-level annotation (the consistency-typed client
    API of {!Ipa_store.Read}, threaded through the runtime's latency
    model).  [RL_bounded] carries a staleness budget in milliseconds;
    the runtime resolves it against its commit-clock history into the
    bound clock a replica must cover. *)
type read_level =
  | RL_weak  (** any replica, immediately — the Local read path *)
  | RL_bounded of float
      (** staleness budget (ms): the reply must reflect every operation
          committed anywhere up to [now − budget] *)
  | RL_strong
      (** reflect everything committed: the same bound as
          [RL_bounded 0.0] *)

type mode =
  | Local  (** Causal / IPA: everything at the client's replica *)
  | Strong  (** updates forwarded to the primary region *)
  | Indigo  (** reservation-protected operations *)
  | Hybrid of (string -> bool)
      (** IPA with coordination fallback: operations the analysis
          {e flagged} (the predicate, by operation name) take the
          reservation path; everything else runs locally.  This is the
          paper's §3 step 3: "for conflicts flagged as unsolvable by
          IPA, the programmer can resort to some coordination
          mechanism". *)

type t = {
  mode : mode;
  engine : Engine.t;
  net : Net.t;
  cluster : Cluster.t;
  service_base : float;
  service_per_update : float;
      (** processing cost per update effect (object already loaded) *)
  service_per_object : float;
      (** storage read+write cost per {e distinct} object touched — an
          object is read and written once per transaction; further
          updates to it only pay [service_per_update] (§5.2.5) *)
  server_slots : (string, float array) Hashtbl.t;
      (** per-region busy-until times: a simple multi-server queue so
          latency rises as the offered load approaches capacity *)
  down_until : (string, float) Hashtbl.t;
      (** failure injection: regions unreachable until the given time *)
  sync : Sync.t option;  (** anti-entropy, when enabled *)
  sent_at : (string * int, float) Hashtbl.t;
      (** batch key → commit time, for visibility-latency measurement *)
  mutable vis_samples : float list;
      (** visibility latencies: commit at origin → apply at a remote
          replica *)
  history : Read.history;
      (** every committed batch's after-clock, timestamped — what
          {!bound_clock} resolves staleness budgets against *)
}

(* the primary region of [Strong], the per-region service parallelism,
   and the extra processing per reservation transfer (ms) *)
let primary = "us-east"
let server_threads = 8
let reservation_rtt_overhead = 1.0

let create ?(service_base = 1.0) ?(service_per_update = 0.05)
    ?(service_per_object = 0.3) ?(sync_interval_ms = 0.0)
    ?sync_base_backoff_ms ~(mode : mode) ~(engine : Engine.t) ~(net : Net.t)
    ~(cluster : Cluster.t) () : t =
  let sync =
    if sync_interval_ms > 0.0 then
      Some (Sync.create ?base_backoff_ms:sync_base_backoff_ms cluster)
    else None
  in
  let cfg =
    {
      mode;
      engine;
      net;
      cluster;
      service_base;
      service_per_update;
      service_per_object;
      server_slots = Hashtbl.create 8;
      down_until = Hashtbl.create 4;
      sync;
      sent_at = Hashtbl.create 1024;
      vis_samples = [];
      history = Read.history ();
    }
  in
  (* visibility hook: every remote apply is timed against the origin's
     commit (first-copy-wins; duplicates never reach the hook) *)
  List.iter
    (fun (r : Replica.t) ->
      r.Replica.on_apply <-
        (fun b ->
          match
            Hashtbl.find_opt cfg.sent_at (b.Replica.b_origin, b.Replica.b_seq)
          with
          | Some t0 ->
              cfg.vis_samples <- (Engine.now engine -. t0) :: cfg.vis_samples
          | None -> ()))
    cluster.Cluster.replicas;
  (* anti-entropy: a recurring round whose retransmissions travel the
     same faulty data path as first transmissions *)
  (match sync with
  | Some s ->
      let send ~(src : Replica.t) ~(dst : Replica.t) (b : Replica.batch) =
        let now = Engine.now engine in
        let dst_down =
          match Hashtbl.find_opt cfg.down_until dst.Replica.region with
          | Some until -> now < until
          | None -> false
        in
        (* an unreachable region is retried on a later round (backoff) *)
        if not dst_down then
          List.iter
            (fun delay ->
              Engine.schedule engine ~delay (fun () -> Replica.receive dst b))
            (Net.deliveries net ~now ~src:src.Replica.region
               ~dst:dst.Replica.region)
      in
      let rec tick () =
        ignore (Sync.round s ~now:(Engine.now engine) ~send);
        Engine.schedule engine ~delay:sync_interval_ms tick
      in
      Engine.schedule engine ~delay:sync_interval_ms tick
  | None -> ());
  cfg

(** Inject a failure: [region] is unreachable for [for_ms] from now.
    Batches addressed to it are delivered after it recovers. *)
let fail_region (cfg : t) (region : string) ~(for_ms : float) : unit =
  Hashtbl.replace cfg.down_until region (Engine.now cfg.engine +. for_ms)

let is_down (cfg : t) (region : string) : bool =
  match Hashtbl.find_opt cfg.down_until region with
  | Some t -> Engine.now cfg.engine < t
  | None -> false

(* where a client's op runs — its own region if alive, else the closest
   live one (§5.2.5) — and the client's round-trip to it *)
let exec_route (cfg : t) (client : string) : (string * float) option =
  let lan = Net.rtt cfg.net client client in
  if not (is_down cfg client) then Some (client, lan)
  else
    cfg.cluster.Cluster.replicas
    |> List.filter_map (fun (r : Replica.t) ->
           if is_down cfg r.Replica.region then None
           else Some (r.Replica.region, Net.mean_rtt cfg.net client r.Replica.region))
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> function
    | (best, _) :: _ -> Some (best, Net.rtt cfg.net client best)
    | [] -> None

let replica_in (cfg : t) (region : string) : Replica.t =
  List.find
    (fun (r : Replica.t) -> r.Replica.region = region)
    cfg.cluster.Cluster.replicas

(* asynchronously replicate a committed batch to all peers through the
   network's fault plan (each transmission can be lost, duplicated or
   tail-delayed; anti-entropy recovers losses); delivery to a down
   region waits for its recovery *)
let replicate (cfg : t) (origin_region : string) (b : Replica.batch) : unit =
  let now = Engine.now cfg.engine in
  Hashtbl.replace cfg.sent_at (b.Replica.b_origin, b.Replica.b_seq) now;
  Read.push cfg.history ~now b.Replica.b_after;
  List.iter
    (fun (peer : Replica.t) ->
      if peer.Replica.id <> b.Replica.b_origin then
        List.iter
          (fun delay ->
            let delay =
              match Hashtbl.find_opt cfg.down_until peer.Replica.region with
              | Some until -> max delay (until -. now +. delay)
              | None -> delay
            in
            Engine.schedule cfg.engine ~delay (fun () ->
                Replica.receive peer b))
          (Net.deliveries cfg.net ~now ~src:origin_region
             ~dst:peer.Replica.region))
    cfg.cluster.Cluster.replicas

let service_time (cfg : t) (o : outcome) : float =
  let updates, objects =
    match o.batch with
    | Some b ->
        ( List.length b.Replica.b_updates,
          List.length
            (List.sort_uniq compare (List.map fst b.Replica.b_updates)) )
    | None -> (0, 0)
  in
  cfg.service_base
  +. (cfg.service_per_update *. float_of_int (updates + o.extra_work))
  +. (cfg.service_per_object *. float_of_int objects)

(* multi-server FIFO queue per region: returns queueing delay and books
   the service slot *)
let queue_delay (cfg : t) (region : string) (svc : float) : float =
  let slots =
    match Hashtbl.find_opt cfg.server_slots region with
    | Some a -> a
    | None ->
        let a = Array.make server_threads 0.0 in
        Hashtbl.replace cfg.server_slots region a;
        a
  in
  let now = Engine.now cfg.engine in
  (* earliest-available slot *)
  let best = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!best) then best := i
  done;
  let start = max now slots.(!best) in
  slots.(!best) <- start +. svc;
  start -. now

(* run the op at a replica, replicate, return service time including
   any queueing delay at that region's servers *)
let run_at (cfg : t) (region : string) (op : op_exec) : outcome * float =
  let rep = replica_in cfg region in
  let o = op.run rep in
  (match o.batch with Some b -> replicate cfg region b | None -> ());
  let svc = service_time cfg o in
  let wait = queue_delay cfg region svc in
  (o, wait +. svc)

(* Local (Causal / IPA): available while ANY server is reachable *)
let execute_local (cfg : t) ~(client_region : string) (op : op_exec)
    ~(complete : float -> outcome -> unit) : unit =
  match exec_route cfg client_region with
  | None -> complete 0.0 unavailable_outcome
  | Some (exec_region, hop) ->
      let o, svc = run_at cfg exec_region op in
      (* internal coordination rounds (escrow transfers) pay a WAN
         round-trip to the nearest peer each *)
      let coord =
        if o.extra_rtts = 0 then 0.0
        else
          let nearest =
            List.fold_left
              (fun acc (r : Replica.t) ->
                if r.Replica.region = exec_region then acc
                else min acc (Net.mean_rtt cfg.net exec_region r.Replica.region))
              infinity cfg.cluster.Cluster.replicas
          in
          float_of_int o.extra_rtts *. nearest
      in
      let lat = hop +. svc +. coord in
      Engine.schedule cfg.engine ~delay:lat (fun () -> complete lat o)

(* Strong: updates forwarded to the primary, reads local *)
let execute_strong (cfg : t) ~(client_region : string) (op : op_exec)
    ~(complete : float -> outcome -> unit) : unit =
  let lan = Net.rtt cfg.net client_region client_region in
  if is_down cfg primary && op.is_update then complete 0.0 unavailable_outcome
  else if not op.is_update then begin
    let o, svc = run_at cfg client_region op in
    let lat = lan +. svc in
    Engine.schedule cfg.engine ~delay:lat (fun () -> complete lat o)
  end
  else begin
    (* forward to the primary, execute there, reply over the WAN *)
    let to_primary = Net.one_way cfg.net client_region primary in
    Engine.schedule cfg.engine ~delay:to_primary (fun () ->
        let o, svc = run_at cfg primary op in
        let back = Net.one_way cfg.net primary client_region in
        let lat = lan +. to_primary +. svc +. back in
        Engine.schedule cfg.engine ~delay:(svc +. back) (fun () ->
            complete lat o))
  end

(** The store key of a reservation's rights, clear of application keys. *)
let reservation_key (res : string) : string = "rsv:" ^ res

(* Indigo: acquire every reservation at the client's replica, then run
   there.  A reservation is a bounded counter of N rights (N replicas):
   [Shared] needs one unit, [Exclusive] all N.  The units pulled from
   peers cost the farthest pull's round-trip; a key no replica has seen
   yet originates at the requester with all N.  An acquisition the
   reachable replicas cannot cover blocks the operation, and nothing is
   committed (§5.2.5). *)
let execute_coordinated (cfg : t) ~(client_region : string) (op : op_exec)
    ~(complete : float -> outcome -> unit) : unit =
  let lan = Net.rtt cfg.net client_region client_region in
  let replicas = cfg.cluster.Cluster.replicas in
  let n = List.length replicas in
  let rep = replica_in cfg client_region in
  let reachable (r : Replica.t) = not (is_down cfg r.Replica.region) in
  let wants =
    List.map
      (fun (res, kind) ->
        (reservation_key res, match kind with Shared -> 1 | Exclusive -> n))
      op.reservations
  in
  let fresh key = List.for_all (fun r -> Replica.peek r key = None) replicas in
  let blocked (key, need) =
    (not (fresh key))
    && Rights.plan ~reachable cfg.cluster Rights.Rights rep ~key ~need = None
  in
  if is_down cfg client_region || List.exists blocked wants then
    complete 0.0 unavailable_outcome
  else
    let acquire acc (key, need) =
      if fresh key then begin
        let tx = Txn.begin_ rep in
        let c = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
        Txn.update tx key
          (Obj.Op_bcounter
             (Ipa_crdt.Bcounter.prepare_inc c ~rep:rep.Replica.id n));
        Option.iter (Cluster.broadcast_now cfg.cluster) (Txn.commit tx);
        acc
      end
      else
        Rights.acquire ~reachable cfg.cluster Rights.Rights rep ~key ~need
        |> Option.value ~default:[]
        |> List.fold_left
             (fun acc ((peer : Replica.t), _) ->
               max acc
                 (Net.rtt cfg.net client_region peer.Replica.region
                 +. reservation_rtt_overhead))
             acc
    in
    let acq_delay = List.fold_left acquire 0.0 wants in
    Engine.schedule cfg.engine ~delay:acq_delay (fun () ->
        let o, svc = run_at cfg client_region op in
        let lat = acq_delay +. lan +. svc in
        Engine.schedule cfg.engine ~delay:(lan +. svc) (fun () ->
            complete lat o))

(** Execute an operation for a client in [client_region]; calls
    [complete] with (latency in ms, outcome) when the client would
    receive the reply. *)
let execute (cfg : t) ~(client_region : string) (op : op_exec)
    ~(complete : float -> outcome -> unit) : unit =
  match cfg.mode with
  | Local -> execute_local cfg ~client_region op ~complete
  | Strong -> execute_strong cfg ~client_region op ~complete
  | Indigo -> execute_coordinated cfg ~client_region op ~complete
  | Hybrid flagged ->
      (* flagged ops coordinate with exclusive reservations — shared
         rights would not serialize the pair — the rest run locally *)
      if flagged op.op_name then
        execute_coordinated cfg ~client_region
          {
            op with
            reservations =
              List.map (fun (r, _) -> (r, Exclusive)) op.reservations;
          }
          ~complete
      else execute_local cfg ~client_region op ~complete

(* ------------------------------------------------------------------ *)
(* Consistency-typed reads                                             *)
(* ------------------------------------------------------------------ *)

(** Resolve a staleness budget against the commit history
    ({!Read.bound_at}): budget 0 is the current committed clock. *)
let bound_clock (cfg : t) ~(staleness_ms : float) : Ipa_crdt.Vclock.t =
  Read.bound_at cfg.history ~now:(Engine.now cfg.engine) ~staleness_ms

(** Execute a read-only operation at a consistency level: the level
    resolves to a bound clock ([RL_strong] to the same bound as
    [RL_bounded 0.0]), {!Read.route} picks the serving replica among the
    reachable ones, nearest first, and the latency model prices its
    choice.  Serving at the exec replica pays the Local price (hop +
    queue + service); forwarding adds one round-trip to the covering
    replica; a catch-up adds a barrier — a round-trip to the farthest
    peer, during which the exec replica alone catches up to the cut
    over the control channel — and then serves locally. *)
let execute_read (cfg : t) ~(client_region : string) ~(level : read_level)
    (op : op_exec) ~(complete : float -> outcome -> unit) : unit =
  match exec_route cfg client_region with
  | None -> complete 0.0 unavailable_outcome
  | Some (exec_region, hop) -> (
      let home = replica_in cfg exec_region in
      let rtt (r : Replica.t) =
        Net.mean_rtt cfg.net exec_region r.Replica.region
      in
      let peers =
        List.filter
          (fun (r : Replica.t) -> r.Replica.region <> exec_region)
          cfg.cluster.Cluster.replicas
      in
      let candidates =
        List.filter
          (fun (r : Replica.t) -> not (is_down cfg r.Replica.region))
          peers
        |> List.sort (fun a b -> compare (rtt a) (rtt b))
      in
      let bound =
        match level with
        | RL_weak -> Ipa_crdt.Vclock.empty
        | RL_bounded staleness_ms -> bound_clock cfg ~staleness_ms
        | RL_strong -> bound_clock cfg ~staleness_ms:0.0
      in
      let serve_at region extra =
        let o, svc = run_at cfg region op in
        let lat = hop +. extra +. svc in
        Engine.schedule cfg.engine ~delay:lat (fun () -> complete lat o)
      in
      match Read.route ~home candidates bound with
      | Read.Home -> serve_at exec_region 0.0
      | Read.Forward r -> serve_at r.Replica.region (rtt r)
      | Read.Catch_up ->
          let barrier =
            List.fold_left (fun acc r -> max acc (rtt r)) 0.0 peers
          in
          Engine.schedule cfg.engine ~delay:barrier (fun () ->
              Read.catch_up cfg.cluster home;
              let o, svc = run_at cfg exec_region op in
              let lat = hop +. barrier +. svc in
              Engine.schedule cfg.engine ~delay:(hop +. svc) (fun () ->
                  complete lat o)))

(* ------------------------------------------------------------------ *)
(* Delivery observability                                              *)
(* ------------------------------------------------------------------ *)

(** Fold the replication-layer delivery statistics (network counters,
    anti-entropy retransmissions, per-replica duplicate suppression and
    pending-buffer high-water marks, visibility-latency samples) into a
    metrics record — called by {!Driver.run} after the workload ends. *)
let collect_delivery (cfg : t) (m : Metrics.t) : unit =
  let d = m.Metrics.delivery in
  let ns = Net.stats cfg.net in
  d.Metrics.batches_sent <- d.Metrics.batches_sent + ns.Net.sent;
  d.Metrics.batches_dropped <- d.Metrics.batches_dropped + ns.Net.dropped;
  d.Metrics.batches_duplicated <-
    d.Metrics.batches_duplicated + ns.Net.duplicated;
  (match cfg.sync with
  | Some s ->
      d.Metrics.batches_retransmitted <-
        d.Metrics.batches_retransmitted + s.Sync.retransmitted
  | None -> ());
  List.iter
    (fun (r : Replica.t) ->
      d.Metrics.duplicates_suppressed <-
        d.Metrics.duplicates_suppressed + r.Replica.duplicates_dropped;
      d.Metrics.pending_hwm <- max d.Metrics.pending_hwm r.Replica.pending_hwm)
    cfg.cluster.Cluster.replicas;
  List.iter (Metrics.record_visibility m) cfg.vis_samples
