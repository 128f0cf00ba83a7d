(** Escrow planner, runtime half: demand-aware rights placement and
    adaptive migration for bounded counters.

    The static half ({!Ipa_core.Escrow_plan}) extracts each bounded
    quantity from the spec and apportions its rights; this module turns
    a placement into the counter's seed operations and then keeps the
    partitioning matched to the {e observed} demand while the system
    runs:

    - every decrement attempt (covered or not) is noted locally and
      periodically published as an advisory {!Ipa_crdt.Bcounter.Demand}
      op riding an ordinary batch, so every replica can reconstruct
      every other replica's demand from its own copy of the counter;
    - at each migration tick (piggybacked on the anti-entropy round via
      {!Ipa_store.Sync.t.on_round}), a replica compares each peer's
      windowed demand share against its rights share and proactively
      ships part of its own surplus toward hot replicas — amortizing
      transfers into batches already flowing instead of paying a
      blocking WAN round-trip on exhaustion;
    - hysteresis (a minimum deficit before shipping, a minimum batch
      size, and a per-destination cooldown) keeps rights from
      ping-ponging between replicas under noisy demand.

    The same machinery drives the dual headroom ledger of capped
    counters (wildcard/aggregate invariants like a tournament's
    enrollment cap): increment attempts feed an [Hdemand] ledger and
    surplus headroom ships via [Hmove]. *)

open Ipa_crdt
open Ipa_store

type policy = {
  alpha : float;
      (** EWMA smoothing of per-tick demand deltas, in (0, 1]: 1 trusts
          only the last window, small values average long histories *)
  hysteresis : float;
      (** minimum peer deficit, as a fraction of the peer's target
          holding, before any rights ship toward it *)
  min_batch : int;  (** never ship fewer rights than this *)
  cooldown_ms : float;
      (** minimum time between ships to the same (key, destination) *)
  slack : int;
      (** burst headroom: peers are topped up to fair share + [slack],
          so a Poisson burst between ticks doesn't exhaust a low-share
          replica whose exact fair share is only a few rights *)
}

let default_policy =
  {
    alpha = 0.5;
    hysteresis = 0.05;
    min_batch = 2;
    cooldown_ms = 250.0;
    slack = 2;
  }

type stats = {
  mutable migrations : int;  (** proactive rights-moving ops committed *)
  mutable rights_migrated : int;  (** rights units shipped proactively *)
  mutable hmigrations : int;  (** headroom ops among them *)
  mutable headroom_migrated : int;
}

(** One manager per replica: windowed demand estimates and hysteresis
    state for every escrow-guarded key this replica serves. *)
type t = {
  rep : string;  (** the replica this manager decides for *)
  policy : policy;
  pending : (string, int) Hashtbl.t;
      (** key → local decrement attempts not yet published *)
  hpending : (string, int) Hashtbl.t;  (** dual: increment attempts *)
  last_cum : (string * string * bool, int) Hashtbl.t;
      (** (key, replica, headroom side) → cumulative demand at the last
          tick, for differencing the replicated ledgers *)
  rate : (string * string * bool, float) Hashtbl.t;
      (** (key, replica, headroom side) → EWMA of per-tick demand *)
  last_ship : (string * string * bool, float) Hashtbl.t;
      (** (key, destination, headroom side) → time of the last ship
          from this replica (cooldown) *)
  stats : stats;
}

let create ?(policy = default_policy) ~(rep : string) () : t =
  {
    rep;
    policy;
    pending = Hashtbl.create 64;
    hpending = Hashtbl.create 64;
    last_cum = Hashtbl.create 256;
    rate = Hashtbl.create 256;
    last_ship = Hashtbl.create 64;
    stats =
      {
        migrations = 0;
        rights_migrated = 0;
        hmigrations = 0;
        headroom_migrated = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Demand bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let bump tbl key n =
  Hashtbl.replace tbl key
    (n + match Hashtbl.find_opt tbl key with Some v -> v | None -> 0)

(** Note [n] decrement attempts against [key] at this replica (call on
    every attempt, covered or blocked — blocked demand is exactly what
    the planner must learn about). *)
let note_dec (t : t) ~(key : string) (n : int) : unit =
  bump t.pending key n

(** Dual: note increment attempts (headroom demand, capped counters). *)
let note_inc (t : t) ~(key : string) (n : int) : unit =
  bump t.hpending key n

(** Install the planner's predicted per-replica demand for [key] as the
    initial EWMA estimate ([headroom] selects the increment side), so
    the first ticks already migrate toward forecast demand instead of
    waiting for the observed ledgers to warm up.  Only the ratios
    matter: fair shares normalize by the total rate, and subsequent
    ticks blend real observations in through the EWMA. *)
let forecast (t : t) ~(key : string) ?(headroom = false)
    (weights : (string * float) list) : unit =
  List.iter
    (fun (r, w) -> Hashtbl.replace t.rate (key, r, headroom) w)
    weights

(* ------------------------------------------------------------------ *)
(* Initial placement                                                   *)
(* ------------------------------------------------------------------ *)

(** Seed operations establishing a counter with value [value] and its
    rights placed per [shares] — an apportioned placement, e.g. from
    [Ipa_core.Escrow_plan.apportion] over predicted demand weights (the
    first share's replica hosts the seeding increment).  With [?cap],
    the counter is capped at [cap] and the remaining headroom
    ([cap − value]) is placed by [hshares] (defaulting to [shares]).
    Every op is prepared against the evolving state, so the sequence is
    guard-checked end to end; commit it in one transaction at any
    replica and deliver it before concurrent use (the usual
    grant-seeding rule). *)
let seed ~(shares : (string * int) list) ~(value : int)
    ?(cap : int option) ?(hshares : (string * int) list option) () :
    Bcounter.op list =
  let home =
    match shares with (r, _) :: _ -> r | [] -> invalid_arg "Escrow.seed"
  in
  let ops = ref [] in
  let c = ref Bcounter.empty in
  let push op =
    c := Bcounter.apply !c op;
    ops := op :: !ops
  in
  if value > 0 then push (Bcounter.prepare_inc !c ~rep:home value);
  (match cap with
  | Some cap ->
      if cap < value then invalid_arg "Escrow.seed: cap below value";
      push (Bcounter.prepare_grant !c ~rep:home cap);
      List.iter
        (fun (r, n) ->
          if r <> home && n > 0 then
            push (Bcounter.prepare_hmove !c ~from_:home ~to_:r n))
        (match hshares with Some h -> h | None -> shares)
  | None -> ());
  List.iter
    (fun (r, n) ->
      if r <> home && n > 0 then
        push (Bcounter.prepare_transfer !c ~from_:home ~to_:r n))
    shares;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Adaptive migration                                                  *)
(* ------------------------------------------------------------------ *)

(* refresh the EWMA demand rates for [key] from the replicated ledgers
   (cumulative per-replica attempt counts, differenced per tick); the
   caller publishes this replica's buffered attempts into the view
   before refreshing, so its own demand is included *)
let refresh_rates (t : t) ~(key : string) ~(headroom : bool)
    (c : Bcounter.t) ~(replicas : string list) : (string * float) list =
  List.map
    (fun r ->
      let cum =
        if headroom then Bcounter.local_hdemand c r
        else Bcounter.local_demand c r
      in
      let k = (key, r, headroom) in
      let last =
        match Hashtbl.find_opt t.last_cum k with Some v -> v | None -> 0
      in
      Hashtbl.replace t.last_cum k cum;
      let delta = float_of_int (max 0 (cum - last)) in
      let prev =
        match Hashtbl.find_opt t.rate k with Some v -> v | None -> 0.0
      in
      let rate = (t.policy.alpha *. delta) +. ((1.0 -. t.policy.alpha) *. prev) in
      Hashtbl.replace t.rate k rate;
      (r, rate))
    replicas

(* ships from this replica's spare toward peers holding less than their
   windowed need — largest deficit first, with the policy's hysteresis:
   a peer must lag its target by at least [hysteresis × target] (and
   [min_batch]), ships are at least [min_batch], and each
   (key, destination) observes a cooldown.

   A replica's target holding is need-based, not a zero-sum share of
   the pool: enough rights to cover [ship_horizon] ticks of its own
   windowed demand, plus the burst slack.  Everything above the target
   is spare that can ship — so inflow parked at one replica (restocks
   landing at a warehouse) flows toward demand instead of being
   swallowed by the holder's own proportional share. *)
let ship_horizon = 2.0

let plan_ships (t : t) ~(now : float) ~(key : string) ~(headroom : bool)
    ~(pool : int) ~(held : string -> int) (rates : (string * float) list) :
    (string * int) list =
  let total_rate = List.fold_left (fun acc (_, r) -> acc +. r) 0.0 rates in
  if pool <= 0 || total_rate <= 0.0 then []
  else begin
    let target r =
      (ship_horizon
      *. match List.assoc_opt r rates with Some x -> x | None -> 0.0)
      +. float_of_int t.policy.slack
    in
    (* the deficit must be meaningful relative to the peer's own need,
       not to the whole pool — a pool-proportional threshold grows with
       inflow (restocks parked at a warehouse) until it swamps a hot
       replica's target and ships only fire once the peer is empty *)
    let threshold r =
      Float.max
        (float_of_int t.policy.min_batch)
        (t.policy.hysteresis *. target r)
    in
    let cooled r =
      match Hashtbl.find_opt t.last_ship (key, r, headroom) with
      | Some at -> now -. at >= t.policy.cooldown_ms
      | None -> true
    in
    let deficits =
      List.filter_map
        (fun (r, _) ->
          if r = t.rep then None
          else
            let d = target r -. float_of_int (held r) in
            if d >= threshold r && cooled r then Some (r, d) else None)
        rates
      |> List.sort (fun (ra, da) (rb, db) ->
             match compare db da with 0 -> compare ra rb | c -> c)
    in
    let mine = ref (held t.rep) in
    let spare = ref (float_of_int !mine -. target t.rep) in
    List.filter_map
      (fun (r, deficit) ->
        let n =
          min
            (int_of_float !spare)
            (min !mine (int_of_float (Float.ceil deficit)))
        in
        if n >= t.policy.min_batch then begin
          mine := !mine - n;
          spare := !spare -. float_of_int n;
          Hashtbl.replace t.last_ship (key, r, headroom) now;
          Some (r, n)
        end
        else None)
      deficits
  end

(** One migration tick for [key] at this replica, given its current
    local view [c] of the counter: returns the operations to commit
    here — the publication of locally-buffered demand ({!note_dec} /
    {!note_inc} since the last tick) followed by proactive rights
    {!Bcounter.Transfer}s (and, on capped counters, headroom
    {!Bcounter.Hmove}s) toward replicas whose windowed demand outruns
    their holdings.  Every op is prepared against the evolving view, so
    the sequence can never overdraw this replica's ledgers.  Call it
    from the anti-entropy piggyback ({!Ipa_store.Sync.t.on_round}) so
    the resulting batch rides a round already being paid for. *)
let tick (t : t) ~(now : float) ~(key : string) (c : Bcounter.t) :
    Bcounter.op list =
  let own_pending =
    match Hashtbl.find_opt t.pending key with Some n -> n | None -> 0
  in
  Hashtbl.remove t.pending key;
  let own_hpending =
    match Hashtbl.find_opt t.hpending key with Some n -> n | None -> 0
  in
  Hashtbl.remove t.hpending key;
  let ops = ref [] in
  let cc = ref c in
  let push op =
    cc := Bcounter.apply !cc op;
    ops := op :: !ops
  in
  if own_pending > 0 then push (Bcounter.prepare_demand !cc ~rep:t.rep own_pending);
  if own_hpending > 0 then
    push (Bcounter.prepare_hdemand !cc ~rep:t.rep own_hpending);
  let replicas =
    (* every replica the counter's ledgers mention, plus this one, plus
       any the forecast predicts demand for — a forecast-hot replica
       must receive rights before its first op ever lands here *)
    let rs = Bcounter.replicas !cc in
    let rs = if List.mem t.rep rs then rs else t.rep :: rs in
    Hashtbl.fold
      (fun (k, r, _) _ acc ->
        if k = key && not (List.mem r acc) then r :: acc else acc)
      t.rate rs
  in
  (* rights side: pool = everything the cluster may still decrement *)
  let rates = refresh_rates t ~key ~headroom:false !cc ~replicas in
  plan_ships t ~now ~key ~headroom:false
    ~pool:(Bcounter.quick_value !cc)
    ~held:(fun r -> Bcounter.local_rights !cc r)
    rates
  |> List.iter (fun (dst, n) ->
         push (Bcounter.prepare_transfer !cc ~from_:t.rep ~to_:dst n);
         t.stats.migrations <- t.stats.migrations + 1;
         t.stats.rights_migrated <- t.stats.rights_migrated + n);
  (* headroom side, when capped: pool = remaining capacity *)
  if Bcounter.capped !cc then begin
    let hrates = refresh_rates t ~key ~headroom:true !cc ~replicas in
    plan_ships t ~now ~key ~headroom:true
      ~pool:(Bcounter.granted !cc - Bcounter.quick_value !cc)
      ~held:(fun r -> Bcounter.local_headroom !cc r)
      hrates
    |> List.iter (fun (dst, n) ->
           push (Bcounter.prepare_hmove !cc ~from_:t.rep ~to_:dst n);
           t.stats.migrations <- t.stats.migrations + 1;
           t.stats.hmigrations <- t.stats.hmigrations + 1;
           t.stats.headroom_migrated <- t.stats.headroom_migrated + n)
  end;
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Reactive fetch                                                      *)
(* ------------------------------------------------------------------ *)

(** A {!Rights.fetch} as an operation outcome: any miss pays one WAN
    round-trip. *)
let outcome (f : Rights.fetched) : Config.outcome =
  Config.outcome
    ~extra_rtts:(match f.Rights.attempt with `Hit -> 0 | `Miss _ -> 1)
    f.Rights.batch

(* ------------------------------------------------------------------ *)
(* Piggyback wiring                                                    *)
(* ------------------------------------------------------------------ *)

(** Tick every replica's manager for every key at each anti-entropy
    round, committing the resulting ops as a ["migrate"] operation. *)
let piggyback (cfg : Config.t) ~(manager : string -> t) ~(keys : string list)
    : unit =
  let sync =
    match cfg.Config.sync with
    | Some s -> s
    | None -> invalid_arg "Escrow.piggyback: anti-entropy is off"
  in
  let migrate rep key ops =
    let run r =
      let tx = Txn.begin_ r in
      ignore (Txn.get tx key Obj.T_bcounter);
      List.iter (fun op -> Txn.update tx key (Obj.Op_bcounter op)) ops;
      match Txn.commit tx with
      | Some b ->
          List.iter
            (function
              | Bcounter.Transfer { n; _ } | Bcounter.Hmove { n; _ } ->
                  Ipa_sim.Metrics.record_escrow_migration cfg.Config.metrics
                    ~rights:n
              | _ -> ())
            ops;
          Config.outcome (Some b)
      | None -> Config.outcome None
    in
    Config.execute cfg ~client_region:rep.Replica.region
      { Config.op_name = "migrate"; is_update = true; reservations = []; run }
      ~complete:(fun _ _ -> ())
  in
  sync.Sync.on_round <-
    Some
      (fun ~now ->
        List.iter
          (fun (rep : Replica.t) ->
            let mgr = manager rep.Replica.id in
            List.iter
              (fun key ->
                match Replica.peek rep key with
                | None -> ()
                | Some o -> (
                    match tick mgr ~now ~key (Obj.as_bcounter o) with
                    | [] -> ()
                    | ops -> migrate rep key ops))
              keys)
          cfg.Config.cluster.Cluster.replicas)
