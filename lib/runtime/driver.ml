(** Closed-loop workload driver (§5.2.1–5.2.2).

    Clients are installed in the same availability zones as their
    closest servers; each runs a closed loop: draw an operation from the
    workload mix, execute it through the configuration, record the
    latency, repeat (optionally after a think time).  Peak-throughput
    curves come from sweeping the number of clients per region. *)

open Ipa_sim

type workload = {
  clients_per_region : int;
  duration_ms : float;  (** measured window, after warm-up *)
  warmup_ms : float;
  think_time_ms : float;  (** 0 = back-to-back *)
  only_region : string option;
      (** restrict clients to one region (microbenchmarks) *)
  next_op : Rng.t -> region:string -> Config.op_exec;
}

(* Run [op] for a client in [region] through {!Config.execute} and, if
   [in_window] holds at completion, record its latency and violations
   (or its failure) in the run's metrics; [k] then sees the outcome. *)
let dispatch (cfg : Config.t) ~in_window ~region (op : Config.op_exec)
    (k : Config.outcome -> unit) : unit =
  let m = cfg.Config.metrics in
  Config.execute cfg ~client_region:region op ~complete:(fun lat outcome ->
      if in_window (Engine.now cfg.Config.engine) then
        if outcome.Config.unavailable then Metrics.record_failure m
        else begin
          Metrics.record m ~op:op.Config.op_name lat;
          Metrics.record_violations m outcome.Config.violations
        end;
      k outcome)

(* Copy the deployment's cumulative delivery counters (network,
   anti-entropy retransmissions, duplicate suppression, pending-buffer
   high-water marks) into the run's metrics once the run has settled,
   and return them. *)
let finish (cfg : Config.t) : Metrics.t =
  let m = cfg.Config.metrics in
  let d = m.Metrics.delivery in
  let ns = Net.stats cfg.Config.net in
  let reps = cfg.Config.cluster.Ipa_store.Cluster.replicas in
  let over f = List.fold_left f 0 reps in
  d.Metrics.batches_sent <- ns.Net.sent;
  d.Metrics.batches_dropped <- ns.Net.dropped;
  d.Metrics.batches_duplicated <- ns.Net.duplicated;
  Option.iter
    (fun s ->
      d.Metrics.batches_retransmitted <- s.Ipa_store.Sync.retransmitted)
    cfg.Config.sync;
  d.Metrics.duplicates_suppressed <-
    over (fun acc r -> acc + r.Ipa_store.Replica.duplicates_dropped);
  d.Metrics.pending_hwm <-
    over (fun acc r -> max acc r.Ipa_store.Replica.pending_hwm);
  m

(** Run a workload against a configuration; returns the configuration's
    metrics, windowed to the measured interval. *)
let run ?(seed = 42) (cfg : Config.t) (w : workload) : Metrics.t =
  let m = cfg.Config.metrics in
  let engine = cfg.Config.engine in
  m.Metrics.started_at <- w.warmup_ms;
  m.Metrics.finished_at <- w.warmup_ms +. w.duration_ms;
  let regions =
    List.map
      (fun (r : Ipa_store.Replica.t) -> r.Ipa_store.Replica.region)
      cfg.Config.cluster.Ipa_store.Cluster.replicas
  in
  let regions =
    match w.only_region with
    | Some r -> List.filter (( = ) r) regions
    | None -> regions
  in
  let master_rng = Rng.create seed in
  let t_end = w.warmup_ms +. w.duration_ms in
  List.iter
    (fun region ->
      for _ = 1 to w.clients_per_region do
        let rng = Rng.split master_rng in
        let rec loop () =
          if Engine.now engine < t_end then begin
            let op = w.next_op rng ~region in
            dispatch cfg
              ~in_window:(fun t -> t >= w.warmup_ms && t <= t_end)
              ~region op (fun outcome ->
                (* an unavailable op retries after a back-off *)
                let delay =
                  if outcome.Config.unavailable then 50.0
                  else if w.think_time_ms > 0.0 then
                    Rng.exponential rng w.think_time_ms
                  else 0.0
                in
                if delay > 0.0 then Engine.schedule engine ~delay loop
                else loop ())
          end
        in
        (* stagger client start to avoid lock-step *)
        Engine.schedule engine ~delay:(Rng.uniform rng 0.0 50.0) loop
      done)
    regions;
  (* run past the end so in-flight operations complete and replication
     settles (with faults enabled this window also lets anti-entropy
     close any remaining delivery gaps) *)
  Engine.run_until engine (t_end +. 10_000.0);
  finish cfg

(** Drive a precomputed {!Ipa_sim.Workload} event stream (open-loop
    Poisson arrivals or closed-loop think-time schedules, typically
    Zipfian over keys) through a configuration.  [op_of] maps each
    event to the issuing client's region and the operation to execute;
    per-event latencies land in the configuration's metrics, which it
    returns (events completing before [warmup_ms] are discarded), and
    the engine runs [settle_ms] past the last arrival so replication
    settles before delivery statistics are collected.

    This is the open-loop complement of {!run}: arrival times come from
    the stream, not from client loops, so offered load stays fixed no
    matter how slow the system responds — the regime of the paper's
    peak-contention figures. *)
let run_stream ?(warmup_ms = 0.0) ?(settle_ms = 10_000.0) (cfg : Config.t)
    ~(events : Workload.event list)
    ~(op_of : Workload.event -> string * Config.op_exec) : Metrics.t =
  let m = cfg.Config.metrics in
  let engine = cfg.Config.engine in
  let horizon =
    List.fold_left
      (fun acc (e : Workload.event) -> Float.max acc e.Workload.at_ms)
      0.0 events
  in
  m.Metrics.started_at <- warmup_ms;
  m.Metrics.finished_at <- horizon;
  List.iter
    (fun (e : Workload.event) ->
      Engine.schedule engine ~delay:e.Workload.at_ms (fun () ->
          let region, op = op_of e in
          dispatch cfg ~in_window:(fun t -> t >= warmup_ms) ~region op
            ignore))
    events;
  Engine.run_until engine (horizon +. settle_ms);
  finish cfg
