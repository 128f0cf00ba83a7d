(** Closed-loop workload driver (§5.2.1–5.2.2): clients co-located with
    their region's replica draw operations from a mix, execute them
    through a configuration, and record latencies; peak-throughput
    curves come from sweeping the client count. *)

open Ipa_sim

type workload = {
  clients_per_region : int;
  duration_ms : float;  (** measured window, after warm-up *)
  warmup_ms : float;
  think_time_ms : float;  (** 0 = back-to-back *)
  only_region : string option;  (** restrict clients to one region *)
  next_op : Rng.t -> region:string -> Config.op_exec;
}

(** Run a workload through {!Config.execute}; returns the
    configuration's metrics ({!Config.t.metrics}), windowed to the
    measured interval, once the engine has run 10 s past the end so
    replication settles. *)
val run :
  ?seed:int ->
  Config.t ->
  workload ->
  Metrics.t

(** Drive a precomputed {!Ipa_sim.Workload} event stream (open-loop
    Poisson or closed-loop think-time arrivals, typically Zipfian over
    keys) through a configuration: [op_of] maps each event to the
    issuing client's region and operation; completions before
    [warmup_ms] are discarded; the engine runs [settle_ms] (default
    10 s) past the last arrival before delivery stats are collected
    and the configuration's metrics are returned.
    Open-loop complement of {!run}: offered load is fixed by the
    stream, not by client feedback. *)
val run_stream :
  ?warmup_ms:float ->
  ?settle_ms:float ->
  Config.t ->
  events:Workload.event list ->
  op_of:(Workload.event -> string * Config.op_exec) ->
  Metrics.t
