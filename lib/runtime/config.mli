(** System configurations of the evaluation (§5.2.1).

    All configurations execute {e real} transactions against the
    replicated store; they differ in where an operation runs and what
    coordination it pays first:

    - {!mode.Local} (Causal and IPA): execute at the client's co-located
      replica, replicate asynchronously;
    - {!mode.Strong}: updates forwarded to the primary region (us-east);
    - {!mode.Indigo}: reservation-protected operations, each
      reservation the rights of a bounded counter moved by
      {!Ipa_store.Rights.acquire} (see {!res_kind});
    - {!mode.Hybrid}: IPA plus coordination only for flagged operations.

    Latency model: client↔replica LAN RTT + queueing at the region's
    servers + service time ([service_base] + [service_per_update] per
    update effect + [service_per_object] per distinct object) + any WAN
    round-trips the configuration requires.  Failure injection
    ({!fail_region}) makes §5.2.5's availability comparison measurable. *)

open Ipa_store
open Ipa_sim

(** Result of running an operation's transaction at some replica. *)
type outcome = {
  batch : Replica.batch option;
  violations : int;  (** violation units observed/repaired *)
  extra_work : int;  (** extra service-time units (read-side work) *)
  extra_rtts : int;  (** internal WAN round-trips (escrow transfers) *)
  unavailable : bool;  (** the configuration could not execute the op *)
}

val outcome :
  ?violations:int -> ?extra_work:int -> ?extra_rtts:int ->
  Replica.batch option -> outcome

(** Reservation kinds (Indigo).  Each reservation is a bounded counter
    ({!Ipa_crdt.Bcounter}) of N rights, N the replica count, under the
    store key ["rsv:" ^ name]: [Shared] needs at least one unit at the
    requester, so every replica can hold it at once and it never moves
    again; [Exclusive] needs all N, so conservation makes it exclusive
    and each cross-region hand-off pulls the units back from every
    holder, one WAN round-trip (the farthest) per acquisition. *)
type res_kind = Shared | Exclusive

(** The store key holding a reservation's rights: ["rsv:" ^ name]. *)
val reservation_key : string -> string

(** An executable operation: the real transaction plus the metadata the
    configurations need. *)
type op_exec = {
  op_name : string;
  is_update : bool;
  reservations : (string * res_kind) list;
  run : Replica.t -> outcome;
}

(** Per-operation read-level annotation (the consistency-typed client
    API threaded through the latency model): weak reads serve locally,
    [RL_bounded budget_ms] reads must reflect everything committed up
    to [now − budget], and [RL_strong] is [RL_bounded 0.0] — everything
    committed before the read. *)
type read_level =
  | RL_weak
  | RL_bounded of float  (** staleness budget, ms *)
  | RL_strong

type mode =
  | Local
  | Strong
  | Indigo
  | Hybrid of (string -> bool)
      (** flagged-operation predicate: those coordinate (with exclusive
          reservations), the rest run locally (§3, step 3) *)

type t = {
  mode : mode;
  engine : Engine.t;
  net : Net.t;
  cluster : Cluster.t;
  service_base : float;
  service_per_update : float;
  service_per_object : float;
  server_slots : (string, float array) Hashtbl.t;
  down_until : (string, float) Hashtbl.t;
  sync : Sync.t option;  (** anti-entropy, when enabled *)
  sent_at : (string * int, float) Hashtbl.t;
  metrics : Metrics.t;
      (** the run's measurements: visibility latencies (commit at
          origin → remote apply) are recorded as they happen, and
          {!Driver} adds op latencies and delivery counters *)
  history : Read.history;  (** timestamped committed clocks *)
}

(** [sync_interval_ms > 0] enables anti-entropy: a recurring digest
    exchange whose retransmissions travel the same fault-injected data
    path as first transmissions (see {!Ipa_store.Sync}).  The network's
    fault plan is configured on [net] ({!Ipa_sim.Net.create}). *)
val create :
  ?service_base:float ->
  ?service_per_update:float ->
  ?service_per_object:float ->
  ?sync_interval_ms:float ->
  mode:mode ->
  engine:Engine.t ->
  net:Net.t ->
  cluster:Cluster.t ->
  unit ->
  t

(** Inject a failure: the region is unreachable for [for_ms] from now;
    batches addressed to it are delivered after recovery. *)
val fail_region : t -> string -> for_ms:float -> unit

(** The replica serving a region. *)
val replica_in : t -> string -> Replica.t

(** Execute an operation for a client; calls [complete] with the
    client-perceived latency and the outcome when the reply arrives
    (immediately, with [unavailable = true], if the configuration
    cannot run it). *)
val execute :
  t ->
  client_region:string ->
  op_exec ->
  complete:(float -> outcome -> unit) ->
  unit

(** Resolve a staleness budget into a bound clock against the commit
    history ({!Ipa_store.Read.bound_at}): budget 0 = the current
    committed clock; empty history = {!Ipa_crdt.Vclock.empty}. *)
val bound_clock : t -> staleness_ms:float -> Ipa_crdt.Vclock.t

(** Execute a read-only operation at a consistency level.  The level's
    bound goes through {!Ipa_store.Read.route} with the reachable
    replicas as candidates, nearest first: a covering exec replica pays
    the Local price, a covering peer one more round-trip, and otherwise
    the client pays a barrier round-trip to the farthest peer while the
    exec replica alone catches up ({!Ipa_store.Read.catch_up}). *)
val execute_read :
  t ->
  client_region:string ->
  level:read_level ->
  op_exec ->
  complete:(float -> outcome -> unit) ->
  unit
