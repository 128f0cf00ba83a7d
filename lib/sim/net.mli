(** Wide-area network model: the paper's three-region EC2 deployment
    (§5.2.1) — 80 ms RTT us-east↔us-west and us-east↔eu-west, 160 ms
    eu-west↔us-west, sub-millisecond LAN within a region, ±[jitter]
    uniform noise per sample — plus seeded, deterministic fault
    injection: per-message loss, duplication, heavy-tail delay
    (reordering) and scheduled region↔region partition windows. *)

(** Per-link fault probabilities, applied to every message copy. *)
type faults = {
  loss : float;  (** probability a transmission is dropped *)
  duplication : float;  (** probability a message is sent twice *)
  tail : float;  (** probability of a heavy-tail (reordering) delay *)
  tail_factor : float;  (** delay multiplier on a tail event *)
}

(** A partition window: links between the two region groups are cut
    during [[from_ms, until_ms)] and heal at [until_ms]. *)
type partition = {
  parts : string list * string list;
  from_ms : float;
  until_ms : float;
}

type plan = { faults : faults; partitions : partition list }

(** A scripted fault phase: during [[p_from, p_until)] the phase's fault
    probabilities replace the plan's baseline (first matching phase
    wins). *)
type phase = { p_from : float; p_until : float; p_faults : faults }

(** The default plan: exactly-once delivery, no partitions. *)
val no_faults : plan

(** Delivery counters for the observability report. *)
type stats = {
  mutable sent : int;  (** messages handed to the network *)
  mutable dropped : int;  (** transmissions lost (loss or partition) *)
  mutable duplicated : int;  (** extra copies injected *)
}

type t

val paper_regions : string list
val paper_rtts : ((string * string) * float) list

val create :
  ?jitter:float ->
  ?plan:plan ->
  ?phases:phase list ->
  seed:int ->
  unit ->
  t

val stats : t -> stats

(** Fault probabilities in force at [now]: the first phase containing
    [now], else the plan's baseline. *)
val faults_at : t -> now:float -> faults

(** Mean RTT without jitter; raises on unknown pairs. *)
val mean_rtt : t -> string -> string -> float

(** Sampled round-trip time (ms). *)
val rtt : t -> string -> string -> float

(** Sampled one-way delay. *)
val one_way : t -> string -> string -> float

(** Is the link between the two regions cut at time [now]? *)
val partitioned : t -> now:float -> string -> string -> bool

(** Send one message through the fault plan.  Returns the delivery
    delays of the surviving copies: [[]] when lost or partitioned, one
    delay normally, two when duplicated (each copy independently subject
    to loss and tail delay). *)
val deliveries : t -> now:float -> src:string -> dst:string -> float list
