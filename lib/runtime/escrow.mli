(** Escrow planner, runtime half: demand-aware rights placement and
    adaptive migration for bounded counters.

    One manager per replica.  Decrement (and, for capped counters,
    increment) attempts are noted locally, periodically published as
    advisory [Demand]/[Hdemand] ops riding ordinary batches, and every
    replica differences the replicated ledgers into windowed (EWMA)
    per-replica demand estimates.  At each {!tick} — piggybacked on the
    anti-entropy round via [Ipa_store.Sync.t.on_round] — a replica
    proactively ships part of its rights surplus toward replicas whose
    demand share outruns their holdings, with hysteresis (minimum
    deficit, minimum batch, per-destination cooldown) so rights don't
    ping-pong.  Amortizing transfers into rounds already being paid for
    is what removes the blocking WAN round-trip on exhaustion.

    The module also holds the two pieces every escrow user shares: the
    {!outcome} of the reactive {!Ipa_store.Rights.fetch} an operation
    falls back on when its replica's holding runs out, and the
    {!piggyback} wiring of the ticks into anti-entropy rounds. *)

open Ipa_crdt

type policy = {
  alpha : float;
      (** EWMA smoothing of per-tick demand deltas, in (0, 1] *)
  hysteresis : float;
      (** minimum peer deficit, as a fraction of the peer's target
          holding, before rights ship toward it *)
  min_batch : int;  (** never ship fewer rights than this *)
  cooldown_ms : float;
      (** minimum time between ships to the same (key, destination) *)
  slack : int;
      (** burst headroom: peers are topped up to fair share + [slack] *)
}

val default_policy : policy

type stats = {
  mutable migrations : int;  (** proactive rights-moving ops committed *)
  mutable rights_migrated : int;  (** rights units shipped proactively *)
  mutable hmigrations : int;  (** headroom ops among them *)
  mutable headroom_migrated : int;
}

type t = {
  rep : string;  (** the replica this manager decides for *)
  policy : policy;
  pending : (string, int) Hashtbl.t;
  hpending : (string, int) Hashtbl.t;
  last_cum : (string * string * bool, int) Hashtbl.t;
  rate : (string * string * bool, float) Hashtbl.t;
  last_ship : (string * string * bool, float) Hashtbl.t;
  stats : stats;
}

val create : ?policy:policy -> rep:string -> unit -> t

(** Note decrement attempts against a key at this replica — covered or
    blocked; blocked demand is exactly what the planner must learn. *)
val note_dec : t -> key:string -> int -> unit

(** Dual: note increment attempts (headroom demand, capped counters). *)
val note_inc : t -> key:string -> int -> unit

(** Install the planner's predicted per-replica demand for a key as the
    initial EWMA estimate ([?headroom] selects the increment side):
    the first ticks migrate toward forecast demand before the observed
    ledgers have warmed up.  Only the ratios matter. *)
val forecast :
  t -> key:string -> ?headroom:bool -> (string * float) list -> unit

(** Seed operations establishing a counter with value [value] and its
    rights placed per [shares] (an apportioned placement, e.g. from
    [Ipa_core.Escrow_plan.apportion]; the first share's replica hosts
    the seeding increment).  With [?cap] the counter is capped and the
    remaining headroom placed by [hshares] (default [shares]).  The
    sequence is guard-checked end to end; commit it in one transaction
    and deliver it before concurrent use. *)
val seed :
  shares:(string * int) list ->
  value:int ->
  ?cap:int ->
  ?hshares:(string * int) list ->
  unit ->
  Bcounter.op list

(** One migration tick for a key at this replica, given its current
    local view of the counter: the ops to commit here — buffered-demand
    publication, then proactive [Transfer]s (and [Hmove]s on capped
    counters) toward hot replicas.  Prepared against the evolving view,
    so the sequence can never overdraw this replica's ledgers. *)
val tick : t -> now:float -> key:string -> Bcounter.t -> Bcounter.op list

(** {1 Reactive fetch} *)

(** A {!Ipa_store.Rights.fetch} — the blocking half of escrow, shared by
    every escrow-guarded operation — as an operation outcome: any miss
    costs [extra_rtts = 1]. *)
val outcome : Ipa_store.Rights.fetched -> Config.outcome

(** {1 Piggyback wiring} *)

(** Install the migration hook on the configuration's anti-entropy
    ({!Ipa_store.Sync.t.on_round}): each round, every replica's manager
    ([manager] by replica id) ticks each of [keys] against that
    replica's view, and non-empty results commit there as a ["migrate"]
    operation through {!Config.execute}, recording each [Transfer] /
    [Hmove] in the configuration's metrics with
    {!Ipa_sim.Metrics.record_escrow_migration}.  Raises
    [Invalid_argument] when anti-entropy is off. *)
val piggyback :
  Config.t -> manager:(string -> t) -> keys:string list -> unit
