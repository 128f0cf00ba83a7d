(** Consistency-typed client reads: weak / bounded-staleness / strong
    levels as a phantom-indexed GADT served by one path, the
    commit-clock history that resolves a staleness budget into a bound,
    and escrow interval reads for {!Ipa_crdt.Bcounter}-backed keys.  See
    DESIGN.md "Consistency-typed reads" for the cover rule and the
    interval derivation. *)

open Ipa_crdt

type weak
type bounded
type strong

(** The requested level; the phantom index flows into the {!result}. *)
type _ level =
  | Weak : weak level
  | Bounded : Vclock.t -> bounded level
      (** every event at or below this bound clock must be reflected *)
  | Strong : strong level  (** the tightest bound: the cut *)

(** A stamped read: value ([None] = absent key), serving replica, its
    clock at serve time, and whether no replica covered the bound so
    the home replica had to catch up first.  The index pins the level
    the read was requested at, so an API can demand e.g.
    [strong result]. *)
type 'l result = {
  value : Obj.t option;
  served_by : string;
  at : Vclock.t;
  escalated : bool;
}

val value : 'l result -> Obj.t option

(** [covers r b] — [r]'s own clock covers the bound: [r] can serve it. *)
val covers : Replica.t -> Vclock.t -> bool

(** The clock a read at [level] must cover: empty for {!Weak}, [b] for
    {!Bounded}[ b], and for {!Strong} the cut — the merge of every
    replica's clock at call time, i.e. everything committed anywhere. *)
val bound : Cluster.t -> 'l level -> Vclock.t

(** Where a read with a given bound is served. *)
type route =
  | Home  (** the client's replica covers the bound *)
  | Forward of Replica.t  (** the first candidate that covers it *)
  | Catch_up  (** none does: catch the home replica up, then serve *)

(** [route ~home candidates b] — the cover → forward → catch-up
    decision; [candidates] are tried in order (callers pass them
    nearest first). *)
val route : home:Replica.t -> Replica.t list -> Vclock.t -> route

(** Bring [home] up to the cut over the reliable control channel: every
    peer whose clock [home] does not cover hands over the logged batches
    [home] misses.  Only [home]'s state changes. *)
val catch_up : Cluster.t -> Replica.t -> unit

(** Drive the cluster to quiescence over the reliable control channel;
    returns rounds spent (0 = already quiescent).  May give up at
    [max_rounds] without quiescence. *)
val quiesce : ?max_rounds:int -> Cluster.t -> int

(** Read a key at a level.  [prefer] is the client's co-located replica
    id (default: first replica).  The level resolves to its {!bound},
    then {!route} over the cluster's replicas picks the server; a
    {!Catch_up} serves at home with [escalated = true]. *)
val read : Cluster.t -> 'l level -> ?prefer:string -> string -> 'l result

(** {1 Staleness history} *)

(** Timestamped checkpoints of the committed clock, the history a
    staleness budget resolves against.  Retains the newest
    {!history_capacity} checkpoints. *)
type history

val history_capacity : int

val history : unit -> history

(** [push h ~now after] — a batch with after-clock [after] committed at
    [now]: merge it into the committed clock and checkpoint the result. *)
val push : history -> now:float -> Vclock.t -> unit

(** The newest checkpoint at or before [now − staleness_ms].  Budget 0
    is the current committed clock; an empty history, or a target older
    than every commit, is {!Vclock.empty}; a target older than the
    retained checkpoints resolves to the oldest retained one (stricter,
    never weaker). *)
val bound_at : history -> now:float -> staleness_ms:float -> Vclock.t

(** {1 Interval reads} *)

(** An escrow interval read: locally observed value plus
    [lo ≤ strongly-consistent value ≤ hi] ([hi = None] while the
    counter is uncapped). *)
type interval = { lo : int; hi : int option; observed : int }

(** The interval from one replica's purely local state (no messages).
    Absent keys read as the empty counter; raises [Obj.Type_mismatch]
    on non-Bcounter keys. *)
val interval_at : Replica.t -> string -> interval
