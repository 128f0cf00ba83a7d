(** Bounded counter (escrow): never goes below zero without
    coordination, by pre-partitioning decrement {e rights} among
    replicas (O'Neil's escrow method, cited by the paper for numeric
    invariants).

    A decrement must be covered by locally-held rights; an exhausted
    replica needs a {!prepare_transfer} from a peer — the coordination
    path of the escrow fetch and of the Indigo configuration, whose
    reservations are rights of a counter with one unit per replica
    ([Ipa_store.Rights]).

    The dual {e headroom} ledger caps the counter from above: once
    headroom has been granted ({!prepare_grant}, seed-time), increments
    must be covered by locally-held headroom, decrements replenish it,
    and {!prepare_hmove} ships it between replicas.  A capped counter's
    {!interval} bounds the strongly-consistent value from both sides
    using only local state — the escrow interval behind the
    consistency-typed read API ({!Ipa_store.Read}). *)

type t

type op =
  | Inc of { rep : string; n : int }
  | Dec of { rep : string; n : int }
  | Transfer of { from_ : string; to_ : string; n : int }
  | Grant of { rep : string; n : int }
  | Hmove of { from_ : string; to_ : string; n : int }
  | Demand of { rep : string; n : int }
      (** advisory: [n] decrement attempts observed at [rep]; feeds the
          escrow planner's windowed demand estimates, never safety *)
  | Hdemand of { rep : string; n : int }
      (** advisory dual: increment attempts, drives headroom migration *)

exception Insufficient_rights of { rep : string; have : int; need : int }
exception Insufficient_headroom of { rep : string; have : int; need : int }

val empty : t

(** Global counter value. *)
val value : t -> int

(** Always equal to {!value}, in O(1) (maintained aggregate; transfers
    leave it unchanged). *)
val quick_value : t -> int

(** Decrement rights currently held by a replica. *)
val local_rights : t -> string -> int

(** Increment headroom currently held by a replica (capped counters). *)
val local_headroom : t -> string -> int

(** Cumulative decrement attempts published by a replica ({!Demand}
    ops) — the escrow planner's raw demand signal. *)
val local_demand : t -> string -> int

(** Cumulative increment attempts published by a replica ({!Hdemand}). *)
val local_hdemand : t -> string -> int

(** Has headroom ever been granted?  Capped counters check headroom on
    {!prepare_inc} and have a finite {!interval} upper bound. *)
val capped : t -> bool

(** Total headroom ever granted — the cap when {!capped}. *)
val granted : t -> int

(** The escrow interval at a replica's purely local view: the
    strongly-consistent value is ≥ [lo] always, and ≤ [hi] when the
    counter is capped ([hi = None] otherwise).  [lo] is the rights only
    this replica can spend; [hi] is the cap minus the headroom only
    this replica can consume. *)
type interval = { lo : int; hi : int option }

val interval : t -> rep:string -> interval

(** Raises {!Insufficient_headroom} when the counter is capped and the
    replica does not hold enough headroom; free when uncapped. *)
val prepare_inc : t -> rep:string -> int -> op

(** Raises {!Insufficient_rights} when the replica does not hold enough
    rights. *)
val prepare_dec : t -> rep:string -> int -> op

val prepare_transfer : t -> from_:string -> to_:string -> int -> op

(** Create increment headroom at a replica, capping the counter.  Seed
    grants before concurrent use: the {!interval} upper bound is only
    sound for observers that have applied every grant. *)
val prepare_grant : t -> rep:string -> int -> op

(** Raises {!Insufficient_headroom} when the source replica does not
    hold enough headroom. *)
val prepare_hmove : t -> from_:string -> to_:string -> int -> op

(** Publish decrement attempts observed at a replica.  Advisory — no
    guard, and applying the op changes no replica's rights, headroom or
    the value. *)
val prepare_demand : t -> rep:string -> int -> op

(** Advisory dual of {!prepare_demand} for increment attempts. *)
val prepare_hdemand : t -> rep:string -> int -> op

val apply : t -> op -> t

(** Every replica id mentioned by any ledger, sorted. *)
val replicas : t -> string list

(** [(replica, rights held)] over {!replicas} — the per-replica rights
    histogram surfaced by the escrow metrics. *)
val rights_histogram : t -> (string * int) list

(** Conservation audit of a causally consistent view: maintained
    aggregates match their folds, Σ local_rights = value, and (capped)
    Σ local_headroom = granted − value with no ledger overdrawn and the
    value inside [0, granted].  [Some msg] describes the first broken
    identity. *)
val audit : t -> string option

val pp : Format.formatter -> t -> unit
