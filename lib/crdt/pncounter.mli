(** Op-based PN-counter: concurrent increments and decrements commute. *)

type t
type op

val empty : t
val value : t -> int

(** Always equal to {!value}, but O(1): reads a maintained aggregate
    instead of folding the per-replica maps.  Hot digest paths use this;
    reference renderings keep calling {!value} so the two implementations
    check each other. *)
val quick_value : t -> int

(** Prepare a delta issued by replica [rep]. *)
val prepare : t -> rep:string -> int -> op

(** The op's issuing replica / signed delta (anti-entropy compresses a
    log interval into one summed delta per key and replica). *)
val op_rep : op -> string

val op_delta : op -> int

val apply : t -> op -> t

(** {1 Delta-state view} *)

(** Join two states by pointwise maximum of each replica's positive and
    negative totals — sound because each slot is written only by its
    owning replica and grows monotonically under FIFO application.
    Commutative, associative, idempotent. *)
val merge : t -> t -> t

val pp : Format.formatter -> t -> unit
