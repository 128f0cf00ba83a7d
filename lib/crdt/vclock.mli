(** Vector clocks and dots.

    The replicated store tags every update batch with the origin's vector
    clock; CRDT conflict resolution (add-wins / rem-wins) compares these
    to decide causality between concurrent operations.

    Clocks are stored compactly as flat int arrays indexed by {!Intern}
    replica ids, so [merge]/[leq]/[get] — the per-commit, per-delivery
    hot path — are short array walks.  The API stays string-based. *)

(** A vector clock: replica id → number of events observed.  Absent
    entries read as zero. *)
type t

(** A dot: one specific event of one replica. *)
type dot = { rep : string; cnt : int }

val empty : t

(** Entry of a replica (0 when absent). *)
val get : t -> string -> int

(** Functional update of one entry. *)
val set : t -> string -> int -> t

(** Record the next event of a replica; returns the new clock and the
    dot of the event. *)
val tick : t -> string -> t * dot

(** Pointwise maximum (least upper bound).  Returns a dominating
    argument unchanged (no allocation). *)
val merge : t -> t -> t

(** Pointwise minimum (entries absent in either side read as zero) —
    the causal-stability cut computation. *)
val min_pointwise : t -> t -> t

(** [leq a b] — every event in [a] is in [b] (a ≼ b). *)
val leq : t -> t -> bool

val equal : t -> t -> bool

(** Strict happened-before. *)
val lt : t -> t -> bool

type ordering = Before | After | Equal | Concurrent

val compare_vv : t -> t -> ordering
val concurrent : t -> t -> bool

(** Does the clock contain the dot? *)
val contains : t -> dot -> bool

(** Sum of all entries (total event count). *)
val total : t -> int

val to_list : t -> (string * int) list
val of_list : (string * int) list -> t
val pp : Format.formatter -> t -> unit

(** Total order on dots (replica id, then counter). *)
val dot_compare : dot -> dot -> int

module DotSet : Set.S with type elt = dot
