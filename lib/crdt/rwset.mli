(** Op-based remove-wins set with wildcard removes (paper §4.2.1).

    Dual of {!Awset}: when an add and a remove of the same element are
    concurrent, the remove wins.  An add is visible only if every remove
    of the element happened strictly before it.  The wildcard remove is
    a whole-object clear: its barrier cancels every add it does not
    causally follow — including concurrent adds at other replicas — the
    semantics of [enrolled( *, t) := false] on the object keyed by [t]
    (Figure 2c).  Ops and states are plain data. *)

type t

(** Downstream effects (commute under causal delivery). *)
type op

val empty : t
val mem : string -> t -> bool
val payload : string -> t -> string option
val elements : t -> string list
val size : t -> int

(** Fold over the members, in no particular order. *)
val fold_members : (string -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Prepare}

    [vv] must be the source replica's clock {e including} the prepared
    event (see {!Ipa_store.Txn.fresh_vv} for removes). *)

val prepare_add :
  ?payload:string -> t -> dot:Vclock.dot -> vv:Vclock.t -> string -> op

val prepare_remove : t -> vv:Vclock.t -> string -> op

(** Clear the whole object ([p( *, t) := false] on the object keyed by
    [t]): a barrier hiding every add that does not causally follow it. *)
val prepare_remove_all : t -> vv:Vclock.t -> op

(** {1 Effect} *)

val apply : t -> op -> t

(** The element an op names — the only one whose membership applying
    it can change — or [None] for a clear, whose barrier can hide any
    element. *)
val touched : op -> string list option

(** {1 Delta-state view}

    The state already carries full causal metadata (per-add source
    clocks, explicit barriers), so the join is a deduplicating union. *)

(** Join two states — commutative, associative, idempotent; barriers
    deduplicate by clock equality. *)
val merge : t -> t -> t

(** The state fragment carrying exactly one op's effect:
    [apply s o = merge s (delta_of_op o)] for any [s] that has not yet
    observed the op. *)
val delta_of_op : op -> t

(** The elements a state fragment holds entries for — the only ones
    whose membership merging it can change — or [None] when it carries
    a clear barrier. *)
val keys : t -> string list option

(** {1 Maintenance} *)

(** Metadata records held (add records + remove barriers). *)
val metadata_size : t -> int

(** Discard causally-stable remove barriers and the adds they
    permanently mask; observable state is unchanged. *)
val gc : stable:Vclock.t -> t -> t

val pp : Format.formatter -> t -> unit
