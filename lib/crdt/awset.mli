(** Op-based add-wins set (observed-remove set) with payloads, the
    {e touch} operation, and wildcard removes (paper §4.2.1).

    Elements are strings (application-level keys); each element may
    carry a payload.  Under causal delivery the downstream effects
    commute, and a concurrent add/remove of the same element resolves in
    favour of the add: a remove only cancels the add-dots its source had
    observed.

    [Touch] is an add that does not set a payload: it makes the element
    a member again while preserving the information previously
    associated with it — the restoring effect IPA attaches to modified
    operations.  Payloads survive removal and are reclaimed by {!gc}
    once the removal is causally stable. *)

type t

(** Downstream effects (commute under causal delivery). *)
type op

val empty : t

(** Membership: an element is in the set while it has live add-dots. *)
val mem : string -> t -> bool

(** Current payload of a member element ([None] if absent or none). *)
val payload : string -> t -> string option

(** The payload remembered for an element even if currently removed
    (touch semantics: information survives removal). *)
val saved_payload : string -> t -> string option

(** Members, sorted. *)
val elements : t -> string list

val size : t -> int

(** Fold over the members, in no particular order. *)
val fold_members : (string -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Prepare (at the source replica)} *)

val prepare_add : ?payload:string -> t -> dot:Vclock.dot -> string -> op
val prepare_touch : t -> dot:Vclock.dot -> string -> op

(** Remove the element's currently-observed add-dots (concurrent adds
    survive: add-wins). *)
val prepare_remove : t -> string -> op

(** Wildcard remove ([enrolled( *, t) := false] under add-wins): the
    predicate selects members at the source only, and the op carries
    their observed add-dots — plain data, like every other op.
    Concurrent adds the source did not observe survive (add-wins). *)
val prepare_remove_where : t -> (string -> bool) -> op

(** {1 Effect (at every replica)} *)

val apply : t -> op -> t

(** The elements an op names, each once — the only ones whose
    membership applying it can change. *)
val touched : op -> string list

(** {1 Delta-state view}

    States carry a per-entry causal context (every add-dot ever
    observed), which makes them joinable: a dot live on one side but
    inside the other's context-without-dots was removed, not unseen, so
    the join drops it instead of resurrecting it (optimized OR-set,
    Bieniusa et al.). *)

(** Join two states — commutative, associative, idempotent.  Assumes
    neither side has {!gc}'d an entry the other still holds live (the
    store's causal-stability cut guarantees this). *)
val merge : t -> t -> t

(** The state fragment (delta) carrying exactly one op's effect:
    [apply s o = merge s (delta_of_op o)] for any [s] that has not yet
    observed the op. *)
val delta_of_op : op -> t

(** The elements a state fragment holds entries for — the only ones
    whose membership merging it into another state can change. *)
val keys : t -> string list

(** {1 Maintenance} *)

(** Entries held, including removed-but-remembered ones. *)
val metadata_size : t -> int

(** Forget removed entries whose payload write is causally stable
    (§4.2.1): once the removal is stable, no concurrent touch needing
    the payload can still be in flight. *)
val gc : stable:Vclock.t -> t -> t

val pp : Format.formatter -> t -> unit
