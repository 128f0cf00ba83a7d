(** Escrow rights moved on demand: the one blocking fetch every
    {!Ipa_crdt.Bcounter} user shares — the escrow path consumes one unit
    ({!fetch}); Indigo's reservations, counters of one unit per replica,
    are acquired to a target holding ({!acquire}).

    A pull is a [Transfer] (or [Hmove]) committed at a peer and
    delivered at once.  The requester first catches up from that peer
    ({!Sync.pull}): causal delivery would otherwise buffer the transfer
    behind the peer's batches still in flight to it. *)

(** Which ledger: decrement rights, or increment headroom of a capped
    counter. *)
type side = Rights | Headroom

(** A replica's holding on a key by its own view (0 if never seen). *)
val held : side -> Replica.t -> string -> int

(** The pulls that bring the replica's holding on [key] to [need]:
    [(peer, n)], richest [reachable] peer first (default: all; cluster
    order on ties), each [n = max (need − held) (have / 2)] capped at
    the peer's [have]; [Some []] if already held, [None] if the
    reachable peers cannot cover it.  Commits nothing. *)
val plan :
  ?reachable:(Replica.t -> bool) ->
  Cluster.t ->
  side ->
  Replica.t ->
  key:string ->
  need:int ->
  (Replica.t * int) list option

(** {!plan}, then commit each pull ([None]: nothing committed). *)
val acquire :
  ?reachable:(Replica.t -> bool) ->
  Cluster.t ->
  side ->
  Replica.t ->
  key:string ->
  need:int ->
  (Replica.t * int) list option

type fetched = {
  attempt : [ `Hit | `Miss of int ];
      (** [`Hit]: covered locally; [`Miss n]: [n] units fetched first;
          [`Miss 0]: global stock-out, nothing committed *)
  batch : Replica.batch option;  (** the committed unit op *)
}

(** Consume one unit at a replica (decrement, or increment of a capped
    counter); on [Insufficient_rights] / [Insufficient_headroom],
    {!acquire} one unit — [max 1 (have / 2)] from the richest peer — and
    retry once. *)
val fetch : Cluster.t -> side -> Replica.t -> key:string -> fetched
