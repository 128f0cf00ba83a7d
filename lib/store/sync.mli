(** Anti-entropy: digest exchange + retransmission of lost batches, so a
    dropped batch no longer wedges causal delivery forever.

    Replicas periodically advertise a digest (applied clock + buffered
    batch keys); peers retransmit the batches the digest lacks from
    their logs, pacing repeats with a capped exponential backoff.  The
    digest exchange is an out-of-band control channel; retransmitted
    batches travel through the caller's [send] (the faulty data path).
    {!Replica.receive} idempotence makes over-sending harmless. *)

type digest = { d_vv : Ipa_crdt.Vclock.t; d_have : (string * int) list }

type t = {
  cluster : Cluster.t;
  base_backoff_ms : float;
  max_backoff_ms : float;
  next_retry : (string * string * int, float * float) Hashtbl.t;
  mutable rounds : int;
  mutable retransmitted : int;
  delta_buf :
    (string * string, (Ipa_crdt.Vclock.t * int) * Replica.batch) Hashtbl.t;
      (** per-peer compacted-interval buffer: (destination, origin) →
          last compacted batch built for that peer, keyed by the peer's
          clock and the origin's last logged commit it was built
          against; evicted when the peer acknowledges *)
  mutable delta_buf_hits : int;
      (** compacted batches served from the buffer *)
  mutable on_round : (now:float -> unit) option;
      (** piggyback hook, invoked at the start of every {!round}: work
          that amortizes into the anti-entropy cadence (e.g. the escrow
          planner's proactive rights migrations) runs here so its
          batches ride the same round instead of paying their own
          blocking exchange *)
}

val create :
  ?base_backoff_ms:float -> ?max_backoff_ms:float -> Cluster.t -> t

(** What a replica advertises to its peers. *)
val digest_of : Replica.t -> digest

(** Batches in [src]'s log that the digest's owner is missing. *)
val missing_for : src:Replica.t -> digest -> Replica.batch list

(** [pull ~src dst] hands [dst] every logged batch of [src]'s it misses,
    over the reliable control channel, so [dst]'s clock covers [src]'s
    afterwards; a no-op when it already does.  Only [dst] changes. *)
val pull : src:Replica.t -> Replica.t -> unit

(** Digest-tree comparison result: the divergent keys and the number of
    tree nodes examined to find them (root + shard digests + sub-bucket
    digests inside divergent shards + per-key hashes inside divergent
    buckets only). *)
type descent = { divergent : string list; nodes_visited : int }

(** Merkle-style descent over two replicas' three-level digest trees:
    root, then only into shards whose rolling digests disagree, then
    only into those shards' disagreeing sub-buckets.  The third level
    keeps the descent sublinear even when divergence reaches every
    shard.  The replicas must have equal shard and sub-bucket counts. *)
val divergent_keys : a:Replica.t -> b:Replica.t -> descent

(** {1 State repair strategies} *)

(** How a repair ships missing state: the raw logged batches, or one
    compacted batch per origin ({!Replica.compact_after}). *)
type repair_mode = Batches | Deltas

type repair_stats = {
  r_bytes : int;  (** bytes shipped over the (modelled) wire *)
  r_units : int;  (** batches / keys shipped *)
  r_accepted : int;  (** units the destination accepted *)
}

(** Serialized size of a value — the simulator's wire model: its
    [Marshal] encoding with no flags, so a value holding a closure
    raises instead of being measured. *)
val wire_bytes : 'a -> int

(** Repair [dst] from [src] directly over the reliable control channel.
    The mode only chooses the batches shipped: every one goes through
    {!Replica.receive}, so both modes deliver exactly once in causal
    order and log and WAL-write what they apply. *)
val repair :
  t -> mode:repair_mode -> src:Replica.t -> dst:Replica.t -> repair_stats

(** One anti-entropy round at time [now]; missing batches whose backoff
    has elapsed are handed to [send].  Returns the number
    retransmitted. *)
val round :
  t ->
  now:float ->
  send:(src:Replica.t -> dst:Replica.t -> Replica.batch -> unit) ->
  int
