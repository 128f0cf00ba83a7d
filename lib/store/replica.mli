(** A store replica: causally-consistent application of update batches.

    Each committed transaction produces a {!batch} of downstream CRDT
    effects tagged with the origin's clock.  A remote replica buffers a
    batch until its causal dependencies are satisfied and applies its
    updates atomically — the causal consistency + highly-available
    transactions combination the paper assumes of the underlying store
    (SwiftCloud).

    Delivery is exactly-once: retransmitted or duplicated batches are
    detected via the per-origin applied commit number and dropped, and
    every replica logs the batches it knows so {!Sync} can retransmit
    ones the network lost.  A batch covers an interval of its origin's
    commits — one commit, or a compacted log interval
    ({!compact_after}) — and both kinds are delivered, logged,
    WAL-written and replayed by the same code.

    The keyspace is hash-partitioned over interned key ids into
    replica-local {!shard}s, each with its own object map, dirty set and
    rolling digest; routing is a pure function of the key, so per-shard
    digests are comparable across replicas and XOR into a root digest
    that is independent of the shard count. *)

open Ipa_crdt

type batch = {
  b_origin : string;
  b_first : int;
      (** first covered commit number: [b_seq] for a committed
          transaction's batch, lower for a compacted interval *)
  b_seq : int;  (** per-origin commit number (the last one covered) *)
  b_deps : Vclock.t;  (** origin clock {e before} the transaction *)
  b_after : Vclock.t;  (** origin clock after (deps + the txn's events) *)
  b_updates : (string * Obj.op) list;
  b_kids : int array;
      (** interned ids of the update keys, in list order — interned once
          at the origin so receivers skip the per-update string lookup *)
}

(** Per-origin batch log (commit numbers contiguous from 1; [min_seq]
    is the lowest retained number after stable truncation).  Each entry
    covers [b_first..b_seq] and is indexed under both ends. *)
type origin_log = {
  mutable max_seq : int;
  mutable min_seq : int;
  entries : (int, batch) Hashtbl.t;
}

(** One key's slot in a shard: the CRDT value plus the cached hash of
    its observable state (a pure function of key and observable value;
    [c_h = 0] means "not contributing to the digest").  Set keys also
    keep the wrapping sum and count of their members' hashes, updated
    by every op or joined fragment for just the elements it names; a negative
    count marks them stale (after a wildcard barrier or a restore), to
    be refolded from the members by the next refresh. *)
type cell = {
  c_kid : int;
  mutable c_obj : Obj.t;
  mutable c_h : int;
  mutable c_sum : int;  (** set keys: wrapping sum of member hashes *)
  mutable c_n : int;  (** set keys: member count; negative = stale *)
  mutable c_dirty : bool;  (** queued in the shard's dirty vector *)
}

(** One keyspace partition, keyed by interned key id. *)
type shard = {
  sh_data : (int, cell) Hashtbl.t;
  sh_types : (int, Obj.otype) Hashtbl.t;
  mutable sh_dirty : cell array;
      (** cells updated since this shard's digest was refreshed — a
          push vector of which the first [sh_dirty_n] slots are live;
          each cell appears at most once (its [c_dirty] flag is set
          while queued and cleared by the refresh) *)
  mutable sh_dirty_n : int;  (** live prefix length of [sh_dirty] *)
  mutable sh_xor : int;  (** rolling digest: XOR of the cached hashes *)
  mutable sh_sum : int;  (** rolling digest: wrapping sum of the hashes *)
  mutable sh_entries : int;  (** entries contributing to the digest *)
  sh_sub_xor : int array;
      (** per-sub-bucket rolling digests (the digest tree's third
          level): each cell also contributes to one of [subs] buckets
          inside its shard, routed by an independent hash of the key
          id *)
  sh_sub_sum : int array;
  sh_sub_entries : int array;
}

type t = {
  id : string;
  region : string;  (** data-center name, used by the simulator *)
  mutable vv : Vclock.t;
  mutable seq : int;
  shards : shard array;  (** keyspace partitions; length fixed at create *)
  pending : (string, (int, batch) Hashtbl.t) Hashtbl.t;
      (** per-origin buffered batches keyed by first covered commit
          number — the buffer's only index; it holds only batches
          starting above their origin's applied cursor *)
  mutable pending_n : int;  (** buffered batches across all origins *)
  mutable pending_hwm : int;  (** deepest pending buffer ever seen *)
  mutable drain_scans : int;
      (** head-candidate examinations performed by the pending drain *)
  applied : (string, int) Hashtbl.t;
      (** highest applied commit number per origin *)
  log : (string, origin_log) Hashtbl.t;
      (** every known batch, for anti-entropy retransmission *)
  mutable peers : string list;  (** cluster membership (incl. self) *)
  peer_vvs : (string, Vclock.t) Hashtbl.t;
      (** latest known clock of each peer, learned from applied batches *)
  mutable delivered : int;  (** remote batches applied *)
  mutable committed : int;  (** local transactions committed *)
  mutable duplicates_dropped : int;
      (** batches received more than once and suppressed *)
  mutable on_apply : batch -> unit;
      (** observability hook, called after a remote batch is applied *)
  mutable on_commit : batch -> unit;
      (** durability hook, called after a local batch is committed
          (before it is broadcast) — {!Wal} appends and flushes here *)
  mutable log_size : int;  (** batches currently retained in the log *)
  mutable log_hwm : int;  (** retained-log high-water mark *)
  mutable log_truncated : int;
      (** batches dropped by causally-stable truncation *)
}

(** Default keyspace partition count when [?shards] is omitted. *)
val default_shards : int

val create : ?region:string -> ?shards:int -> string -> t

(** Number of keyspace partitions (≥ 1, fixed at creation). *)
val shard_count : t -> int

(** Sub-buckets per shard (32, the same at every replica). *)
val sub_count : t -> int

(** The shard a key routes to — a pure function of the key and the
    shard count, identical at every replica with the same count. *)
val shard_of_key : t -> string -> int

(** [sub_of_id subs kid] — the sub-bucket a key id routes to inside its
    shard; a pure function of (id, bucket count), independent of the
    shard routing. *)
val sub_of_id : int -> int -> int

(** Read an object, creating it with the given type if absent. *)
val get : t -> string -> Obj.otype -> Obj.t

(** {!get} by interned key id — for callers that already hold the id
    and would otherwise hash the key string again. *)
val get_kid : t -> int -> Obj.otype -> Obj.t

(** Read an object without creating it. *)
val peek : t -> string -> Obj.t option

(** Fold over every (key, object) pair across all shards. *)
val fold_data : t -> (string -> Obj.t -> 'a -> 'a) -> 'a -> 'a

(** Number of objects stored (across all shards). *)
val obj_count : t -> int

(** Apply a single update effect, creating the object (with the op's
    carried bounds, for compensation objects, or the type an
    [Obj.Op_join] fragment joins into) if the effect arrives before any
    local access; marks the key dirty in its shard (its hash is
    recomputed at the next digest refresh). *)
val apply_update : t -> string * Obj.op -> unit

(** Commit a transaction's updates: apply locally, log the batch and
    return it for replication.  [events] is the number of clock ticks
    consumed.  [kids], when given, must be the interned ids of the
    update keys in list order — callers that interned while buffering
    (e.g. {!Txn.update}) pass them through instead of re-hashing every
    key string here. *)
val commit : t -> ?kids:int array -> events:int -> (string * Obj.op) list -> batch

(** Receive a batch from the network; applied (with any unblocked
    pending batches) as soon as causal dependencies are met.  Own
    batches, duplicates and stale intervals (starting at or below the
    origin's applied cursor) are dropped — delivery is idempotent.  A
    compacted interval that cannot apply at once is dropped rather than
    buffered, so it never shadows its first commit's own batch. *)
val receive : t -> batch -> unit

(** Batches buffered waiting for causal dependencies. *)
val pending_count : t -> int

(** (origin, first covered commit) keys of the buffered batches. *)
val pending_keys : t -> (string * int) list

(** Log entries from [origin] with events beyond [known] origin-events
    — what a peer reporting clock entry [known] is missing (oldest
    first; an entry may be a compacted interval, but never one [known]
    falls inside, which the peer would drop as stale). *)
val log_after : t -> origin:string -> known:int -> batch list

(** Digest of the replica's observable state: converged replicas digest
    identically regardless of delivery order, internal metadata or
    shard count.  Always a full rendering of every object — convergence
    polling goes through {!digest_equal} instead; the exact digest is
    only demanded at checkpoints. *)
val state_digest : t -> string

(** Combinable rolling digest: equal between replicas iff their
    observable states agree (up to hash collision in the paired XOR and
    sum combinations), at O(changed keys) per call; independent of the
    shard count.  Only meaningful for equality comparison. *)
val quick_digest : t -> string

(** [quick_digest a = quick_digest b] without building the strings —
    the allocation-free comparison convergence polls use. *)
val digest_equal : t -> t -> bool

(** Refresh every shard's digest caches. *)
val refresh_digest : t -> unit

(** One shard's rolling digest as an (entries, xor, sum) triple — the
    digest tree's inner nodes, compared during {!Sync} tree descent. *)
val shard_digest : t -> int -> int * int * int

(** One sub-bucket's rolling digest (the tree's third level); the
    caller must have refreshed the shard, e.g. via {!shard_digest}. *)
val sub_digest : t -> int -> int -> int * int * int

(** The causal-stability cut: every event at or below it is known to be
    included in every replica's state. *)
val stable_vv : t -> Vclock.t

(** Drop batch-log entries at or below the stability cut (every peer
    already has them); returns the number dropped. *)
val truncate_stable : t -> stable:Vclock.t -> int

(** Reclaim CRDT metadata made dead by causal stability (rem-wins
    barriers, stably-removed payloads) and truncate the stable batch-log
    prefix.  Returns CRDT records reclaimed. *)
val gc : t -> int

(** An immutable capture of a replica's full replication state, for the
    simulation fuzzer's shrink re-runs. *)
type snapshot

(** Capture the replica's state; unaffected by later operations. *)
val snapshot : t -> snapshot

(** Reset the replica to a snapshot.  Digest caches are invalidated and
    rebuilt lazily, so post-restore digests are bit-identical to a
    from-scratch run. *)
val restore : t -> snapshot -> unit

(** {1 Crash recovery} (see {!Wal}) *)

(** Wipe the replica back to freshly-created state, keeping its
    identity, peer list, shard/bucket geometry, hooks and pending
    high-water mark: {!restore} of the empty state.  Crash recovery
    resets in place so closures holding the replica keep targeting it,
    then replays snapshot + WAL. *)
val reset : t -> unit

(** Recovery replay of a logged batch (own or remote): re-applies its
    updates without delivery gating (WAL append order is application
    order) and skips batches starting at or below the per-origin
    cursor, making replay idempotent; returns whether the batch was
    applied.  A compacted interval replays whole, as it was applied.  A remote
    batch moves its origin's cursor exactly as a delivery does, dropping
    the pending entries it overtakes (a checkpoint snapshot captures the
    pending buffer), and replay drains afterwards.  Hooks are not fired
    for the replayed batch itself (drained deliveries do fire them). *)
val replay_batch : t -> batch -> bool

(** {1 Log compaction} (delta-state anti-entropy; see {!Sync}) *)

(** Compact the log entries [origin] committed beyond a destination's
    clock [have] into one batch ([None] if the log holds none it can
    apply): set effects joined into one [Obj.Op_join] fragment per key,
    counter ops summed per key and replica slot, other types' ops raw.
    It covers the longest prefix of those entries whose other-origin
    dependencies [have] covers, so the destination applies it at once;
    {!receive} delivers it, the log and WAL record it and
    {!replay_batch} replays it like any batch. *)
val compact_after : t -> origin:string -> have:Vclock.t -> batch option
