(** Per-replica write-ahead log: length-prefixed CRC-checksummed
    records, group-commit batching, snapshot + replay crash recovery.

    Durability contract: a local commit's record is flushed before
    {!Replica.commit} returns (acknowledged-write durability), and a
    commit flushes every earlier buffered apply with it — so the durable
    prefix always covers a committed batch's causal dependencies.
    Unflushed remote applies may be lost on crash; the per-origin
    applied cursor regresses consistently with the state and
    anti-entropy ({!Sync}) re-delivers them.  Every applied batch is
    logged, a compacted interval from delta repair included, so the
    recovered cursor never claims effects the state lacks.

    Records and snapshots are [Marshal]ed plain data (no closures), an
    in-process format: batches and snapshots carry process-local
    interned ids ({!Replica.batch}'s [b_kids], the replica ids inside
    every {!Ipa_crdt.Vclock}), so only the process that wrote a log can
    {!recover} it: a fresh process reads those ids as unknown
    ([Invalid_argument "Intern.name: unknown id"] at the first lookup)
    or as whatever it interned under the same number. *)

(** A logged replication event: a batch the replica committed locally,
    or one it applied from a remote origin (one commit or a compacted
    interval). *)
type record = R_commit of Replica.batch | R_apply of Replica.batch

type t = {
  dir : string;
  rid : string;  (** owning replica id — names the files *)
  group_commit : int;  (** apply records buffered per flush (≥ 1) *)
  buf : Buffer.t;  (** frames not yet written — lost on crash *)
  mutable oc : out_channel option;
  mutable buffered : int;  (** records currently in [buf] *)
  mutable appended : int;  (** records framed since creation *)
  mutable flushes : int;  (** physical flushes performed *)
}

(** WAL file path for replica [id] under [dir] ([<id>.wal]). *)
val wal_path : dir:string -> id:string -> string

(** Snapshot file path for replica [id] under [dir] ([<id>.snap]). *)
val snap_path : dir:string -> id:string -> string

(** CRC-32 (IEEE 802.3) over [len] bytes of [s] starting at [pos] —
    exposed for the corruption-matrix tests. *)
val crc32 : string -> int -> int -> int

(** Open (creating [dir] and the log file if needed) a WAL for replica
    [id].  [group_commit] is the number of apply records buffered per
    physical flush (default 8; commits always flush immediately). *)
val create : ?group_commit:int -> dir:string -> id:string -> unit -> t

(** Write and physically flush every buffered frame. *)
val flush : t -> unit

(** Append one record; commits flush immediately, applies are
    group-committed. *)
val append : t -> record -> unit

(** Hook the WAL into a replica's [on_commit] / [on_apply] (composing
    with, and running before, any existing hooks).  Attach once per
    replica; the hooks survive {!recover} because {!Replica.reset}
    keeps them. *)
val attach : t -> Replica.t -> unit

(** Simulate a crash: discard the unflushed buffer and abandon the
    channel. *)
val crash : t -> unit

(** Orderly close (flushes first). *)
val close : t -> unit

(** Persist a snapshot (written to a temp file, then renamed — atomic)
    and truncate the WAL, which the snapshot now covers.  With [gc]
    (default [true]) the replica first runs {!Replica.gc}, aligning the
    snapshot's batch log and the WAL restart with the causal-stability
    window. *)
val checkpoint : ?gc:bool -> t -> Replica.t -> unit

type recovery = {
  rec_snapshot : bool;  (** a snapshot file was loaded *)
  rec_replayed : int;  (** records applied by replay *)
  rec_skipped : int;  (** records skipped as duplicates / pre-snapshot *)
  rec_valid_bytes : int;  (** length of the valid WAL prefix *)
  rec_dropped_bytes : int;  (** torn / corrupt tail discarded *)
}

(** Recover the replica in place: {!Replica.reset}, restore the
    snapshot if present, replay the longest valid WAL prefix through
    {!Replica.replay_batch} (stopping at the first torn or
    checksum-failed frame), truncate the invalid tail and reopen for
    appending. *)
val recover : t -> Replica.t -> recovery

(** Delete the replica's WAL and snapshot files (test hygiene). *)
val remove_files : t -> unit
