(** Highly-available transactions over a replica (§2.1): causal-snapshot
    reads with read-your-writes, buffered updates, one atomic commit
    batch, never any coordination. *)

open Ipa_crdt

type t = {
  rep : Replica.t;
  mutable updates : (string * Obj.op) list;  (** reverse order *)
  mutable kids : int list;
      (** interned key ids, parallel to [updates] (reverse order) *)
  mutable n_updates : int;  (** length of [updates] *)
  view : (string, Obj.t) Hashtbl.t;
      (** read-after-write cache: key → base state with buffered
          updates replayed (populated only for keys read after a
          write) *)
  written : (int, unit) Hashtbl.t;
      (** interned ids of keys with buffered updates *)
  mutable events : int;  (** clock ticks consumed *)
  mutable committed : bool;
}

val begin_ : Replica.t -> t

(** The transaction's view of an object: replica state plus the
    transaction's own buffered updates for that key. *)
val get : t -> string -> Obj.otype -> Obj.t

(** A fresh dot for a prepared effect (ticks the transaction). *)
val fresh_dot : t -> Vclock.dot

(** The source clock including every event of this transaction so far
    (for remove-wins adds). *)
val current_vv : t -> Vclock.t

(** Tick the transaction and return the clock including the new event —
    for rem-wins removes and wildcard barriers, which must dominate
    everything the source has seen. *)
val fresh_vv : t -> Vclock.t

(** Buffer an update effect. *)
val update : t -> string -> Obj.op -> unit

val update_count : t -> int
val keys_written : t -> int

(** Commit the buffered updates atomically; [None] for read-only
    transactions.  Raises [Invalid_argument] on double commit. *)
val commit : t -> Replica.batch option

val abort : t -> unit
