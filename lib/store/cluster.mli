(** A cluster of replicas with pluggable batch transport: tests use
    {!broadcast_now}; the simulator routes batches through its latency
    model and calls {!Replica.receive} itself. *)

type t = { replicas : Replica.t list }

(** One replica per (id, region) pair; membership is distributed for
    causal-stability tracking.  [shards] sets every replica's keyspace
    partition count. *)
val create : ?shards:int -> (string * string) list -> t

val replica : t -> string -> Replica.t
val others : t -> string -> Replica.t list

(** Deliver a batch to every other replica immediately. *)
val broadcast_now : t -> Replica.batch -> unit

(** A snapshot of every replica, for the fuzzer's shrink re-runs. *)
type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** Do all replicas agree (equal clocks, equal observable-state digests,
    no pending batches)? *)
val quiescent : t -> bool
