(** Measurement collection: per-operation latency series, throughput,
    violation, failure and replication-delivery counts for the benchmark
    harness. *)

(** Replication-layer delivery observability. *)
type delivery = {
  mutable batches_sent : int;  (** batch transmissions handed to the net *)
  mutable batches_dropped : int;  (** transmissions lost (loss/partition) *)
  mutable batches_duplicated : int;  (** extra copies the net injected *)
  mutable batches_retransmitted : int;  (** anti-entropy resends *)
  mutable duplicates_suppressed : int;  (** already-applied batches dropped *)
  mutable pending_hwm : int;  (** deepest causal-delivery buffer seen *)
  mutable visibility : float list;
      (** origin commit → remote apply latencies (ms) *)
  mutable visibility_n : int;
}

(** Escrow/reservation-path observability (the escrow bench and the
    fuzzer's conservation oracle): blocking-miss vs piggyback-hit
    counts, rights moved (total and proactively migrated), final
    per-replica rights histograms. *)
type escrow = {
  mutable blocking_misses : int;
      (** decrements that paid a blocking WAN rights fetch *)
  mutable stockouts : int;
      (** blocking misses among them where the fetch found no rights
          anywhere — a global stock-out no placement could have
          served; [blocking_misses - stockouts] is the placement-miss
          count the planner is judged on *)
  mutable piggyback_hits : int;
      (** decrements covered by locally-held rights *)
  mutable rights_transfers : int;  (** rights-moving ops committed *)
  mutable rights_shipped : int;  (** rights units moved, total *)
  mutable migrations : int;  (** proactive (piggybacked) migration ops *)
  mutable migrated_rights : int;  (** rights units moved proactively *)
  mutable rights_hist : (string * (string * int) list) list;
      (** final per-key, per-replica rights histograms *)
}

type t = {
  by_op : (string, series) Hashtbl.t;
  mutable violations : int;
  mutable failures : int;
  mutable started_at : float;
  mutable finished_at : float;
  delivery : delivery;
  escrow : escrow;
}

and series = { mutable samples : float list; mutable n : int }

val create : unit -> t

(** Record one operation latency (ms). *)
val record : t -> op:string -> float -> unit

val record_violations : t -> int -> unit
val record_failure : t -> unit

(** Record one batch's visibility latency (commit → remote apply). *)
val record_visibility : t -> float -> unit

(** Record one escrow-guarded decrement attempt: covered locally
    ([`Hit]) or blocked on a synchronous fetch of [n] rights
    ([`Miss n] — [`Miss 0] means the fetch found no rights anywhere
    and counts as a stock-out). *)
val record_escrow_attempt : t -> [ `Hit | `Miss of int ] -> unit

(** Record one proactive (anti-entropy-piggybacked) rights migration. *)
val record_escrow_migration : t -> rights:int -> unit

(** Fraction of escrow-guarded attempts that blocked ([0.0] when none
    were attempted). *)
val escrow_miss_rate : t -> float

(** Fraction of attempted operations that executed successfully. *)
val availability : t -> float

val count : t -> ?op:string -> unit -> int
val all_samples : t -> ?op:string -> unit -> float list

(** {1 Statistics} *)

val mean : float list -> float
val stddev : float list -> float

(** Nearest-rank percentile: the value at rank ⌈p/100·n⌉ of the sorted
    samples (0.0 on an empty list). *)
val percentile : float -> float list -> float

(** Several percentiles of one sample set, sorted once. *)
val percentiles : float list -> float list -> float list

val mean_latency : t -> ?op:string -> unit -> float
val stddev_latency : t -> ?op:string -> unit -> float
val p95_latency : t -> ?op:string -> unit -> float

(** Completed operations per second over the measured window. *)
val throughput : t -> float

(** One-line replication-delivery summary for bench output. *)
val pp_delivery : Format.formatter -> t -> unit

(** One-line escrow/reservation-path summary (miss/hit counts, rights
    moved, hottest keys' rights histograms). *)
val pp_escrow : Format.formatter -> t -> unit
