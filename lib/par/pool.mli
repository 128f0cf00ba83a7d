(** Fixed-size domain pool with order-preserving parallel iteration.

    One pool owns [jobs - 1] worker domains (the caller participates as
    worker 0) and hands them batches of indexed tasks through a shared
    claim counter — chunk-free self-scheduling, so an expensive item
    never strands the rest of the batch behind it.  Results are written
    into per-index slots, making {!map_worker} and {!filter_map_worker}
    preserve input order regardless of completion order.

    A pool with [jobs = 1] spawns no domains and runs every batch
    sequentially on the caller — the zero-overhead fallback used by the
    default library configuration, which keeps single-threaded runs
    byte-for-byte identical to the pre-multicore code path.

    Built on stdlib [Domain]/[Mutex]/[Condition]/[Atomic] only. *)

type t

(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs] is
    clamped to [\[1, cap\]] ({!clamp}); absent, it is {!env_jobs}.
    This is the one place a requested worker count is resolved: every
    pooled entry point ([Ipa.run], [Ipa.diagnose], [Fuzz.campaign])
    passes its [?jobs] through and reads the result back with {!jobs}. *)
val create : ?jobs:int -> unit -> t

(** Number of concurrent workers (caller included), as resolved by
    {!create}. *)
val jobs : t -> int

(** Join the worker domains.  The pool must not be used afterwards.
    Idempotent. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards (also on exception). *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** [map_worker p ~f xs] — order-preserving parallel map; [f] also
    receives the index of the worker executing the item ([0] is the
    caller, [1 .. jobs-1] the pooled domains), so callers can maintain
    per-domain state (caches, contexts) without synchronization.  The
    first exception raised by any item is re-raised on the caller after
    the batch drains. *)
val map_worker : t -> f:(worker:int -> 'a -> 'b) -> 'a list -> 'b list

(** Order-preserving parallel filter-map, with the worker index as in
    {!map_worker}. *)
val filter_map_worker : t -> f:(worker:int -> 'a -> 'b option) -> 'a list -> 'b list

(* ------------------------------------------------------------------ *)
(* Job-count policy                                                    *)
(* ------------------------------------------------------------------ *)

(** Hard cap on pool width (memory per worker context dominates past
    this; see DESIGN.md §8). *)
val cap : int

(** [max 1 (min cap n)] — the pool's width for a requested [n]. *)
val clamp : int -> int

(** [Domain.recommended_domain_count ()] clamped to [\[1, cap\]] — the
    default for the command-line tools. *)
val recommended : unit -> int

(** The [IPA_JOBS] environment override clamped to [\[1, cap\]], or [1]
    when unset/unparsable — the default for library entry points
    ({!Ipa_core.Ipa.run}, [Fuzz.campaign]), so embedded and test runs
    stay sequential unless explicitly opted in. *)
val env_jobs : unit -> int

(** [IPA_JOBS] when set, {!recommended} otherwise — the CLI default. *)
val default_jobs : unit -> int
