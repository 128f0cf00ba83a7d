(** Discrete-event simulation engine: a time-ordered queue of closures.
    Time is in milliseconds; ties execute in scheduling order. *)

type t

val create : unit -> t

(** Current simulation time (ms). *)
val now : t -> float

(** Schedule an action [delay] ms from now (delays clamp to 0). *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** Run events up to and including [t_end]; later events stay queued and
    the clock advances to [t_end]. *)
val run_until : t -> float -> unit

(** Drain the queue completely. *)
val run : t -> unit

val events_executed : t -> int
