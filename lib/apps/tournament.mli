(** The Tournament application (Figure 1) over the replicated store.

    [Causal] runs the original operations (which can violate invariants
    under concurrency); [Ipa] runs the Figure 3 modifications: restoring
    touches on enroll/begin/finish/do_match and Compensation-Set
    enrollment sets enforcing the capacity bound on read (with a cascade
    removing matches of evicted players, so the repair itself preserves
    the other invariants). *)

open Ipa_store
open Ipa_runtime

type variant = Causal | Ipa

type t = { variant : variant; capacity : int }

val create : ?capacity:int -> variant -> t

(** {1 Operations} (preconditions checked against local state) *)

val add_player : t -> string -> Config.op_exec
val rem_player : t -> string -> Config.op_exec
val add_tourn : t -> string -> Config.op_exec
val rem_tourn : t -> string -> Config.op_exec
val enroll : t -> string -> string -> Config.op_exec
val disenroll : t -> string -> string -> Config.op_exec
val begin_tourn : t -> string -> Config.op_exec
val finish_tourn : t -> string -> Config.op_exec
val do_match : t -> string -> string -> string -> Config.op_exec

(** Read-only status; triggers the capacity compensation in IPA mode. *)
val status : t -> string -> Config.op_exec

(** Invariant-violation instances visible at a replica. *)
val count_violations : t -> Replica.t -> int

(** {1 Workload (§5.2.2: 35% writes, the Figure 5 mix)} *)

type workload_params = {
  n_players : int;
  n_tournaments : int;
  write_ratio : float;
}

val default_params : workload_params
val next_op : t -> workload_params -> Ipa_sim.Rng.t -> region:string -> Config.op_exec
val seed_data : t -> workload_params -> Cluster.t -> unit

(** {1 Fuzzer hooks} *)

(** Fuzzable operations: name × parameter sorts. *)
val fuzz_ops : (string * string list) list

(** Dispatch by name with positional string arguments; [None] on an
    unknown name or wrong arity. *)
val exec_op : t -> string -> string list -> Config.op_exec option
