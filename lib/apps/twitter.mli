(** The Twitter clone (§5.1.2 / Figure 6): pervasive referential
    integrity between timelines, tweets and users.

    [Causal] is unmodified; [Add_wins] restores users/tweets on the
    write path (tweet/retweet cost); [Rem_wins] lets removals win and
    hides dangling entries with a read-side compensation (timeline
    cost), purging removed users' history with wildcard removes. *)

open Ipa_store
open Ipa_runtime

type variant = Causal | Add_wins | Rem_wins

type t

val create : ?followers_per_user:int -> variant -> t

val add_user : t -> string -> Config.op_exec
val rem_user : t -> n_users:int -> string -> Config.op_exec
val do_tweet : t -> n_users:int -> string -> string -> Config.op_exec
val retweet : t -> n_users:int -> string -> string -> Config.op_exec
val del_tweet : t -> string -> Config.op_exec
val follow : t -> string -> string -> Config.op_exec
val unfollow : t -> string -> string -> Config.op_exec
val timeline : t -> string -> Config.op_exec

type workload_params = {
  n_users : int;
  n_tweets : int;
  read_ratio : float;
}

val default_params : workload_params
val next_op : t -> workload_params -> Ipa_sim.Rng.t -> region:string -> Config.op_exec
val seed_data : t -> workload_params -> Cluster.t -> unit

(** {1 Fuzzer hooks} *)

(** Fuzzable operations: name × parameter sorts (user arguments must be
    of the form [u<N>]). *)
val fuzz_ops : (string * string list) list

(** Dispatch by name with positional string arguments; [None] on an
    unknown name or wrong arity. *)
val exec_op : t -> n_users:int -> string -> string list -> Config.op_exec option
