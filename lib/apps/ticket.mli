(** The Ticket application (FusionTicket, §5.1.2 / Figure 7): tickets
    must not be oversold.

    [Causal] exposes oversells; [Ipa] repairs them on read through the
    compensation counter (cancel + reimburse); [Escrow] prevents them
    with the decrement rights of a replicated bounded counter, paying a
    WAN round-trip ({!Ipa_store.Rights.fetch}) when a replica's rights
    run out.  Its buys need the cluster {!seed_data} received. *)

open Ipa_store
open Ipa_runtime

type variant = Causal | Ipa | Escrow

type t

val create : ?initial_stock:int -> variant -> t

val buy_ticket : t -> string -> Config.op_exec
val read_event : t -> string -> Config.op_exec
val add_tickets : t -> string -> int -> Config.op_exec

(** Total oversold tickets a user can observe. *)
val oversell_depth : t -> Replica.t -> string list -> int

type workload_params = {
  n_events : int;  (** fewer events = more contention *)
  buy_ratio : float;
  restock_ratio : float;
  restock_amount : int;
}

val default_params : workload_params
val next_op : t -> workload_params -> Ipa_sim.Rng.t -> region:string -> Config.op_exec
val seed_data : t -> workload_params -> Cluster.t -> unit

(** {1 Fuzzer hooks} *)

(** Fuzzable operations: name × parameter sorts. *)
val fuzz_ops : (string * string list) list

(** Dispatch by name with positional string arguments; [None] on an
    unknown name, wrong arity or malformed amount. *)
val exec_op : t -> string -> string list -> Config.op_exec option
