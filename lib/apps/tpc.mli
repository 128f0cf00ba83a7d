(** TPC-C / TPC-W slice (§5.1.2): product-listing management adds
    referential integrity; the stock invariant uses the restock
    compensation the benchmark specification prescribes.

    [Ipa]'s new_order touches the item listing (restoring it against a
    concurrent removal); stock lives in a compensation counter. *)

open Ipa_store
open Ipa_runtime

type variant = Causal | Ipa

type t

val create : ?initial_stock:int -> ?restock_amount:int -> variant -> t

val add_item : t -> string -> Config.op_exec
val rem_item : t -> string -> Config.op_exec
val new_order : t -> order_id:string -> string -> string -> Config.op_exec
val check_stock : t -> string -> Config.op_exec

(** Dangling order lines + stock under-runs visible at a replica. *)
val count_violations : t -> Replica.t -> int

type workload_params = {
  n_items : int;
  n_customers : int;
  order_ratio : float;
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
