(** Store helpers shared by the applications: operation records and
    add-wins set updates inside a transaction. *)

open Ipa_crdt
open Ipa_store
open Ipa_runtime

(** An operation record: name, update flag, reservations, transaction. *)
val mk :
  string ->
  bool ->
  (string * Config.res_kind) list ->
  (Replica.t -> Config.outcome) ->
  Config.op_exec

(** The transaction's view of an add-wins set. *)
val aw_get : Txn.t -> string -> Awset.t

(** Buffer an add (with an optional payload) of an element. *)
val aw_add : ?payload:string -> Txn.t -> string -> string -> unit

(** Buffer a touch: re-assert an element, keeping its payload. *)
val aw_touch : Txn.t -> string -> string -> unit

(** Buffer a remove of an element's observed adds. *)
val aw_remove : Txn.t -> string -> string -> unit
