(** Store helpers shared by the applications: operation records and
    add-wins set updates inside a transaction. *)

open Ipa_crdt
open Ipa_store
open Ipa_runtime

let mk name is_update reservations run : Config.op_exec =
  { Config.op_name = name; is_update; reservations; run }

let aw_get tx key = Obj.as_awset (Txn.get tx key Obj.T_awset)

let aw_add ?payload tx key e =
  let s = aw_get tx key in
  Txn.update tx key
    (Obj.Op_awset (Awset.prepare_add ?payload s ~dot:(Txn.fresh_dot tx) e))

let aw_touch tx key e =
  let s = aw_get tx key in
  Txn.update tx key
    (Obj.Op_awset (Awset.prepare_touch s ~dot:(Txn.fresh_dot tx) e))

let aw_remove tx key e =
  let s = aw_get tx key in
  Txn.update tx key (Obj.Op_awset (Awset.prepare_remove s e))
