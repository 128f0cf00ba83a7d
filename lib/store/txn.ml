(** Highly-available transactions over a replica (paper §2.1, [6]).

    A transaction reads from its replica's current causal snapshot (plus
    its own buffered writes — read-your-writes), buffers update effects,
    and commits them as one atomic batch.  Commit never coordinates:
    the batch is applied locally and replicated asynchronously. *)

open Ipa_crdt

type t = {
  rep : Replica.t;
  mutable updates : (string * Obj.op) list;  (** reverse order *)
  mutable kids : int list;
      (** interned key ids, parallel to [updates] (reverse order) —
          interning happens once per update here, and the ids are handed
          to {!Replica.commit} so the commit path never re-hashes the
          key strings *)
  mutable n_updates : int;  (** length of [updates] *)
  view : (string, Obj.t) Hashtbl.t;
      (** key → base state with this txn's buffered updates applied,
          populated only for keys read {e after} a write and kept
          current by later writes: it keeps such reads O(1) instead of
          replaying the whole update list per read (quadratic in large
          batches).  Clean reads go straight to the replica — caching
          them too would cost a table write per read for keys never
          written again *)
  written : (int, unit) Hashtbl.t;
      (** interned ids of keys with at least one buffered update — a
          [get] of a key never written skips the replay entirely (int
          keys hash cheaper than the strings on the buffering path) *)
  mutable events : int;  (** clock ticks consumed (one per effect) *)
  mutable committed : bool;
}

let begin_ (rep : Replica.t) : t =
  {
    rep;
    updates = [];
    kids = [];
    n_updates = 0;
    view = Hashtbl.create 16;
    written = Hashtbl.create 16;
    events = 0;
    committed = false;
  }

(** The transaction's view of an object: replica state with the
    transaction's own buffered updates for that key replayed on top
    (read-your-writes).  Replayed results are cached per key (and kept
    current by {!update}), so repeated reads after a write cost one
    table lookup. *)
let get (tx : t) (key : string) (ty : Obj.otype) : Obj.t =
  let kid = Ipa_crdt.Intern.id key in
  if tx.n_updates > 0 && Hashtbl.mem tx.written kid then
    match Hashtbl.find_opt tx.view key with
    | Some o -> o
    | None ->
        (* written before this read (rare): replay the buffered updates
           for the key on top of the replica state, and cache the result
           so a second read skips the replay *)
        let o =
          List.fold_left
            (fun o (k, op) -> if k = key then Obj.apply o op else o)
            (Replica.get_kid tx.rep kid ty)
            (List.rev tx.updates)
        in
        Hashtbl.replace tx.view key o;
        o
  else
    (* never written in this txn: the replica lookup is as cheap as the
       view cache would be, and a read-then-write key would only have
       its entry invalidated again — don't populate the view *)
    Replica.get_kid tx.rep kid ty

(** A fresh dot for a prepared effect (ticks the transaction's event
    count; the dot becomes part of the origin clock at commit). *)
let fresh_dot (tx : t) : Vclock.dot =
  tx.events <- tx.events + 1;
  {
    Vclock.rep = tx.rep.Replica.id;
    cnt = Vclock.get tx.rep.Replica.vv tx.rep.Replica.id + tx.events;
  }

(** The clock a prepared effect should carry: the source clock including
    every event of this transaction so far (used by remove-wins adds). *)
let current_vv (tx : t) : Vclock.t =
  Vclock.set tx.rep.Replica.vv tx.rep.Replica.id
    (Vclock.get tx.rep.Replica.vv tx.rep.Replica.id + tx.events)

(** The clock for an effect that is its own event — rem-wins removes and
    wildcard barriers: ticks the transaction and returns the clock
    including the new event, so the barrier dominates everything the
    source has seen (an empty-clock barrier would mask nothing). *)
let fresh_vv (tx : t) : Vclock.t =
  tx.events <- tx.events + 1;
  current_vv tx

(** Buffer an update effect.  A key with a cached view has the op
    applied to it, so k read-modify-write rounds on one key cost O(k).
    A key without one pays nothing here: written once and never re-read
    (the common shape of a large batch), it pays a single [Obj.apply] at
    commit, and its first read-after-write builds the view through the
    replay path in [get]. *)
let update (tx : t) (key : string) (op : Obj.op) : unit =
  tx.updates <- (key, op) :: tx.updates;
  tx.kids <- Ipa_crdt.Intern.id key :: tx.kids;
  tx.n_updates <- tx.n_updates + 1;
  Hashtbl.replace tx.written (List.hd tx.kids) ();
  (* the view only ever holds read-after-write entries; skip the string
     hash entirely while it is empty (the common case) *)
  if Hashtbl.length tx.view > 0 then
    match Hashtbl.find_opt tx.view key with
    | Some o -> Hashtbl.replace tx.view key (Obj.apply o op)
    | None -> ()

(** Number of updates buffered so far. *)
let update_count (tx : t) : int = tx.n_updates

(** Distinct keys written so far. *)
let keys_written (tx : t) : int = Hashtbl.length tx.written

(** Commit: apply the buffered updates atomically at the local replica
    and return the replication batch ([None] for read-only
    transactions). *)
let commit (tx : t) : Replica.batch option =
  if tx.committed then invalid_arg "Txn.commit: already committed";
  tx.committed <- true;
  match tx.updates with
  | [] -> None
  | ups ->
      (* materialize the buffered kid list (reverse order) straight into
         the batch's array form *)
      let kids = Array.make tx.n_updates 0 in
      List.iteri (fun i kid -> kids.(tx.n_updates - 1 - i) <- kid) tx.kids;
      Some
        (Replica.commit tx.rep ~kids ~events:(max 1 tx.events)
           (List.rev ups))

let abort (tx : t) : unit = tx.committed <- true
