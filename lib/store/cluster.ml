(** A cluster of replicas with pluggable batch transport.

    Tests use {!broadcast_now} (instant delivery); the simulator routes
    batches through its latency model and calls {!Replica.receive}
    itself. *)

type t = { replicas : Replica.t list }

(** [create regions] makes one replica per (id, region) pair; each
    replica learns the full membership (needed for causal stability).
    [shards] sets every replica's keyspace partition count (they must
    agree for digest-tree descent to compare shards pairwise). *)
let create ?shards (specs : (string * string) list) : t =
  let replicas =
    List.map (fun (id, region) -> Replica.create ~region ?shards id) specs
  in
  let ids = List.map fst specs in
  List.iter (fun (r : Replica.t) -> r.Replica.peers <- ids) replicas;
  { replicas }

let replica (c : t) (id : string) : Replica.t =
  List.find (fun (r : Replica.t) -> r.Replica.id = id) c.replicas

let others (c : t) (id : string) : Replica.t list =
  List.filter (fun (r : Replica.t) -> r.Replica.id <> id) c.replicas

(** Deliver a batch to every other replica immediately. *)
let broadcast_now (c : t) (b : Replica.batch) : unit =
  List.iter (fun r -> Replica.receive r b) (others c b.Replica.b_origin)

(** A snapshot of every replica, for the fuzzer's shrink re-runs. *)
type snapshot = (string * Replica.snapshot) list

let snapshot (c : t) : snapshot =
  List.map (fun (r : Replica.t) -> (r.Replica.id, Replica.snapshot r)) c.replicas

let restore (c : t) (s : snapshot) : unit =
  List.iter
    (fun (r : Replica.t) -> Replica.restore r (List.assoc r.Replica.id s))
    c.replicas

(** Do replicas agree on the observable state?  Compares vector clocks
    {e and} per-replica state digests: once the network can duplicate or
    lose messages, equal clocks alone no longer prove equal state (a
    double-applied counter increment leaves the clock untouched).

    The comparison uses the rolling combinable digest
    ({!Replica.digest_equal}): O(keys changed since the last poll) per
    replica instead of a full state re-render, which is what makes
    high-rate convergence polling affordable.  Both digests are equal
    exactly when the observable states agree (up to hash collision), so
    the answer is the one an exact {!Replica.state_digest} comparison
    gives. *)
let quiescent (c : t) : bool =
  match c.replicas with
  | [] -> true
  | r0 :: rest ->
      (* root-digest comparison without building the digest strings:
         refresh is O(changed keys), the comparison O(1) *)
      List.for_all
        (fun (r : Replica.t) ->
          Ipa_crdt.Vclock.equal r.Replica.vv r0.Replica.vv
          && Replica.pending_count r = 0
          && Replica.digest_equal r0 r)
        rest
      && Replica.pending_count r0 = 0
