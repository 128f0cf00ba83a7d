(** Escrow rights moved on demand (see the interface). *)

open Ipa_crdt

type side = Rights | Headroom

let held (side : side) (r : Replica.t) (key : string) : int =
  match Replica.peek r key with
  | None -> 0
  | Some o -> (
      let c = Obj.as_bcounter o in
      match side with
      | Rights -> Bcounter.local_rights c r.Replica.id
      | Headroom -> Bcounter.local_headroom c r.Replica.id)

(* commit one op on [key] at [rep], prepared against its current view;
   [None] when the ledger refuses it (the transaction is aborted) *)
let commit_guarded rep key prepare : Replica.batch option =
  let tx = Txn.begin_ rep in
  match prepare (Obj.as_bcounter (Txn.get tx key Obj.T_bcounter)) with
  | op ->
      Txn.update tx key (Obj.Op_bcounter op);
      Txn.commit tx
  | exception
      (Bcounter.Insufficient_rights _ | Bcounter.Insufficient_headroom _) ->
      Txn.abort tx;
      None

let plan ?(reachable = fun _ -> true) (cluster : Cluster.t) (side : side)
    (rep : Replica.t) ~(key : string) ~(need : int) :
    (Replica.t * int) list option =
  let rec take mine acc = function
    | _ when mine >= need -> Some (List.rev acc)
    | [] -> None
    | (peer, have) :: rest ->
        let n = min have (max (need - mine) (have / 2)) in
        take (mine + n) ((peer, n) :: acc) rest
  in
  cluster.Cluster.replicas
  |> List.filter_map (fun (peer : Replica.t) ->
         if peer.Replica.id = rep.Replica.id || not (reachable peer) then None
         else
           let have = held side peer key in
           if have > 0 then Some (peer, have) else None)
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  |> take (held side rep key) []

let acquire ?reachable (cluster : Cluster.t) (side : side) (rep : Replica.t)
    ~(key : string) ~(need : int) : (Replica.t * int) list option =
  let pulls = plan ?reachable cluster side rep ~key ~need in
  let to_ = rep.Replica.id in
  Option.iter
    (List.iter (fun ((peer : Replica.t), n) ->
         let from_ = peer.Replica.id in
         Sync.pull ~src:peer rep;
         Option.iter (Cluster.broadcast_now cluster)
           (commit_guarded peer key (fun c ->
                match side with
                | Rights -> Bcounter.prepare_transfer c ~from_ ~to_ n
                | Headroom -> Bcounter.prepare_hmove c ~from_ ~to_ n))))
    pulls;
  pulls

type fetched = {
  attempt : [ `Hit | `Miss of int ];
  batch : Replica.batch option;
}

let fetch (cluster : Cluster.t) (side : side) (rep : Replica.t)
    ~(key : string) : fetched =
  let me = rep.Replica.id in
  let guarded c =
    match side with
    | Rights -> Bcounter.prepare_dec c ~rep:me 1
    | Headroom -> Bcounter.prepare_inc c ~rep:me 1
  in
  match commit_guarded rep key guarded with
  | Some _ as batch -> { attempt = `Hit; batch }
  | None -> (
      match acquire cluster side rep ~key ~need:1 with
      | None | Some [] -> { attempt = `Miss 0; batch = None }
      | Some pulls ->
          {
            attempt = `Miss (List.fold_left (fun a (_, n) -> a + n) 0 pulls);
            batch = commit_guarded rep key guarded;
          })
