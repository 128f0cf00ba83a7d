(** The full-state repair baseline of the durability experiment: ships
    every divergent key's whole rendered state, where {!Sync.repair}
    ships raw or compacted batches. *)

open Ipa_store

(** Full-state repair: join src's rendered state of every divergent key
    into dst, then adopt src's delivery knowledge wholesale (clock,
    per-origin cursors, peer clocks).  The adoption is what keeps later
    batch deliveries exactly-once: every effect included in src's states
    is now below dst's cursors.  Sound only when the divergent keys are
    all set/counter CRDTs.  The durability experiment's comparison
    point for {!Sync.repair}'s compacted batches; it uses only the
    public {!Replica} and {!Sync} interfaces. *)
let repair ~(src : Replica.t) ~(dst : Replica.t) : Sync.repair_stats =
  let d = Sync.divergent_keys ~a:src ~b:dst in
  let bytes = ref 0 and units = ref 0 and accepted = ref 0 in
  List.iter
    (fun key ->
      match Replica.peek src key with
      | None -> ()  (* dst-only key: nothing to ship, join cannot erase *)
      | Some o -> (
          match Obj.as_delta o with
          | None ->
              raise
                (Obj.Type_mismatch
                   "Full_state.repair: full-state repair of a non-joinable object")
          | Some frag ->
              incr units;
              bytes := !bytes + Sync.wire_bytes (key, frag);
              Replica.apply_update dst (key, Obj.Op_join frag);
              incr accepted))
    d.Sync.divergent;
  dst.Replica.vv <- Ipa_crdt.Vclock.merge dst.Replica.vv src.Replica.vv;
  Hashtbl.iter
    (fun origin seq ->
      let cur =
        Option.value ~default:0 (Hashtbl.find_opt dst.Replica.applied origin)
      in
      if origin <> dst.Replica.id && seq > cur then
        Hashtbl.replace dst.Replica.applied origin seq)
    src.Replica.applied;
  (* src's own commits are below src.vv too; advance dst's cursor *)
  (let cur =
     Option.value ~default:0
       (Hashtbl.find_opt dst.Replica.applied src.Replica.id)
   in
   if src.Replica.seq > cur then
     Hashtbl.replace dst.Replica.applied src.Replica.id src.Replica.seq);
  let learn peer vv =
    let prev =
      Option.value ~default:Ipa_crdt.Vclock.empty
        (Hashtbl.find_opt dst.Replica.peer_vvs peer)
    in
    Hashtbl.replace dst.Replica.peer_vvs peer (Ipa_crdt.Vclock.merge prev vv)
  in
  Hashtbl.iter learn src.Replica.peer_vvs;
  learn src.Replica.id src.Replica.vv;
  { Sync.r_bytes = !bytes; r_units = !units; r_accepted = !accepted }

