(** Anti-entropy: digest exchange + retransmission of lost batches.

    With a faulty network, a dropped batch would wedge causal delivery
    at its destination forever (every later batch from the same origin
    buffers behind the gap).  Anti-entropy closes such gaps: replicas
    periodically exchange vector-clock digests (plus the keys of batches
    already buffered), and every replica retransmits, from its batch
    log, the batches a peer is missing.  Because {!Replica.receive} is
    idempotent, over-sending is harmless; a per-(destination, batch)
    capped exponential backoff keeps retransmission traffic bounded
    while a gap persists (e.g. across a partition).

    The digest exchange itself is modelled as an out-of-band control
    channel (instant and reliable); only the retransmitted {e batches}
    travel through the faulty data path the caller's [send] implements,
    so retransmissions can themselves be lost, duplicated or delayed. *)

(** What a replica advertises: its applied clock plus the (origin,
    first covered commit) keys it has buffered — buffered batches need
    no retransmission. *)
type digest = { d_vv : Ipa_crdt.Vclock.t; d_have : (string * int) list }

type t = {
  cluster : Cluster.t;
  base_backoff_ms : float;
  max_backoff_ms : float;
  next_retry : (string * string * int, float * float) Hashtbl.t;
      (** (destination, origin, first covered commit) → (earliest next
          retransmit time, backoff to apply after it) *)
  mutable rounds : int;
  mutable retransmitted : int;
  delta_buf :
    (string * string, (Ipa_crdt.Vclock.t * int) * Replica.batch) Hashtbl.t;
      (** per-peer compacted-interval buffer: (destination, origin) →
          the compacted batch last built for that peer, keyed by the
          peer's clock and the origin's last logged commit it was built
          against.  Reused while the peer has not acknowledged progress
          (its clock is unchanged) and the origin's log has not grown;
          evicted on acknowledgement *)
  mutable delta_buf_hits : int;
      (** compacted batches served from the buffer *)
  mutable on_round : (now:float -> unit) option;
      (** piggyback hook, invoked at the start of every {!round}: work
          that should amortize into the anti-entropy cadence — e.g. the
          escrow planner's proactive rights migrations — runs here, so
          any batches it commits ride the same round instead of paying
          their own blocking exchange *)
}

let create ?(base_backoff_ms = 200.0) ?(max_backoff_ms = 5_000.0)
    (cluster : Cluster.t) : t =
  {
    cluster;
    base_backoff_ms;
    max_backoff_ms;
    next_retry = Hashtbl.create 256;
    rounds = 0;
    retransmitted = 0;
    delta_buf = Hashtbl.create 64;
    delta_buf_hits = 0;
    on_round = None;
  }

let digest_of (r : Replica.t) : digest =
  { d_vv = r.Replica.vv; d_have = Replica.pending_keys r }

(** Batches in [src]'s log that [d] (a peer's digest) is missing.
    The buffered-key membership test uses a hash set built once per
    digest (not an O(n·m) [List.mem] scan per candidate), and the
    per-origin results are concatenated once instead of appended inside
    the fold. *)
let missing_for ~(src : Replica.t) (d : digest) : Replica.batch list =
  let have = Hashtbl.create (max 16 (2 * List.length d.d_have)) in
  List.iter (fun k -> Hashtbl.replace have k ()) d.d_have;
  List.concat
    (Hashtbl.fold
       (fun origin _ acc ->
         let known = Ipa_crdt.Vclock.get d.d_vv origin in
         List.filter
           (fun (b : Replica.batch) ->
             not (Hashtbl.mem have (b.Replica.b_origin, b.Replica.b_first)))
           (Replica.log_after src ~origin ~known)
         :: acc)
       src.Replica.log [])

let pull ~(src : Replica.t) (dst : Replica.t) : unit =
  if not (Ipa_crdt.Vclock.leq src.Replica.vv dst.Replica.vv) then
    List.iter (Replica.receive dst) (missing_for ~src (digest_of dst))

(* ------------------------------------------------------------------ *)
(* Digest-tree descent                                                 *)
(* ------------------------------------------------------------------ *)

(** Result of a digest-tree comparison between two replicas: the keys
    whose rendered observable state differs, plus how many tree nodes
    the descent actually examined (1 root + one node per shard digest
    compared + one per key hash compared in a divergent shard) — the
    scale experiment's evidence that divergence localization costs
    O(divergent keys), not O(total state). *)
type descent = { divergent : string list; nodes_visited : int }

(** Merkle-style descent over the per-shard digest tree of two replicas
    (which must have the same shard and sub-bucket counts): compare the
    root digests first; if they agree the replicas' observable states
    agree and nothing else is touched.  Otherwise compare the per-shard
    rolling digests; inside each shard that disagrees, compare the
    per-sub-bucket digests (the tree's third level); and only for the
    buckets that disagree, the per-key line hashes — keys present on one
    side only, or hashing differently, are the divergent set (sorted).
    The third level is what keeps the descent sublinear when divergence
    reaches every shard (divergent keys ≈ shard count): each divergent
    shard then scans only its divergent buckets' cells, not the whole
    shard.  Both replicas' dirty keys are re-rendered on the way, so the
    comparison always reflects current state. *)
let divergent_keys ~(a : Replica.t) ~(b : Replica.t) : descent =
  let na = Replica.shard_count a and nb = Replica.shard_count b in
  if na <> nb then
    invalid_arg "Sync.divergent_keys: shard counts differ";
  let subs = Replica.sub_count a in
  if subs <> Replica.sub_count b then
    invalid_arg "Sync.divergent_keys: sub-bucket counts differ";
  let visited = ref 1 in
  if Replica.digest_equal a b then { divergent = []; nodes_visited = !visited }
  else begin
    let divergent = ref [] in
    let div_sub = Array.make subs false in
    for i = 0 to na - 1 do
      incr visited;
      let (ea, _, _) as da = Replica.shard_digest a i
      and (eb, _, _) as db = Replica.shard_digest b i in
      if da <> db then begin
        (* third level: per-sub-bucket digests (shard_digest refreshed
           both sides already) — engaged only when the shard holds
           enough entries to amortize the [subs] bucket comparisons;
           a small shard goes straight to its leaves, as before *)
        let use_subs = ea + eb > 2 * subs in
        let any = ref (not use_subs) in
        if use_subs then
          for sb = 0 to subs - 1 do
            incr visited;
            let d = Replica.sub_digest a i sb <> Replica.sub_digest b i sb in
            div_sub.(sb) <- d;
            if d then any := true
          done;
        if !any then begin
          (* leaf level: compare per-key line hashes, but only of cells
             routed to a divergent bucket *)
          let sa = a.Replica.shards.(i) and sb_ = b.Replica.shards.(i) in
          let contributing (c : Replica.cell) = c.Replica.c_h <> 0 in
          let in_div kid =
            (not use_subs) || div_sub.(Replica.sub_of_id subs kid)
          in
          Hashtbl.iter
            (fun kid (ca : Replica.cell) ->
              if contributing ca && in_div kid then begin
                incr visited;
                match Hashtbl.find_opt sb_.Replica.sh_data kid with
                | Some cb when cb.Replica.c_h = ca.Replica.c_h -> ()
                | _ -> divergent := Ipa_crdt.Intern.name kid :: !divergent
              end)
            sa.Replica.sh_data;
          Hashtbl.iter
            (fun kid (cb : Replica.cell) ->
              if contributing cb && in_div kid then
                match Hashtbl.find_opt sa.Replica.sh_data kid with
                | Some ca when contributing ca -> ()  (* already compared *)
                | _ ->
                    incr visited;
                    divergent := Ipa_crdt.Intern.name kid :: !divergent)
            sb_.Replica.sh_data
        end
      end
    done;
    {
      divergent = List.sort_uniq String.compare !divergent;
      nodes_visited = !visited;
    }
  end

(* ------------------------------------------------------------------ *)
(* State repair strategies                                             *)
(* ------------------------------------------------------------------ *)

(** How a repair ships the state a lagging peer is missing: the raw
    logged batches, or one compacted batch per origin
    ({!Replica.compact_after}). *)
type repair_mode = Batches | Deltas

type repair_stats = {
  r_bytes : int;  (** bytes shipped over the (modelled) wire *)
  r_units : int;  (** batches / keys shipped *)
  r_accepted : int;  (** units the destination accepted *)
}

(** Serialized size of a value — the simulator's wire model.  [Closures]
    because rem-wins and wildcard ops carry selector closures; the
    encoding is the in-process one, but relative sizes (full state vs
    batches vs compacted batches) are what the durability experiment
    measures. *)
let wire_bytes (v : 'a) : int =
  String.length (Marshal.to_string v [ Marshal.Closures ])

(* the compacted batch of [origin]'s commits [dst] lacks, served from
   the per-peer interval buffer when [dst]'s clock has not moved and the
   origin's log has not grown *)
let compacted (s : t) ~(src : Replica.t) ~(dst : Replica.t) (origin : string)
    : Replica.batch option =
  let have = dst.Replica.vv in
  let max_seq =
    match Hashtbl.find_opt src.Replica.log origin with
    | Some ol -> ol.Replica.max_seq
    | None -> 0
  in
  let bkey = (dst.Replica.id, origin) in
  match Hashtbl.find_opt s.delta_buf bkey with
  | Some ((vv, m), b) when m = max_seq && Ipa_crdt.Vclock.equal vv have ->
      s.delta_buf_hits <- s.delta_buf_hits + 1;
      Some b
  | _ ->
      let b = Replica.compact_after src ~origin ~have in
      Option.iter
        (fun b -> Hashtbl.replace s.delta_buf bkey ((have, max_seq), b))
        b;
      b

(** Repair [dst] from [src] directly (over the reliable control
    channel) and return the wire cost.  The {!repair_mode} only chooses
    the batches shipped; every one goes through {!Replica.receive}, so
    both modes deliver exactly once, in causal order, and log and
    WAL-write what they apply.  A compacted batch is built per origin
    just before it ships, against the clock the earlier ones left. *)
let repair (s : t) ~(mode : repair_mode) ~(src : Replica.t)
    ~(dst : Replica.t) : repair_stats =
  let bytes = ref 0 and units = ref 0 and accepted = ref 0 in
  let ship (b : Replica.batch) =
    incr units;
    bytes := !bytes + wire_bytes b;
    let before = dst.Replica.delivered in
    Replica.receive dst b;
    if dst.Replica.delivered > before then begin
      incr accepted;
      Hashtbl.remove s.delta_buf (dst.Replica.id, b.Replica.b_origin)
      (* acknowledged *)
    end
  in
  (match mode with
  | Batches -> List.iter ship (missing_for ~src (digest_of dst))
  | Deltas ->
      List.iter
        (fun origin ->
          if origin <> dst.Replica.id then
            Option.iter ship (compacted s ~src ~dst origin))
        (List.sort String.compare
           (Hashtbl.fold (fun o _ acc -> o :: acc) src.Replica.log [])));
  { r_bytes = !bytes; r_units = !units; r_accepted = !accepted }

(* is this (dst, batch) due for (re)transmission at [now]?  A batch seen
   missing for the first time gets a grace period of one base backoff —
   it is usually just in flight — and is only retransmitted if it is
   still missing afterwards; each retransmission doubles the backoff up
   to the cap *)
let due (s : t) ~(now : float) (dst : Replica.t) (b : Replica.batch) : bool =
  let key = (dst.Replica.id, b.Replica.b_origin, b.Replica.b_first) in
  match Hashtbl.find_opt s.next_retry key with
  | None ->
      Hashtbl.replace s.next_retry key
        (now +. s.base_backoff_ms, s.base_backoff_ms);
      false
  | Some (at, _) when now < at -> false
  | Some (_, backoff) ->
      Hashtbl.replace s.next_retry key
        (now +. backoff, Float.min (2.0 *. backoff) s.max_backoff_ms);
      true

(** One anti-entropy round at time [now]: every replica compares every
    peer's digest against its own log and hands the batches the peer is
    missing (and whose backoff has elapsed) to [send] — the caller's
    faulty data path.  Returns the number of batches retransmitted. *)
let round (s : t) ~(now : float)
    ~(send : src:Replica.t -> dst:Replica.t -> Replica.batch -> unit) : int =
  s.rounds <- s.rounds + 1;
  (match s.on_round with Some f -> f ~now | None -> ());
  let n = ref 0 in
  List.iter
    (fun (dst : Replica.t) ->
      let d = digest_of dst in
      List.iter
        (fun (src : Replica.t) ->
          List.iter
            (fun (b : Replica.batch) ->
              if due s ~now dst b then begin
                incr n;
                send ~src ~dst b
              end)
            (missing_for ~src d))
        (Cluster.others s.cluster dst.Replica.id))
    s.cluster.Cluster.replicas;
  s.retransmitted <- s.retransmitted + !n;
  !n
