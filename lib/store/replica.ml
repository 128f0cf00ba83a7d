(** A store replica: causally-consistent application of update batches.

    Each committed transaction produces a {!batch} of downstream CRDT
    effects tagged with the origin's clock.  A remote replica buffers a
    batch until its causal dependencies are satisfied and then applies
    all its updates atomically — providing the causal consistency +
    highly-available-transactions combination the paper assumes of the
    underlying store (SwiftCloud).

    Delivery is {e exactly-once}: a replica tracks the highest applied
    per-origin commit number, so retransmitted or network-duplicated
    batches are dropped instead of re-applied (re-applying would
    double-count counter effects and violate the numeric invariants IPA
    protects).  Every replica also keeps a log of all batches it knows
    (its own and applied remote ones) so {!Sync} can retransmit batches
    a faulty network lost.

    A batch covers an interval of its origin's commits: one commit, or a
    compacted log interval ({!compact_after}) that anti-entropy ships in
    place of the batches it covers.  Both are delivered, logged,
    WAL-written and replayed by the same code.

    {b Sharding.}  The keyspace is hash-partitioned over interned key
    ids into replica-local shards, each with its own object map, dirty
    set, observable-state hash cache and rolling digest.  Shard routing
    is a pure function of the key, so the same key lives in the same
    shard at every replica and per-shard digests are directly
    comparable — the leaves combine (XOR / wrapping sum) into a root
    digest that is identical whatever the shard count, which is what
    lets {!Sync} descend a digest tree and touch only divergent
    subtrees. *)

open Ipa_crdt

type batch = {
  b_origin : string;
  b_first : int;
      (** first covered commit number: [b_seq] for a committed
          transaction's batch, lower for a compacted interval *)
  b_seq : int;  (** per-origin commit number (the last one covered) *)
  b_deps : Vclock.t;  (** origin clock {e before} the transaction *)
  b_after : Vclock.t;  (** origin clock after (deps + this txn's events) *)
  b_updates : (string * Obj.op) list;
  b_kids : int array;
      (** interned ids of the update keys, in list order — interned once
          at the origin so every receiving replica (and every healing
          redelivery) skips the per-update string lookup *)
}

(** Per-origin batch log: commit numbers are contiguous from 1, so the
    batches covering a peer's gap are a suffix of the sequence.
    [min_seq] is the lowest retained commit number — causally-stable
    truncation drops a prefix, keeping the suffix contiguous.  An entry
    covers [b_first..b_seq] and is indexed under both ends, so a
    newest-first walk steps from an entry to the one ending at
    [b_first - 1], and truncation from the entry starting at [min_seq]
    to the one starting at [b_seq + 1]. *)
type origin_log = {
  mutable max_seq : int;
  mutable min_seq : int;
  entries : (int, batch) Hashtbl.t;
}

(** One key's slot in a shard: the CRDT value plus the cached hash of
    its observable state.  The two live in one mutable cell so the apply
    path updates the value with a single table lookup, and a digest
    refresh reads and writes the cached hash through the same lookup it
    needs for the value anyway.  [c_h = 0] means "not contributing to
    the digest" (observable state indistinguishable from empty — or the
    astronomically unlikely honest hash 0, which both sides of any
    comparison compute identically).

    Set keys (add-wins, remove-wins, compensation) also keep their
    members' hash sum and count, updated as ops and joined fragments
    change the membership of the elements they name; [c_n < 0] marks
    the pair stale, to be refolded from the members by the next
    refresh. *)
type cell = {
  c_kid : int;
  mutable c_obj : Obj.t;
  mutable c_h : int;
  mutable c_sum : int;  (** set keys: wrapping sum of member hashes *)
  mutable c_n : int;  (** set keys: member count; negative = stale *)
  mutable c_dirty : bool;  (** queued in the shard's dirty vector *)
}

let new_cell ?(n = 0) (kid : int) (o : Obj.t) : cell =
  { c_kid = kid; c_obj = o; c_h = 0; c_sum = 0; c_n = n; c_dirty = false }

(* growth filler for the dirty vectors; never part of a live prefix *)
let dummy_cell : cell = new_cell (-1) (Obj.O_pncounter Pncounter.empty)

(** One keyspace partition: objects, types, dirty vector and a rolling
    digest, all keyed by interned key id (dense ints hash and compare
    faster than the key strings on the apply path). *)
type shard = {
  sh_data : (int, cell) Hashtbl.t;
  sh_types : (int, Obj.otype) Hashtbl.t;
  mutable sh_dirty : cell array;
      (** cells updated since this shard's digest was refreshed — a
          push vector (first [sh_dirty_n] slots) holding each cell at
          most once: a cell's [c_dirty] flag is set when it is pushed
          and cleared by the refresh, so a hot key updated many times
          between two polls is re-hashed once.  Pushing the cell pointer
          is several times cheaper than a hash-set insert, and the
          refresh walks the cells with no table lookups at all *)
  mutable sh_dirty_n : int;  (** live prefix length of [sh_dirty] *)
  mutable sh_xor : int;  (** rolling digest: XOR of the cached hashes *)
  mutable sh_sum : int;
      (** rolling digest: wrapping sum of the cached hashes — a second
          independent combination, so a collision has to fool both *)
  mutable sh_entries : int;  (** entries contributing to the digest *)
  sh_sub_xor : int array;
      (** per-sub-bucket rolling digests: each cell also contributes to
          one of [subs] buckets inside its shard (a second, independent
          hash of the key id), giving the digest tree a third level so
          {!Sync} descent stays sublinear even when every shard is
          divergent *)
  sh_sub_sum : int array;
  sh_sub_entries : int array;
}

type t = {
  id : string;
  region : string;  (** data-center name, used by the simulator *)
  mutable vv : Vclock.t;
  mutable seq : int;
  mutable lamport : int;
  shards : shard array;  (** keyspace partitions; length fixed at create *)
  pending : (string, (int, batch) Hashtbl.t) Hashtbl.t;
      (** per-origin buffered batches keyed by first covered commit
          number; causal deps force per-origin in-order application, so
          the only batch of an origin that can ever be deliverable is
          the one starting at [applied(origin) + 1] — draining never
          re-scans the rest.
          The buffer's one index: it only ever holds batches starting
          above their origin's applied cursor *)
  mutable pending_n : int;  (** buffered batches across all origins *)
  mutable pending_hwm : int;  (** deepest pending buffer ever seen *)
  mutable drain_scans : int;
      (** head-candidate examinations performed by [drain] — the
          quadratic-buffer regression test watches this stay linear *)
  applied : (string, int) Hashtbl.t;
      (** highest applied commit number per origin; causal dependencies
          force per-origin in-order application, so this is contiguous
          and any batch at or below it is a duplicate *)
  log : (string, origin_log) Hashtbl.t;
      (** every batch this replica knows, for anti-entropy retransmission *)
  mutable peers : string list;  (** cluster membership (incl. self) *)
  peer_vvs : (string, Vclock.t) Hashtbl.t;
      (** latest known clock of each peer, learned from applied batches;
          the pointwise minimum is the causal-stability cut *)
  mutable delivered : int;  (** remote batches applied *)
  mutable committed : int;  (** local transactions committed *)
  mutable duplicates_dropped : int;
      (** batches received more than once and suppressed *)
  mutable on_apply : batch -> unit;
      (** observability hook, called after a remote batch is applied *)
  mutable on_commit : batch -> unit;
      (** durability hook, called after a local batch is committed
          (before the batch is broadcast) — {!Wal} appends and flushes
          here so an acknowledged commit survives a crash *)
  mutable log_size : int;  (** batches currently retained in the log *)
  mutable log_hwm : int;  (** retained-log high-water mark *)
  mutable log_truncated : int;
      (** batches dropped by causally-stable truncation *)
}

let default_shards = 8

(** Default sub-buckets per shard (the digest tree's third level). *)
let default_subs = 32

let make_shard ~(subs : int) () : shard =
  {
    sh_data = Hashtbl.create 64;
    sh_types = Hashtbl.create 64;
    sh_dirty = Array.make 64 dummy_cell;
    sh_dirty_n = 0;
    sh_xor = 0;
    sh_sum = 0;
    sh_entries = 0;
    sh_sub_xor = Array.make subs 0;
    sh_sub_sum = Array.make subs 0;
    sh_sub_entries = Array.make subs 0;
  }

let create ?(region = "local") ?(shards = default_shards)
    ?(subs = default_subs) (id : string) : t =
  let shards = max 1 shards in
  let subs = max 1 subs in
  {
    id;
    region;
    vv = Vclock.empty;
    seq = 0;
    lamport = 0;
    shards = Array.init shards (fun _ -> make_shard ~subs ());
    pending = Hashtbl.create 8;
    pending_n = 0;
    pending_hwm = 0;
    drain_scans = 0;
    applied = Hashtbl.create 8;
    log = Hashtbl.create 8;
    peers = [ id ];
    peer_vvs = Hashtbl.create 8;
    delivered = 0;
    committed = 0;
    duplicates_dropped = 0;
    on_apply = ignore;
    on_commit = ignore;
    log_size = 0;
    log_hwm = 0;
    log_truncated = 0;
  }

let shard_count (r : t) : int = Array.length r.shards

(** Sub-buckets per shard (≥ 1, fixed at creation). *)
let sub_count (r : t) : int = Array.length r.shards.(0).sh_sub_xor

(* route an interned key id to its shard: a multiplicative mix spreads
   the dense sequential ids the interner hands out, so consecutive keys
   do not all land in consecutive shards.  Pure function of (id, shard
   count) — every replica with the same shard count agrees *)
let shard_of_id (shards : int) (kid : int) : int =
  if shards = 1 then 0
  else
    let h = kid * 0x9E3779B1 in
    (h lxor (h lsr 16)) land max_int mod shards

let shard_of_key (r : t) (key : string) : int =
  shard_of_id (Array.length r.shards) (Intern.id key)

(* route a key id to a sub-bucket inside its shard.  Uses a different
   multiplier/shift than [shard_of_id] so the two routings are
   independent — keys of one shard spread over all its buckets.  Pure
   function of (id, bucket count): replicas with equal shard and bucket
   counts agree *)
let sub_of_id (subs : int) (kid : int) : int =
  if subs = 1 then 0
  else
    let h = kid * 0x85EBCA6B in
    (h lxor (h lsr 15)) land max_int mod subs

(** Read an object, creating it with type [ty] if absent (keys are
    created on first access, as in a key-value store with typed keys). *)
let get_kid (r : t) (kid : int) (ty : Obj.otype) : Obj.t =
  let sh = r.shards.(shard_of_id (Array.length r.shards) kid) in
  match Hashtbl.find_opt sh.sh_data kid with
  | Some c -> c.c_obj
  | None ->
      let o = Obj.init ty in
      Hashtbl.replace sh.sh_data kid (new_cell kid o);
      Hashtbl.replace sh.sh_types kid ty;
      o

let get (r : t) (key : string) (ty : Obj.otype) : Obj.t =
  get_kid r (Intern.id key) ty

(** Read an object without creating it. *)
let peek (r : t) (key : string) : Obj.t option =
  match Intern.find key with
  | None -> None
  | Some kid ->
      Option.map
        (fun c -> c.c_obj)
        (Hashtbl.find_opt
           r.shards.(shard_of_id (Array.length r.shards) kid).sh_data kid)

(** Iterate every (key, object) pair across all shards. *)
let iter_data (r : t) (f : string -> Obj.t -> unit) : unit =
  Array.iter
    (fun sh ->
      Hashtbl.iter (fun kid c -> f (Intern.name kid) c.c_obj) sh.sh_data)
    r.shards

(** Fold over every (key, object) pair across all shards. *)
let fold_data (r : t) (f : string -> Obj.t -> 'a -> 'a) (acc : 'a) : 'a =
  Array.fold_left
    (fun acc sh ->
      Hashtbl.fold
        (fun kid c acc -> f (Intern.name kid) c.c_obj acc)
        sh.sh_data acc)
    acc r.shards

(** Number of objects stored (across all shards). *)
let obj_count (r : t) : int =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sh_data) 0 r.shards

(* push [c] onto the shard's dirty vector unless it is already queued
   (amortized O(1) — see the [sh_dirty] doc) *)
let mark_dirty (sh : shard) (c : cell) : unit =
  if not c.c_dirty then begin
    c.c_dirty <- true;
    let n = sh.sh_dirty_n in
    if n = Array.length sh.sh_dirty then begin
      let nb = Array.make (2 * n) dummy_cell in
      Array.blit sh.sh_dirty 0 nb 0 n;
      sh.sh_dirty <- nb
    end;
    sh.sh_dirty.(n) <- c;
    sh.sh_dirty_n <- n + 1
  end

(* 63-bit finalizing mixer (splitmix-style): spreads the structured
   (key id, tag, value) inputs over the whole int range so the XOR/sum
   combinations below behave like combinations of random words *)
let mix (h : int) : int =
  let h = h lxor (h lsr 30) in
  let h = h * 0xbf58476d1ce4e5b in
  let h = h lxor (h lsr 27) in
  let h = h * 0x94d049bb133111e in
  h lxor (h lsr 31)

(* FNV-1a over a string *)
let fnv_string (s : string) : int =
  let h = ref 0x10be64c5701f3d3 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h

(* one set member's contribution to its key's [c_sum] *)
let elt_hash (e : string) : int = mix (fnv_string e)

let set_mem (o : Obj.t) (e : string) : bool =
  match o with
  | Obj.O_awset s -> Awset.mem e s
  | Obj.O_rwset s -> Rwset.mem e s
  | Obj.O_compset s -> Compset.mem e s
  | _ -> false

(* fold the membership changes of [elts] (each named once) between
   [before] and the cell's current value into its member sum and
   count; [None] — the change may reach any element — marks them stale *)
let track (c : cell) (before : Obj.t) (elts : string list option) : unit =
  if c.c_n >= 0 then
    match elts with
    | None -> c.c_n <- -1
    | Some elts ->
        List.iter
          (fun e ->
            match (set_mem before e, set_mem c.c_obj e) with
            | false, true ->
                c.c_sum <- c.c_sum + elt_hash e;
                c.c_n <- c.c_n + 1
            | true, false ->
                c.c_sum <- c.c_sum - elt_hash e;
                c.c_n <- c.c_n - 1
            | _ -> ())
          elts

let apply_cell (sh : shard) (c : cell) (op : Obj.op) : unit =
  let before = c.c_obj in
  c.c_obj <- Obj.apply before op;
  (match op with
  | Obj.Op_awset o -> track c before (Some (Awset.touched o))
  | Obj.Op_compset o -> track c before (Some (Compset.touched o))
  | Obj.Op_rwset o -> track c before (Rwset.touched o)
  | Obj.Op_join (Obj.D_awset f) -> track c before (Some (Awset.keys f))
  | Obj.Op_join (Obj.D_rwset f) -> track c before (Rwset.keys f)
  | _ -> ());
  mark_dirty sh c

(** Apply a single update effect, creating the object if the effect
    arrives before any local access.  Compensation objects carry their
    bounds in every op, so remote-first creation uses the {e real}
    bounds instead of a sentinel that would silently weaken the
    invariant until the first local access.  A set key's member sum and
    count absorb the op's membership changes here; the key is marked
    dirty in its shard, and its hash is recomputed once at the next
    digest refresh, however many updates it received since the last. *)
let apply_update_kid (r : t) (kid : int) (op : Obj.op) : unit =
  let sh = r.shards.(shard_of_id (Array.length r.shards) kid) in
  match Hashtbl.find_opt sh.sh_data kid with
  | Some c -> apply_cell sh c op
  | None ->
      (* effects can arrive before any local access: infer the object
         type from the op *)
      let ty =
        match op with
        | Obj.Op_awset _ -> Obj.T_awset
        | Obj.Op_rwset _ -> Obj.T_rwset
        | Obj.Op_pncounter _ -> Obj.T_pncounter
        | Obj.Op_bcounter _ -> Obj.T_bcounter
        | Obj.Op_lww _ -> Obj.T_lww
        | Obj.Op_mvreg _ -> Obj.T_mvreg
        | Obj.Op_compset o -> Obj.T_compset { max_size = Compset.op_bound o }
        | Obj.Op_compcounter o ->
            Obj.T_compcounter { min_value = Compcounter.op_bound o }
        | Obj.Op_join d -> Obj.delta_otype d
      in
      Hashtbl.replace sh.sh_types kid ty;
      let c = new_cell kid (Obj.init ty) in
      Hashtbl.replace sh.sh_data kid c;
      apply_cell sh c op

let apply_update (r : t) ((key, op) : string * Obj.op) : unit =
  apply_update_kid r (Intern.id key) op

(* apply a batch's updates through its pre-interned key ids *)
let apply_updates (r : t) (b : batch) : unit =
  let i = ref 0 in
  List.iter
    (fun ((_, op) : string * Obj.op) ->
      apply_update_kid r b.b_kids.(!i) op;
      incr i)
    b.b_updates

(** Fresh Lamport timestamp (for LWW registers). *)
let next_lamport (r : t) : int =
  r.lamport <- r.lamport + 1;
  r.lamport

(* ------------------------------------------------------------------ *)
(* Batch log                                                           *)
(* ------------------------------------------------------------------ *)

let log_add (r : t) (b : batch) : unit =
  let ol =
    match Hashtbl.find_opt r.log b.b_origin with
    | Some ol -> ol
    | None ->
        let ol =
          { max_seq = 0; min_seq = b.b_first; entries = Hashtbl.create 64 }
        in
        Hashtbl.replace r.log b.b_origin ol;
        ol
  in
  if b.b_first >= ol.min_seq && not (Hashtbl.mem ol.entries b.b_seq) then begin
    Hashtbl.replace ol.entries b.b_first b;
    if b.b_seq <> b.b_first then Hashtbl.replace ol.entries b.b_seq b;
    ol.max_seq <- max ol.max_seq b.b_seq;
    r.log_size <- r.log_size + 1;
    r.log_hwm <- max r.log_hwm r.log_size
  end

(** Batches from [origin] whose events go beyond [known] origin-events —
    what a peer reporting clock entry [known] for [origin] is missing.
    Newest-first walk over the contiguous log suffix, one entry (commit
    or compacted interval) per step, returned oldest-first.  The walk
    stops below a compacted interval that [known] falls inside: the
    peer already has its first commits, so it would drop the interval
    as stale. *)
let log_after (r : t) ~(origin : string) ~(known : int) : batch list =
  match Hashtbl.find_opt r.log origin with
  | None -> []
  | Some ol ->
      let rec walk seq acc =
        if seq < 1 then acc
        else
          match Hashtbl.find_opt ol.entries seq with
          | Some b
            when Vclock.get b.b_after origin > known
                 && (b.b_first = b.b_seq
                    || Vclock.get b.b_deps origin >= known) ->
              walk (b.b_first - 1) (b :: acc)
          | _ -> acc
      in
      walk ol.max_seq []

(* ------------------------------------------------------------------ *)
(* Local commit                                                        *)
(* ------------------------------------------------------------------ *)

(** Commit a transaction's updates: applies them locally and returns the
    batch to replicate. [events] is the number of clock ticks the
    transaction consumed (one per prepared effect). *)
let commit (r : t) ?kids ~(events : int) (updates : (string * Obj.op) list) :
    batch =
  let deps = r.vv in
  let after = Vclock.set deps r.id (Vclock.get deps r.id + events) in
  r.seq <- r.seq + 1;
  r.committed <- r.committed + 1;
  let kids =
    match kids with
    | Some a -> a  (* caller already interned (e.g. {!Txn.update}) *)
    | None ->
        let a = Array.make (List.length updates) 0 in
        List.iteri
          (fun i ((key, _) : string * Obj.op) -> a.(i) <- Intern.id key)
          updates;
        a
  in
  let b =
    {
      b_origin = r.id;
      b_first = r.seq;
      b_seq = r.seq;
      b_deps = deps;
      b_after = after;
      b_updates = updates;
      b_kids = kids;
    }
  in
  apply_updates r b;
  r.vv <- after;
  log_add r b;
  r.on_commit b;
  b

(* ------------------------------------------------------------------ *)
(* Remote delivery                                                     *)
(* ------------------------------------------------------------------ *)

let deliverable (r : t) (b : batch) : bool = Vclock.leq b.b_deps r.vv

(* highest applied commit number of [origin] (0 before any) *)
let cursor (r : t) (origin : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt r.applied origin)

(** Has the batch already been applied (or buffered)?  Causal deps force
    per-origin in-order application, so a batch whose first commit is at
    or below the highest applied one is a duplicate — or, for a
    compacted interval, stale: applying its rest would re-apply the
    covered prefix.  A compacted interval is never buffered, so a
    buffered batch of its first commit does not make it seen. *)
let seen (r : t) (b : batch) : bool =
  b.b_first <= cursor r b.b_origin
  || b.b_first = b.b_seq && r.pending_n > 0
     &&
     match Hashtbl.find_opt r.pending b.b_origin with
     | Some tbl -> Hashtbl.mem tbl b.b_first
     | None -> false

(* buffer a batch above its origin's cursor until it becomes
   deliverable *)
let buffer (r : t) (b : batch) : unit =
  let tbl =
    match Hashtbl.find_opt r.pending b.b_origin with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace r.pending b.b_origin tbl;
        tbl
  in
  Hashtbl.replace tbl b.b_first b;
  r.pending_n <- r.pending_n + 1;
  r.pending_hwm <- max r.pending_hwm r.pending_n

(* The one move of the per-origin delivery cursor, shared by batch
   delivery and recovery replay: [origin]'s commits up to [upto] are
   applied and its clock reached [after].  The replica's clock and
   Lamport time absorb [after], which also proves the origin knew it
   (stability tracking), and buffered batches of the origin starting at
   or below the new cursor are dropped — they are applied now, and the
   buffer only ever holds batches starting above the cursor (the drain
   never looks below it, and retransmissions of a buffered batch are
   dropped as duplicates, so a stranded one would wedge quiescence).
   The drop costs at most the smaller of the jump and the origin's
   buffer *)
let advance (r : t) ~(origin : string) ~(upto : int) ~(after : Vclock.t) :
    unit =
  let prev = cursor r origin in
  r.vv <- Vclock.merge r.vv after;
  r.lamport <- max r.lamport (Vclock.total after);
  let known =
    Option.value ~default:Vclock.empty (Hashtbl.find_opt r.peer_vvs origin)
  in
  Hashtbl.replace r.peer_vvs origin (Vclock.merge known after);
  Hashtbl.replace r.applied origin upto;
  if r.pending_n > 0 then
    match Hashtbl.find_opt r.pending origin with
    | None -> ()
    | Some tbl ->
        let drop seq =
          if Hashtbl.mem tbl seq then begin
            Hashtbl.remove tbl seq;
            r.pending_n <- r.pending_n - 1
          end
        in
        if upto - prev <= Hashtbl.length tbl then
          for seq = prev + 1 to upto do
            drop seq
          done
        else
          List.iter drop
            (Hashtbl.fold
               (fun seq _ acc -> if seq <= upto then seq :: acc else acc)
               tbl [])

let apply_batch (r : t) (b : batch) : unit =
  apply_updates r b;
  advance r ~origin:b.b_origin ~upto:b.b_seq ~after:b.b_after;
  log_add r b;
  r.delivered <- r.delivered + 1;
  r.on_apply b

(* apply every deliverable pending batch.  Per origin, causal deps force
   in-order application, so the only candidate is the batch starting at
   [applied(origin) + 1] — each inner step is a single table lookup, and
   a long out-of-order chain (e.g. a reversed burst) drains in one pass
   without ever re-scanning the still-blocked tail.  The outer loop
   re-visits origins only while some delivery made progress (a delivery
   at one origin can satisfy a cross-origin dependency at another), so
   draining is O(delivered + origins · passes) instead of the quadratic
   whole-buffer rotation this replaces.  Applying a batch moves the
   cursor past it, which drops it from the buffer *)
let drain (r : t) : unit =
  let progress = ref true in
  while !progress do
    progress := false;
    Hashtbl.iter
      (fun origin tbl ->
        let continue = ref true in
        while !continue do
          continue := false;
          r.drain_scans <- r.drain_scans + 1;
          match Hashtbl.find_opt tbl (1 + cursor r origin) with
          | Some b when deliverable r b ->
              apply_batch r b;
              progress := true;
              continue := true
          | _ -> ()
        done)
      r.pending
  done

(** Receive a batch from the network; applies it (and any unblocked
    pending batches) as soon as causal dependencies are met.  Own
    batches and already-seen batches (duplicates, retransmissions of
    applied or buffered batches, stale intervals) are dropped — delivery
    is idempotent.  A compacted interval that cannot apply at once is
    dropped too, never buffered: waiting on its last commit's
    dependencies, it would shadow its first commit's own batch, which
    may be deliverable much earlier (two such intervals of different
    origins can wait on each other for good). *)
let receive (r : t) (b : batch) : unit =
  if b.b_origin = r.id then () (* own batches are applied at commit *)
  else if seen r b then r.duplicates_dropped <- r.duplicates_dropped + 1
  else if
    (* head fast path: the batch is its origin's next in sequence and
       causally ready — the overwhelmingly common healthy-network case —
       so apply it directly instead of round-tripping it through the
       pending buffer *)
    b.b_first = 1 + cursor r b.b_origin && deliverable r b
  then begin
    apply_batch r b;
    if r.pending_n > 0 then drain r
  end
  else if b.b_first = b.b_seq then begin
    buffer r b;
    drain r
  end

(** Number of batches buffered waiting for causal dependencies. *)
let pending_count (r : t) : int = r.pending_n

(** (origin, first covered commit) keys of the buffered batches. *)
let pending_keys (r : t) : (string * int) list =
  Hashtbl.fold
    (fun origin tbl acc ->
      Hashtbl.fold (fun seq _ acc -> (origin, seq) :: acc) tbl acc)
    r.pending []

(* ------------------------------------------------------------------ *)
(* State digest                                                        *)
(* ------------------------------------------------------------------ *)

(* canonical rendering of an object's observable state: replicas that
   converged must render identically regardless of internal metadata or
   the order effects arrived in *)
let obs_string (o : Obj.t) : string option =
  (* every list below is already sorted *)
  let set tag l =
    match l with
    | [] -> None
    | l -> Some (tag ^ "{" ^ String.concat ";" l ^ "}")
  in
  match o with
  | Obj.O_awset s -> set "aw" (Awset.elements s)
  | Obj.O_rwset s -> set "rw" (Rwset.elements s)
  | Obj.O_compset s -> set "cs" (Compset.raw_elements s)
  | Obj.O_mvreg m -> set "mv" (Mvreg.values m)
  | Obj.O_pncounter c ->
      let v = Pncounter.value c in
      if v = 0 then None else Some (Fmt.str "pn:%d" v)
  | Obj.O_bcounter c ->
      let v = Bcounter.value c in
      if v = 0 then None else Some (Fmt.str "bc:%d" v)
  | Obj.O_lww l -> (
      match Lww.value l with None -> None | Some v -> Some ("lww:" ^ v))
  | Obj.O_compcounter c ->
      let v = Compcounter.raw_value c in
      if v = 0 then None else Some (Fmt.str "cc:%d" v)

(** A digest of the replica's {e observable} state: two replicas that
    applied the same set of batches digest identically, whatever the
    arrival order; keys whose state is indistinguishable from the empty
    object are skipped, so a replica that merely {e read} a key digests
    the same as one that never touched it.  Always a full rendering of
    every object (so it is bit-identical whatever the shard count) —
    convergence {e polling} goes through {!digest_equal}, which is what
    the rolling hashes accelerate; the exact digest is only demanded at
    checkpoints (final comparison, failure reports). *)
let state_digest (r : t) : string =
  let entries =
    fold_data r
      (fun key obj acc ->
        match obs_string obj with
        | Some s -> (key ^ "=" ^ s) :: acc
        | None -> acc)
      []
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.sort compare entries)))

(* the key part of a key's hash: its id and a per-type tag, so equal
   values of different types stay distinct, as [obs_string]'s prefixes
   do *)
let key_hash (kid : int) (tag : int) : int = mix ((kid * 8) + tag)

(* a member collection's hash from its members' hash sum and count —
   order-independent, 0 (not contributing) when empty *)
let members_hash (kid : int) (tag : int) (sum : int) (n : int) : int =
  if n = 0 then 0 else mix (mix (sum + n) lxor key_hash kid tag)

let add_member (e : string) ((sum, n) : int * int) : int * int =
  (sum + elt_hash e, n + 1)

(* a set object's member hash sum and count, by one unsorted fold *)
let fold_set (o : Obj.t) : int * int =
  match o with
  | Obj.O_awset s -> Awset.fold_members add_member s (0, 0)
  | Obj.O_rwset s -> Rwset.fold_members add_member s (0, 0)
  | Obj.O_compset s -> Compset.fold_members add_member s (0, 0)
  | _ -> (0, 0)

(* a set cell's hash from its kept sum and count, refolded first when
   stale *)
let set_hash (c : cell) (tag : int) : int =
  if c.c_n < 0 then begin
    let sum, n = fold_set c.c_obj in
    c.c_sum <- sum;
    c.c_n <- n
  end;
  members_hash c.c_kid tag c.c_sum c.c_n

(* hash of one key's observable state, 0 when indistinguishable from
   the empty object (matching [obs_string]'s [None] cases exactly).  A
   pure function of (key id, observable value): counters hash their
   value, sets and multi-value registers their members.  No string is
   rendered *)
let obs_hash (c : cell) : int =
  let kid = c.c_kid in
  let num tag v = if v = 0 then 0 else mix (key_hash kid tag lxor v) in
  match c.c_obj with
  | Obj.O_pncounter x -> num 1 (Pncounter.quick_value x)
  | Obj.O_bcounter x -> num 2 (Bcounter.quick_value x)
  | Obj.O_compcounter x -> num 3 (Compcounter.quick_raw_value x)
  | Obj.O_awset _ -> set_hash c 4
  | Obj.O_rwset _ -> set_hash c 5
  | Obj.O_compset _ -> set_hash c 6
  | Obj.O_lww l -> (
      match Lww.value l with
      | None -> 0
      | Some v -> mix (key_hash kid 0 lxor elt_hash v))
  | Obj.O_mvreg m ->
      let sum, n = List.fold_right add_member (Mvreg.values m) (0, 0) in
      members_hash kid 7 sum n

(* recompute the observable-state hash of every dirty key of one shard,
   updating the per-key cache and the rolling digest — O(changed keys
   in the shard) *)
let refresh_shard_s (sh : shard) : unit =
  if sh.sh_dirty_n > 0 then begin
    let subs = Array.length sh.sh_sub_xor in
    for i = 0 to sh.sh_dirty_n - 1 do
      let c = sh.sh_dirty.(i) in
      let sb = sub_of_id subs c.c_kid in
      if c.c_h <> 0 then begin
        (* XOR is its own inverse and the sum wraps: the same hash
           subtracts a previous contribution back out *)
        sh.sh_xor <- sh.sh_xor lxor c.c_h;
        sh.sh_sum <- sh.sh_sum - c.c_h;
        sh.sh_entries <- sh.sh_entries - 1;
        sh.sh_sub_xor.(sb) <- sh.sh_sub_xor.(sb) lxor c.c_h;
        sh.sh_sub_sum.(sb) <- sh.sh_sub_sum.(sb) - c.c_h;
        sh.sh_sub_entries.(sb) <- sh.sh_sub_entries.(sb) - 1
      end;
      c.c_dirty <- false;
      let h = obs_hash c in
      (* an honest hash of exactly 0 (probability 2⁻⁶³) is treated as
         empty — deterministically, on every replica — because 0 is the
         cell's "not contributing" marker *)
      if h <> 0 then begin
        sh.sh_xor <- sh.sh_xor lxor h;
        sh.sh_sum <- sh.sh_sum + h;
        sh.sh_entries <- sh.sh_entries + 1;
        sh.sh_sub_xor.(sb) <- sh.sh_sub_xor.(sb) lxor h;
        sh.sh_sub_sum.(sb) <- sh.sh_sub_sum.(sb) + h;
        sh.sh_sub_entries.(sb) <- sh.sh_sub_entries.(sb) + 1
      end;
      c.c_h <- h
    done;
    sh.sh_dirty_n <- 0
  end

(** Refresh one shard's digest caches (re-hashing its dirty keys). *)
let refresh_shard (r : t) (i : int) : unit = refresh_shard_s r.shards.(i)

let refresh_digest (r : t) : unit = Array.iter refresh_shard_s r.shards

(* XOR / wrapping sum of all shard digests — the digest tree's root.
   Equal across shard counts because both combinations are associative
   and commutative: regrouping the per-key contributions into different
   shards cannot change them *)
let root_xor (r : t) : int =
  Array.fold_left (fun acc sh -> acc lxor sh.sh_xor) 0 r.shards

let root_sum (r : t) : int =
  Array.fold_left (fun acc sh -> acc + sh.sh_sum) 0 r.shards

let digest_entries (r : t) : int =
  Array.fold_left (fun acc sh -> acc + sh.sh_entries) 0 r.shards

(** Combinable rolling digest of the observable state: equal multisets
    of per-key observable states produce equal values, so converged
    replicas compare equal exactly as with {!state_digest} — but each
    call costs O(keys changed since the previous call), not O(total
    state).  Only meaningful for equality comparison between replicas;
    independent of the shard count. *)
let quick_digest (r : t) : string =
  refresh_digest r;
  Fmt.str "%d:%x:%x" (digest_entries r) (root_xor r) (root_sum r)

(** [quick_digest a = quick_digest b], without building the strings —
    the allocation-free comparison {!Cluster.quiescent} polls with. *)
let digest_equal (a : t) (b : t) : bool =
  refresh_digest a;
  refresh_digest b;
  digest_entries a = digest_entries b
  && root_xor a = root_xor b
  && root_sum a = root_sum b

(** One shard's rolling digest as an (entries, xor, sum) triple — the
    digest tree's inner nodes, compared during {!Sync} tree descent. *)
let shard_digest (r : t) (i : int) : int * int * int =
  refresh_shard_s r.shards.(i);
  let sh = r.shards.(i) in
  (sh.sh_entries, sh.sh_xor, sh.sh_sum)

(** One sub-bucket's rolling digest (the tree's third level).  The
    caller must have refreshed the shard (e.g. via {!shard_digest}). *)
let sub_digest (r : t) (i : int) (sb : int) : int * int * int =
  let sh = r.shards.(i) in
  (sh.sh_sub_entries.(sb), sh.sh_sub_xor.(sb), sh.sh_sub_sum.(sb))

(* ------------------------------------------------------------------ *)
(* Causal stability and garbage collection                             *)
(* ------------------------------------------------------------------ *)

(** The causal-stability cut: every event at or below this clock is
    known to be included in {e every} replica's state.  Computed as the
    pointwise minimum of the local clock and the latest clock learned
    from each peer (conservative: unknown peers pin the cut at zero). *)
let stable_vv (r : t) : Vclock.t =
  let rec go acc = function
    | [] -> acc
    | peer :: rest ->
        if peer = r.id then go acc rest
        else (
          match Hashtbl.find_opt r.peer_vvs peer with
          (* an unknown peer pins the cut at zero — stop early *)
          | None -> Vclock.empty
          | Some pv -> go (Vclock.min_pointwise acc pv) rest)
  in
  go r.vv r.peers

(** Drop batch-log entries whose events are at or below the stability
    cut: every peer's digest already covers them, so {!Sync} can never
    need to retransmit them.  Truncation removes a prefix of each
    per-origin log, keeping the retained suffix contiguous.  Returns the
    number of batches dropped. *)
let truncate_stable (r : t) ~(stable : Vclock.t) : int =
  let n = ref 0 in
  Hashtbl.iter
    (fun origin ol ->
      let known = Vclock.get stable origin in
      let continue = ref true in
      while !continue && ol.min_seq <= ol.max_seq do
        match Hashtbl.find_opt ol.entries ol.min_seq with
        | Some b when Vclock.get b.b_after origin <= known ->
            Hashtbl.remove ol.entries b.b_first;
            Hashtbl.remove ol.entries b.b_seq;
            ol.min_seq <- b.b_seq + 1;
            incr n
        | _ -> continue := false
      done)
    r.log;
  r.log_size <- r.log_size - !n;
  r.log_truncated <- r.log_truncated + !n;
  !n

(** Reclaim state that causal stability has made dead: rem-wins barriers
    (and the adds they permanently mask), payloads of stably-removed
    add-wins elements (§4.2.1), and batch-log entries every peer is
    known to have applied (counted in
    [log_truncated]; the retained-log high-water mark is [log_hwm]).
    Returns the number of CRDT metadata records reclaimed.  GC changes
    only internal metadata, never observable state, so keys are not
    marked dirty. *)
let gc (r : t) : int =
  let stable = stable_vv r in
  let reclaimed = ref 0 in
  Array.iter
    (fun sh ->
      Hashtbl.iter
        (fun _ c ->
          match c.c_obj with
          | Obj.O_rwset s ->
              let before = Ipa_crdt.Rwset.metadata_size s in
              let s' = Ipa_crdt.Rwset.gc ~stable s in
              reclaimed :=
                !reclaimed + before - Ipa_crdt.Rwset.metadata_size s';
              c.c_obj <- Obj.O_rwset s'
          | Obj.O_awset s ->
              let before = Ipa_crdt.Awset.metadata_size s in
              let s' = Ipa_crdt.Awset.gc ~stable s in
              reclaimed :=
                !reclaimed + before - Ipa_crdt.Awset.metadata_size s';
              c.c_obj <- Obj.O_awset s'
          | _ -> ())
        sh.sh_data)
    r.shards;
  ignore (truncate_stable r ~stable);
  !reclaimed

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* CRDT values, clocks and batches are immutable (operations return new
   values), so a snapshot shares them; the per-key cells and per-origin
   logs are mutable, so the snapshot materializes plain (kid → value)
   tables the live replica cannot reach *)
type snapshot = {
  s_vv : Vclock.t;
  s_seq : int;
  s_lamport : int;
  s_shards : ((int, Obj.t) Hashtbl.t * (int, Obj.otype) Hashtbl.t) array;
  s_pending : batch list;
  s_pending_hwm : int;
  s_applied : (string, int) Hashtbl.t;
  s_log : (string * (int * int * (int, batch) Hashtbl.t)) list;
  s_peers : string list;
  s_peer_vvs : (string, Vclock.t) Hashtbl.t;
  s_delivered : int;
  s_committed : int;
  s_duplicates_dropped : int;
  s_log_size : int;
  s_log_hwm : int;
  s_log_truncated : int;
}

(** Capture the replica's full replication state (clocks, data, pending
    buffer, batch logs, delivery counters).  The snapshot is immutable:
    later operations on the replica do not affect it. *)
let snapshot (r : t) : snapshot =
  {
    s_vv = r.vv;
    s_seq = r.seq;
    s_lamport = r.lamport;
    s_shards =
      Array.map
        (fun sh ->
          let data = Hashtbl.create (Hashtbl.length sh.sh_data) in
          Hashtbl.iter (fun kid c -> Hashtbl.replace data kid c.c_obj)
            sh.sh_data;
          (data, Hashtbl.copy sh.sh_types))
        r.shards;
    s_pending =
      Hashtbl.fold
        (fun _ tbl acc -> Hashtbl.fold (fun _ b acc -> b :: acc) tbl acc)
        r.pending [];
    s_pending_hwm = r.pending_hwm;
    s_applied = Hashtbl.copy r.applied;
    s_log =
      Hashtbl.fold
        (fun origin ol acc ->
          (origin, (ol.max_seq, ol.min_seq, Hashtbl.copy ol.entries)) :: acc)
        r.log [];
    s_peers = r.peers;
    s_peer_vvs = Hashtbl.copy r.peer_vvs;
    s_delivered = r.delivered;
    s_committed = r.committed;
    s_duplicates_dropped = r.duplicates_dropped;
    s_log_size = r.log_size;
    s_log_hwm = r.log_hwm;
    s_log_truncated = r.log_truncated;
  }

let refill (dst : ('a, 'b) Hashtbl.t) (src : ('a, 'b) Hashtbl.t) : unit =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

(** Reset the replica to a previously captured snapshot.  The digest
    caches are rebuilt lazily: every restored key is marked dirty (set
    keys stale), so the next digest call re-hashes exactly the restored
    state from scratch (and restored digests stay bit-identical to a
    from-scratch run — the property the shrinker's re-execution relies
    on). *)
let restore (r : t) (s : snapshot) : unit =
  if Array.length s.s_shards <> Array.length r.shards then
    invalid_arg "Replica.restore: snapshot has a different shard count";
  r.vv <- s.s_vv;
  r.seq <- s.s_seq;
  r.lamport <- s.s_lamport;
  Array.iteri
    (fun i sh ->
      let data, types = s.s_shards.(i) in
      (* rebuild fresh cells: the snapshot's values must not alias the
         live replica's mutable cells *)
      Hashtbl.reset sh.sh_data;
      Hashtbl.iter
        (fun kid o -> Hashtbl.replace sh.sh_data kid (new_cell ~n:(-1) kid o))
        data;
      refill sh.sh_types types;
      (* invalidate the incremental digest state wholesale: previously
         cached contributions are forgotten and every restored key is
         re-hashed on the next digest call *)
      sh.sh_dirty_n <- 0;
      sh.sh_xor <- 0;
      sh.sh_sum <- 0;
      sh.sh_entries <- 0;
      Array.fill sh.sh_sub_xor 0 (Array.length sh.sh_sub_xor) 0;
      Array.fill sh.sh_sub_sum 0 (Array.length sh.sh_sub_sum) 0;
      Array.fill sh.sh_sub_entries 0 (Array.length sh.sh_sub_entries) 0;
      Hashtbl.iter (fun _ c -> mark_dirty sh c) sh.sh_data)
    r.shards;
  Hashtbl.reset r.pending;
  r.pending_n <- 0;
  List.iter (buffer r) s.s_pending;
  r.pending_hwm <- s.s_pending_hwm;
  refill r.applied s.s_applied;
  Hashtbl.reset r.log;
  List.iter
    (fun (origin, (max_seq, min_seq, entries)) ->
      Hashtbl.replace r.log origin
        { max_seq; min_seq; entries = Hashtbl.copy entries })
    s.s_log;
  r.peers <- s.s_peers;
  refill r.peer_vvs s.s_peer_vvs;
  r.delivered <- s.s_delivered;
  r.committed <- s.s_committed;
  r.duplicates_dropped <- s.s_duplicates_dropped;
  r.log_size <- s.s_log_size;
  r.log_hwm <- s.s_log_hwm;
  r.log_truncated <- s.s_log_truncated

(* ------------------------------------------------------------------ *)
(* Crash recovery (see Wal)                                            *)
(* ------------------------------------------------------------------ *)

(** Wipe the replica back to freshly-created state, keeping its
    identity, peer list, shard/bucket geometry and hooks: a restore of
    the empty state (which also keeps the pending high-water mark).
    Crash recovery resets in place — engine closures holding the
    replica keep targeting it — then replays snapshot + WAL. *)
let reset (r : t) : unit =
  restore r
    {
      s_vv = Vclock.empty;
      s_seq = 0;
      s_lamport = 0;
      s_shards =
        Array.map (fun _ -> (Hashtbl.create 1, Hashtbl.create 1)) r.shards;
      s_pending = [];
      s_pending_hwm = r.pending_hwm;
      s_applied = Hashtbl.create 1;
      s_log = [];
      s_peers = r.peers;
      s_peer_vvs = Hashtbl.create 1;
      s_delivered = 0;
      s_committed = 0;
      s_duplicates_dropped = 0;
      s_log_size = 0;
      s_log_hwm = 0;
      s_log_truncated = 0;
    }

(** Recovery replay of a logged batch (own or remote): re-applies its
    updates without delivery gating — WAL append order is application
    order, so causal dependencies already hold — and skips batches
    starting at or below the per-origin cursor, which makes replay
    idempotent (tolerating duplicated WAL records and snapshot/WAL
    overlap).  A compacted interval is one record, replayed whole.
    Returns whether the batch was applied.  Observability hooks are not
    fired for the replayed batch itself.

    A checkpoint snapshot legitimately captures the pending buffer, so
    a remote batch can be both restored as pending and replayed as
    applied: the cursor move ([advance]) drops it from the buffer, as it
    does for every delivery.  Replay drains afterwards, because replayed
    progress can make a restored pending batch deliverable (the drain's
    applies are genuine deliveries and do fire hooks — they need fresh
    WAL records). *)
let replay_batch (r : t) (b : batch) : bool =
  let own = b.b_origin = r.id in
  let cur = if own then r.seq else cursor r b.b_origin in
  if b.b_first <= cur then false
  else begin
    apply_updates r b;
    if own then begin
      r.vv <- Vclock.merge r.vv b.b_after;
      r.lamport <- max r.lamport (Vclock.total b.b_after);
      r.seq <- b.b_seq;
      r.committed <- r.committed + 1
    end
    else begin
      advance r ~origin:b.b_origin ~upto:b.b_seq ~after:b.b_after;
      r.delivered <- r.delivered + 1
    end;
    log_add r b;
    if r.pending_n > 0 then drain r;
    true
  end

(* ------------------------------------------------------------------ *)
(* Log compaction (delta-state anti-entropy; see Sync)                 *)
(* ------------------------------------------------------------------ *)

(** Compact the batches [origin] committed beyond [known] origin-events
    into one batch covering their whole interval ([None] if the log
    holds none): set effects joined into one fragment per key
    ([Obj.Op_join]), counter ops summed to one op per (key, replica
    slot), the other types' ops raw in application order.  Its
    dependencies are the newest covered batch's clock with the origin's
    entry of the oldest's, so it is deliverable exactly where its first
    commit would be.  It ships in place of the covered batches and is
    delivered, logged, WAL-written and replayed as any batch is. *)
let compact_after (r : t) ~(origin : string) ~(known : int) : batch option =
  match log_after r ~origin ~known with
  | [] -> None
  | first :: _ as batches ->
      let deltas : (int, Obj.delta) Hashtbl.t = Hashtbl.create 16 in
      let dorder = ref [] in
      let add_delta kid d =
        match Hashtbl.find_opt deltas kid with
        | Some prev -> Hashtbl.replace deltas kid (Obj.join_deltas prev d)
        | None ->
            Hashtbl.replace deltas kid d;
            dorder := kid :: !dorder
      in
      let csums : (int * string, int ref) Hashtbl.t = Hashtbl.create 16 in
      let corder = ref [] in
      let raw = ref [] in
      let last = ref first in
      List.iter
        (fun (b : batch) ->
          last := b;
          let i = ref 0 in
          List.iter
            (fun ((_, op) : string * Obj.op) ->
              let kid = b.b_kids.(!i) in
              incr i;
              match op with
              | Obj.Op_awset x ->
                  add_delta kid (Obj.D_awset (Awset.delta_of_op x))
              | Obj.Op_rwset x ->
                  add_delta kid (Obj.D_rwset (Rwset.delta_of_op x))
              | Obj.Op_join d -> add_delta kid d
              | Obj.Op_pncounter x -> (
                  let rep = Pncounter.op_rep x and d = Pncounter.op_delta x in
                  match Hashtbl.find_opt csums (kid, rep) with
                  | Some s -> s := !s + d
                  | None ->
                      Hashtbl.replace csums (kid, rep) (ref d);
                      corder := (kid, rep) :: !corder)
              | op -> raw := (kid, op) :: !raw)
            b.b_updates)
        batches;
      let joined =
        List.rev_map
          (fun kid -> (kid, Obj.Op_join (Hashtbl.find deltas kid)))
          !dorder
      in
      let summed =
        List.rev_map
          (fun (kid, rep) ->
            let d = !(Hashtbl.find csums (kid, rep)) in
            (kid, Obj.Op_pncounter (Pncounter.prepare Pncounter.empty ~rep d)))
          !corder
      in
      let updates = joined @ List.rev_append !raw summed in
      let last = !last in
      Some
        {
          b_origin = origin;
          b_first = first.b_first;
          b_seq = last.b_seq;
          b_deps =
            Vclock.set last.b_after origin (Vclock.get first.b_deps origin);
          b_after = last.b_after;
          b_updates = List.map (fun (kid, op) -> (Intern.name kid, op)) updates;
          b_kids = Array.of_list (List.map fst updates);
        }
