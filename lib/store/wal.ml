(** Per-replica write-ahead log: length-prefixed, CRC-checksummed
    records with group-commit batching and snapshot + replay recovery.

    Held to the Phase-3 durability invariants of log-structured stores:

    - {b Acknowledged-write durability} — a local commit's record is
      framed, checksummed and flushed {e before} {!Replica.commit}
      returns (via the {!Replica.t.on_commit} hook), so an acknowledged
      transaction survives a crash.  Remote applies may be buffered
      ([group_commit] records per flush); losing an unflushed apply
      suffix is safe because the per-origin applied cursor regresses
      {e consistently} with the state, and anti-entropy re-delivers.
    - {b Crash determinism} — all records share one append buffer and a
      commit flushes the whole buffer, so the durable prefix is always a
      prefix of the application order and a committed batch's causal
      dependencies are durable with it (a commit's [b_deps] can only
      reference applies framed before it).
    - {b Replay equivalence} — recovery loads the snapshot, replays the
      WAL suffix in order through {!Replica.replay_batch} (idempotent by
      per-origin cursor, so duplicated records and snapshot/WAL overlap
      are harmless) and stops at the first torn or corrupt frame; the
      recovered replica digests bit-identically to the pre-crash state
      covered by the durable prefix.

    Record framing: [[len:u32le][crc32:u32le][payload]], payload a
    [Marshal] encoding of the {!record} — plain data, no closures (a
    closure reaching a batch or snapshot fails at the marshal) — and an
    in-process crash-recovery format, like the rest of the simulation
    substrate: batches and snapshots carry interned key and replica ids
    ({!Replica.batch}'s [b_kids], {!Ipa_crdt.Vclock}), which only the
    process that interned them can read back.  The snapshot file is
    written to a temp name and renamed into place, so a crash
    mid-checkpoint leaves the previous snapshot intact; the WAL is
    truncated {e after} the rename, and a crash between the two leaves
    snapshot + full WAL, which replay deduplicates.

    Every remote delivery is one [R_apply] record, whether its batch
    holds one commit or a compacted log interval shipped by delta
    repair ({!Replica.compact_after}); replay re-applies the interval
    whole, so the cursor never moves over effects the log lacks and a
    replica healed by delta repair recovers bit-identically too. *)

type record = R_commit of Replica.batch | R_apply of Replica.batch

type t = {
  dir : string;
  rid : string;  (** owning replica id — names the files *)
  group_commit : int;  (** apply records buffered per flush (≥ 1) *)
  buf : Buffer.t;  (** frames not yet written — lost on crash *)
  mutable oc : out_channel option;
  mutable buffered : int;  (** records currently in [buf] *)
  mutable appended : int;  (** records framed since creation *)
  mutable flushes : int;  (** physical flushes performed *)
}

let wal_path ~dir ~id = Filename.concat dir (id ^ ".wal")
let snap_path ~dir ~id = Filename.concat dir (id ^ ".snap")

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected) — hand-rolled: the store library
   deliberately depends on nothing beyond the stdlib                   *)
(* ------------------------------------------------------------------ *)

(* built eagerly at module initialisation: a [lazy] forced from two
   domains at once raises [CamlinternalLazy.Undefined], and parallel
   crash-fuzz campaigns run WALs on several domains.  The table is never
   written after this, so sharing it across domains is safe. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 (s : string) (pos : int) (len : int) : int =
  let t = crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      t.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let open_channel ?(trunc = false) (t : t) : out_channel =
  let flags =
    [ Open_wronly; Open_creat; Open_binary ]
    @ if trunc then [ Open_trunc ] else [ Open_append ]
  in
  open_out_gen flags 0o644 (wal_path ~dir:t.dir ~id:t.rid)

let create ?(group_commit = 8) ~(dir : string) ~(id : string) () : t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t =
    {
      dir;
      rid = id;
      group_commit = max 1 group_commit;
      buf = Buffer.create 4096;
      oc = None;
      buffered = 0;
      appended = 0;
      flushes = 0;
    }
  in
  t.oc <- Some (open_channel t);
  t

(** Write and physically flush every buffered frame. *)
let flush (t : t) : unit =
  if Buffer.length t.buf > 0 then begin
    match t.oc with
    | None -> ()
    | Some oc ->
        Buffer.output_buffer oc t.buf;
        Stdlib.flush oc;
        Buffer.clear t.buf;
        t.buffered <- 0;
        t.flushes <- t.flushes + 1
  end

let frame (t : t) (r : record) : unit =
  let payload = Marshal.to_string r [] in
  let len = String.length payload in
  let hdr = Bytes.create 8 in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  Bytes.set_int32_le hdr 4 (Int32.of_int (crc32 payload 0 len));
  Buffer.add_bytes t.buf hdr;
  Buffer.add_string t.buf payload;
  t.buffered <- t.buffered + 1;
  t.appended <- t.appended + 1

(** Append a record.  Commit records flush immediately (acknowledged-
    write durability — and with them every earlier buffered apply, the
    crash-determinism invariant); apply records are group-committed
    every [group_commit] records. *)
let append (t : t) (r : record) : unit =
  frame t r;
  match r with
  | R_commit _ -> flush t
  | R_apply _ -> if t.buffered >= t.group_commit then flush t

(** Hook the WAL into a replica: local commits append [R_commit] (and
    flush) before the previous hook runs, remote applies append
    [R_apply].  Attach once per replica; hooks survive crash recovery
    because {!Replica.reset} keeps them. *)
let attach (t : t) (r : Replica.t) : unit =
  let prev_commit = r.Replica.on_commit and prev_apply = r.Replica.on_apply in
  r.Replica.on_commit <-
    (fun b ->
      append t (R_commit b);
      prev_commit b);
  r.Replica.on_apply <-
    (fun b ->
      append t (R_apply b);
      prev_apply b)

(** Simulate a crash: the unflushed buffer is discarded (that is the
    point) and the channel is abandoned without flushing. *)
let crash (t : t) : unit =
  Buffer.clear t.buf;
  t.buffered <- 0;
  (match t.oc with
  | Some oc -> ( try close_out_noerr oc with _ -> ())
  | None -> ());
  t.oc <- None

(** Orderly close (flushes first). *)
let close (t : t) : unit =
  flush t;
  (match t.oc with Some oc -> close_out oc | None -> ());
  t.oc <- None

(* atomic file write: temp name in the same directory, then rename *)
let write_file_atomic (path : string) (data : string) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

(** Checkpoint: persist a {!Replica.snapshot} (atomically) and truncate
    the WAL — every logged record is now covered by the snapshot.  When
    [gc] is true (default) the replica first runs {!Replica.gc}, so the
    snapshot's batch log is already truncated to the causal-stability
    window and the WAL restarts from the same cut. *)
let checkpoint ?(gc = true) (t : t) (r : Replica.t) : unit =
  if gc then ignore (Replica.gc r);
  flush t;
  let snap = Replica.snapshot r in
  write_file_atomic
    (snap_path ~dir:t.dir ~id:t.rid)
    (Marshal.to_string snap []);
  (match t.oc with Some oc -> close_out_noerr oc | None -> ());
  t.oc <- Some (open_channel ~trunc:true t)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery = {
  rec_snapshot : bool;  (** a snapshot file was loaded *)
  rec_replayed : int;  (** records applied by replay *)
  rec_skipped : int;  (** records skipped as duplicates / pre-snapshot *)
  rec_valid_bytes : int;  (** length of the valid WAL prefix *)
  rec_dropped_bytes : int;  (** torn / corrupt tail discarded *)
}

let read_file (path : string) : string option =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end

(* parse the longest valid frame prefix; anything after the first bad
   length, failed checksum or torn frame is discarded *)
let parse_records (data : string) : record list * int =
  let total = String.length data in
  let records = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    if !pos + 8 > total then stop := true
    else begin
      let b = Bytes.of_string (String.sub data !pos 8) in
      let len = Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF in
      let crc = Int32.to_int (Bytes.get_int32_le b 4) land 0xFFFFFFFF in
      if len <= 0 || !pos + 8 + len > total then stop := true
      else if crc32 data (!pos + 8) len <> crc then stop := true
      else begin
        match
          (Marshal.from_string (String.sub data (!pos + 8) len) 0 : record)
        with
        | r ->
            records := r :: !records;
            pos := !pos + 8 + len
        | exception _ -> stop := true
      end
    end
  done;
  (List.rev !records, !pos)

(** Recover the replica in place from snapshot + WAL: reset, restore
    the snapshot if one exists, replay the valid WAL prefix in order,
    truncate the torn/corrupt tail (so later appends stay readable) and
    reopen for appending.  Batches the durable prefix does not cover
    are re-acquired through anti-entropy, exactly like batches a faulty
    network lost. *)
let recover (t : t) (r : Replica.t) : recovery =
  Buffer.clear t.buf;
  t.buffered <- 0;
  (match t.oc with Some oc -> close_out_noerr oc | None -> ());
  t.oc <- None;
  Replica.reset r;
  let rec_snapshot =
    match read_file (snap_path ~dir:t.dir ~id:t.rid) with
    | None -> false
    | Some data -> (
        match (Marshal.from_string data 0 : Replica.snapshot) with
        | snap ->
            Replica.restore r snap;
            true
        | exception _ -> false)
  in
  let wal = Option.value ~default:"" (read_file (wal_path ~dir:t.dir ~id:t.rid)) in
  let records, valid = parse_records wal in
  let replayed = ref 0 and skipped = ref 0 in
  List.iter
    (fun rc ->
      let b = match rc with R_commit b | R_apply b -> b in
      if Replica.replay_batch r b then incr replayed else incr skipped)
    records;
  if valid < String.length wal then
    write_file_atomic (wal_path ~dir:t.dir ~id:t.rid) (String.sub wal 0 valid);
  t.oc <- Some (open_channel t);
  {
    rec_snapshot;
    rec_replayed = !replayed;
    rec_skipped = !skipped;
    rec_valid_bytes = valid;
    rec_dropped_bytes = String.length wal - valid;
  }

(** Delete the replica's WAL and snapshot files (test hygiene). *)
let remove_files (t : t) : unit =
  (match t.oc with Some oc -> close_out_noerr oc | None -> ());
  t.oc <- None;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ wal_path ~dir:t.dir ~id:t.rid; snap_path ~dir:t.dir ~id:t.rid ]
