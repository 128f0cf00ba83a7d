(** Measurement collection: per-operation latency series, throughput,
    violation counts and replication-delivery statistics for the
    benchmark harness. *)

type series = { mutable samples : float list; mutable n : int }

(** Replication-layer delivery observability: how the network treated
    update batches and what the store had to do to survive it. *)
type delivery = {
  mutable batches_sent : int;  (** batch transmissions handed to the net *)
  mutable batches_dropped : int;  (** transmissions lost (loss/partition) *)
  mutable batches_duplicated : int;  (** extra copies the net injected *)
  mutable batches_retransmitted : int;  (** anti-entropy resends *)
  mutable duplicates_suppressed : int;  (** already-applied batches dropped *)
  mutable pending_hwm : int;  (** deepest causal-delivery buffer seen *)
  mutable visibility : float list;
      (** per-application visibility latency: commit at the origin →
          apply at a remote replica (ms) *)
  mutable visibility_n : int;
}

(** Escrow/reservation-path observability: how often decrements were
    covered by locally-held rights versus blocked on a synchronous
    rights fetch, how many rights moved and by which mechanism, and the
    final per-replica rights histograms.  Filled by the escrow runtime
    ({!Ipa_runtime.Escrow}-driven benches) and read back by the fuzzer's
    conservation oracle. *)
type escrow = {
  mutable blocking_misses : int;
      (** decrement attempts that found the local rights ledger short
          and paid a blocking WAN round-trip for a transfer *)
  mutable stockouts : int;
      (** blocking misses whose fetch found no rights anywhere — a
          global stock-out no placement could have served *)
  mutable piggyback_hits : int;
      (** decrement attempts covered by locally-held rights (seeded by
          the planner or shipped ahead of demand in anti-entropy
          piggybacks) *)
  mutable rights_transfers : int;
      (** rights-moving ops committed (blocking and proactive) *)
  mutable rights_shipped : int;  (** rights units moved, total *)
  mutable migrations : int;
      (** proactive (piggybacked) migration ops among the transfers *)
  mutable migrated_rights : int;  (** rights units moved proactively *)
  mutable rights_hist : (string * (string * int) list) list;
      (** final per-key, per-replica rights histograms *)
}

type t = {
  by_op : (string, series) Hashtbl.t;
  mutable violations : int;
  mutable failures : int;
      (** operations the configuration could not execute (failure
          injection: unreachable primary / reservation holder) *)
  mutable started_at : float;
  mutable finished_at : float;
  delivery : delivery;
  escrow : escrow;
}

let create () =
  {
    by_op = Hashtbl.create 16;
    violations = 0;
    failures = 0;
    started_at = 0.0;
    finished_at = 0.0;
    delivery =
      {
        batches_sent = 0;
        batches_dropped = 0;
        batches_duplicated = 0;
        batches_retransmitted = 0;
        duplicates_suppressed = 0;
        pending_hwm = 0;
        visibility = [];
        visibility_n = 0;
      };
    escrow =
      {
        blocking_misses = 0;
        stockouts = 0;
        piggyback_hits = 0;
        rights_transfers = 0;
        rights_shipped = 0;
        migrations = 0;
        migrated_rights = 0;
        rights_hist = [];
      };
  }

let series_of (m : t) (op : string) : series =
  match Hashtbl.find_opt m.by_op op with
  | Some s -> s
  | None ->
      let s = { samples = []; n = 0 } in
      Hashtbl.replace m.by_op op s;
      s

(** Record one operation latency (ms). *)
let record (m : t) ~(op : string) (latency : float) : unit =
  let s = series_of m op in
  s.samples <- latency :: s.samples;
  s.n <- s.n + 1

let record_violations (m : t) (n : int) : unit =
  m.violations <- m.violations + n

let record_failure (m : t) : unit = m.failures <- m.failures + 1

(** Record one batch's visibility latency (origin commit → remote apply). *)
let record_visibility (m : t) (latency : float) : unit =
  m.delivery.visibility <- latency :: m.delivery.visibility;
  m.delivery.visibility_n <- m.delivery.visibility_n + 1

(** Record the outcome of one escrow-guarded decrement attempt: covered
    locally ([`Hit]) or blocked on a synchronous rights fetch of [n]
    units ([`Miss n]). *)
let record_escrow_attempt (m : t) = function
  | `Hit -> m.escrow.piggyback_hits <- m.escrow.piggyback_hits + 1
  | `Miss n ->
      m.escrow.blocking_misses <- m.escrow.blocking_misses + 1;
      if n = 0 then m.escrow.stockouts <- m.escrow.stockouts + 1
      else begin
        m.escrow.rights_transfers <- m.escrow.rights_transfers + 1;
        m.escrow.rights_shipped <- m.escrow.rights_shipped + n
      end

(** Record one proactive (anti-entropy-piggybacked) rights migration. *)
let record_escrow_migration (m : t) ~(rights : int) : unit =
  m.escrow.rights_transfers <- m.escrow.rights_transfers + 1;
  m.escrow.rights_shipped <- m.escrow.rights_shipped + rights;
  m.escrow.migrations <- m.escrow.migrations + 1;
  m.escrow.migrated_rights <- m.escrow.migrated_rights + rights

(** Fraction of escrow-guarded attempts that blocked on a rights fetch
    ([0.0] when none were attempted). *)
let escrow_miss_rate (m : t) : float =
  let e = m.escrow in
  let attempts = e.blocking_misses + e.piggyback_hits in
  if attempts = 0 then 0.0
  else float_of_int e.blocking_misses /. float_of_int attempts

(** Fraction of attempted operations that executed successfully. *)
let availability (m : t) : float =
  let total = m.failures + Hashtbl.fold (fun _ s acc -> acc + s.n) m.by_op 0 in
  if total = 0 then 1.0
  else 1.0 -. (float_of_int m.failures /. float_of_int total)

let count (m : t) ?(op : string option) () : int =
  match op with
  | Some o -> (series_of m o).n
  | None -> Hashtbl.fold (fun _ s acc -> acc + s.n) m.by_op 0

let all_samples (m : t) ?(op : string option) () : float list =
  match op with
  | Some o -> (series_of m o).samples
  | None -> Hashtbl.fold (fun _ s acc -> s.samples @ acc) m.by_op []

let mean (l : float list) : float =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev (l : float list) : float =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean l in
      sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) l))

(* nearest-rank on a pre-sorted array: the p-th percentile of n samples
   is the value at rank ⌈p/100 · n⌉ (1-based), clamped to the sample
   range — unbiased on small samples, unlike rank truncation *)
let percentile_sorted (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(min (n - 1) (max 0 (rank - 1)))

let sorted_array (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let percentile (p : float) (l : float list) : float =
  percentile_sorted (sorted_array l) p

(** Several percentiles of one sample set, sorting it only once — use
    this when a report needs more than one quantile. *)
let percentiles (ps : float list) (l : float list) : float list =
  let a = sorted_array l in
  List.map (percentile_sorted a) ps

(** Mean latency of an operation (or all operations). *)
let mean_latency (m : t) ?op () : float = mean (all_samples m ?op ())

let stddev_latency (m : t) ?op () : float = stddev (all_samples m ?op ())

let p95_latency (m : t) ?op () : float =
  percentile 95.0 (all_samples m ?op ())

(** Completed operations per second over the measured window. *)
let throughput (m : t) : float =
  let window = m.finished_at -. m.started_at in
  if window <= 0.0 then 0.0
  else float_of_int (count m ()) /. (window /. 1000.0)

(** One-line replication-delivery summary for bench output. *)
let pp_delivery ppf (m : t) =
  let d = m.delivery in
  match percentiles [ 50.0; 95.0; 99.0 ] d.visibility with
  | [ p50; p95; p99 ] ->
      Fmt.pf ppf
        "sent %d  dropped %d  dup %d  retrans %d  dup-suppressed %d  \
         pending-hwm %d  visibility p50/p95/p99 %.0f/%.0f/%.0f ms"
        d.batches_sent d.batches_dropped d.batches_duplicated
        d.batches_retransmitted d.duplicates_suppressed d.pending_hwm p50 p95
        p99
  | _ -> ()

(** One-line escrow/reservation-path summary: blocking misses vs local
    hits, rights moved (total and proactively migrated), and the rights
    histogram of the hottest keys. *)
let pp_escrow ppf (m : t) =
  let e = m.escrow in
  Fmt.pf ppf
    "blocking-miss %d (stockout %d)  piggyback-hit %d  miss-rate %.4f  \
     transfers %d  rights-shipped %d  migrations %d  migrated-rights %d"
    e.blocking_misses e.stockouts e.piggyback_hits (escrow_miss_rate m)
    e.rights_transfers e.rights_shipped e.migrations e.migrated_rights;
  match e.rights_hist with
  | [] -> ()
  | hist ->
      let top = List.filteri (fun i _ -> i < 3) hist in
      Fmt.pf ppf "  rights%a"
        Fmt.(
          list ~sep:nop (fun ppf (key, per_rep) ->
              Fmt.pf ppf " %s:[%a]" key
                (list ~sep:(any ",") (fun ppf (r, n) ->
                     Fmt.pf ppf "%s=%d" r n))
                per_rep))
        top
