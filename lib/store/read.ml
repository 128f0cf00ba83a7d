(** Consistency-typed client reads (the "Disciplined Inconsistency"
    surface grafted onto the store).

    A read is annotated with one of three levels, encoded as a GADT
    whose phantom index ties the {e result} to the level it was read
    at — code that demands strongly-consistent input can say so in its
    type ([strong result -> ...]) and the compiler rejects handing it a
    weak read.  Every level is a bound clock the serving replica must
    cover, and one path serves them all:

    - {!Weak}: the empty bound — every replica covers it, so the read
      serves at the client's replica; the value may be arbitrarily
      stale but is always some causally-consistent snapshot.
    - {!Bounded}[ b]: bounded staleness — the reply must include every
      event at or below [b].
    - {!Strong}: the tightest bound, the cut (the merge of every
      replica's clock at read start) — the reply reflects every
      operation committed anywhere before the read.

    The path ({!route}): serve at home if its own clock covers the
    bound, else at the first replica that does; if none does, catch
    {e the home replica only} up from its peers' logs ({!catch_up}) and
    serve there with [escalated = true].  Coordination is paid by the
    one replica that serves, never by the whole cluster.

    The staleness {!history} turns a budget in milliseconds into a bound
    clock: the runtime and the fuzz oracle push every commit into it.

    Interval reads are the numeric companion: for a {!Bcounter}-backed
    key, {!interval_at} returns the escrow interval [{lo; hi}] from a
    single replica's local state, guaranteed to contain the
    strongly-consistent value (see {!Bcounter.interval} for the
    derivation; [hi] is finite once headroom has been granted). *)

open Ipa_crdt

type weak
type bounded
type strong

type _ level =
  | Weak : weak level
  | Bounded : Vclock.t -> bounded level
      (** the staleness bound: every event ≼ this clock must be
          reflected in the reply *)
  | Strong : strong level

(** A stamped read: the value (or [None] for an absent key), which
    replica served it, that replica's clock at serve time, and whether
    the home replica had to catch up because no replica covered the
    bound.  The phantom index records the requested level. *)
type 'l result = {
  value : Obj.t option;
  served_by : string;
  at : Vclock.t;
  escalated : bool;
}

let value (r : 'l result) : Obj.t option = r.value

(* ------------------------------------------------------------------ *)
(* Bounds and routing                                                  *)
(* ------------------------------------------------------------------ *)

(** [covers r b] — [r]'s own state includes every event at or below
    [b], so [r] can serve a read with bound [b]. *)
let covers (r : Replica.t) (b : Vclock.t) : bool = Vclock.leq b r.Replica.vv

let bound (type l) (c : Cluster.t) (level : l level) : Vclock.t =
  match level with
  | Weak -> Vclock.empty
  | Bounded b -> b
  | Strong ->
      (* the cut: everything committed anywhere *)
      List.fold_left
        (fun acc (r : Replica.t) -> Vclock.merge acc r.Replica.vv)
        Vclock.empty c.Cluster.replicas

type route = Home | Forward of Replica.t | Catch_up

let route ~(home : Replica.t) (candidates : Replica.t list) (b : Vclock.t) :
    route =
  if covers home b then Home
  else
    match List.find_opt (fun r -> covers r b) candidates with
    | Some r -> Forward r
    | None -> Catch_up

(** Received batches are logged like local commits, so the peers' logs
    hold the whole cut; a peer [home] already covers has nothing to
    give.  Batches [home] has buffered are not re-sent, and the arrival
    of their missing predecessors drains them. *)
let catch_up (c : Cluster.t) (home : Replica.t) : unit =
  List.iter
    (fun peer -> Sync.pull ~src:peer home)
    (Cluster.others c home.Replica.id)

(* ------------------------------------------------------------------ *)
(* Quiesce                                                             *)
(* ------------------------------------------------------------------ *)

(** Drive the cluster to quiescence over the reliable control channel
    (direct delivery, 1 ms retransmission backoff — the healing loop's
    configuration) and return the rounds spent.  Gives up after
    [max_rounds] (the cluster may then still be divergent — callers
    judge the state they read, as the fuzzer's oracle does). *)
let quiesce ?(max_rounds = 200) (c : Cluster.t) : int =
  if Cluster.quiescent c then 0
  else begin
    let s = Sync.create ~base_backoff_ms:1.0 ~max_backoff_ms:1.0 c in
    let direct ~src:_ ~(dst : Replica.t) (b : Replica.batch) =
      Replica.receive dst b
    in
    let now = ref 0.0 in
    let rounds = ref 0 in
    while (not (Cluster.quiescent c)) && !rounds < max_rounds do
      incr rounds;
      now := !now +. 10.0;
      ignore (Sync.round s ~now:!now ~send:direct)
    done;
    !rounds
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

let serve (r : Replica.t) ~(escalated : bool) (key : string) : 'l result =
  {
    value = Replica.peek r key;
    served_by = r.Replica.id;
    at = r.Replica.vv;
    escalated;
  }

(** Read [key] at the given level.  [prefer] names the client's
    co-located replica (default: the first). *)
let read (type l) (c : Cluster.t) (level : l level) ?prefer (key : string) :
    l result =
  let home =
    match prefer with
    | Some id -> Cluster.replica c id
    | None -> List.hd c.Cluster.replicas
  in
  match route ~home c.Cluster.replicas (bound c level) with
  | Home -> serve home ~escalated:false key
  | Forward r -> serve r ~escalated:false key
  | Catch_up ->
      catch_up c home;
      serve home ~escalated:true key

(* ------------------------------------------------------------------ *)
(* Staleness history                                                   *)
(* ------------------------------------------------------------------ *)

(** A ring of (commit time, committed clock) checkpoints plus the
    running committed clock (the merge of every pushed after-clock). *)
type history = {
  ring : (float * Vclock.t) array;
  mutable head : int;  (** next slot to write *)
  mutable len : int;  (** live checkpoints (≤ capacity) *)
  mutable committed : Vclock.t;
}

(* budgets reaching past the ring resolve to the oldest retained
   checkpoint: a stricter bound, conservative and never unsound *)
let history_capacity = 8192

let history () : history =
  {
    ring = Array.make history_capacity (0.0, Vclock.empty);
    head = 0;
    len = 0;
    committed = Vclock.empty;
  }

let push (h : history) ~(now : float) (after : Vclock.t) : unit =
  h.committed <- Vclock.merge h.committed after;
  h.ring.(h.head) <- (now, h.committed);
  h.head <- (h.head + 1) mod history_capacity;
  h.len <- min (h.len + 1) history_capacity

let bound_at (h : history) ~(now : float) ~(staleness_ms : float) : Vclock.t =
  let target = now -. staleness_ms in
  (* the [i]-th newest checkpoint *)
  let nth i =
    h.ring.((h.head - 1 - i + history_capacity) mod history_capacity)
  in
  let rec newest_before i =
    if i = h.len then
      (* with the full history retained, nothing committed before the
         target; past the ring, the oldest retained checkpoint *)
      if h.len < history_capacity then Vclock.empty else snd (nth (i - 1))
    else
      let t, clock = nth i in
      if t <= target then clock else newest_before (i + 1)
  in
  newest_before 0

(* ------------------------------------------------------------------ *)
(* Interval reads                                                      *)
(* ------------------------------------------------------------------ *)

(** An escrow interval read: the locally observed value and the
    [lo ≤ strong value ≤ hi] bounds ([hi = None] when the counter has
    no headroom grants — unseen increments are then unbounded). *)
type interval = { lo : int; hi : int option; observed : int }

(** The escrow interval of a {!Bcounter}-backed key from [r]'s purely
    local state — no message exchange.  An absent key reads
    as the empty counter ([{lo = 0; hi = None ...}] uncapped, exact
    zero-width once granted headroom arrives).  Raises
    [Obj.Type_mismatch] on a non-Bcounter key. *)
let interval_at (r : Replica.t) (key : string) : interval =
  let c =
    match Replica.peek r key with
    | Some o -> Obj.as_bcounter o
    | None -> Bcounter.empty
  in
  let { Bcounter.lo; hi } = Bcounter.interval c ~rep:r.Replica.id in
  { lo; hi; observed = Bcounter.quick_value c }
