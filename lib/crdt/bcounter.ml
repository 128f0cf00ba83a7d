(** Bounded counter (escrow): a counter that never goes below zero
    without coordination, by pre-partitioning decrement {e rights} among
    replicas (O'Neil's escrow method; used by Indigo-style reservations
    and cited by the paper for numeric invariants).

    Increments create rights at the incrementing replica.  A decrement
    must be covered by locally-held rights; when a replica runs out it
    must obtain a {!Transfer} from a peer — the coordination path the
    escrow fetch and the Indigo configuration's reservations both pay
    for ([Ipa_store.Rights]).

    {b Headroom (upper-side escrow).}  A counter becomes {e capped} when
    increment {e headroom} is granted ({!Grant}); from then on an
    increment must be covered by locally-held headroom, decrements
    replenish headroom at the decrementing replica, and {!Hmove} ships
    headroom between replicas — the exact dual of the rights ledger.
    Capping is what makes {!interval} finite on both sides: with every
    unseen increment covered by peer headroom and every unseen decrement
    covered by peer rights, a replica's purely local view bounds the
    strongly-consistent value from both directions (the derivation is in
    DESIGN.md "Consistency-typed reads").  Grants must be seeded before
    concurrent use (a replica that has not yet applied a grant still
    admits unchecked increments); an ungranted counter behaves exactly
    as before — increments are free and {!interval} has no upper
    bound. *)

module M = Map.Make (String)

type t = {
  inc : int M.t;  (** increments (rights created) per replica *)
  dec : int M.t;  (** decrements per replica *)
  moved : int M.t M.t;  (** moved.(from).(to) = rights transferred *)
  total : int;
      (** maintained [inc − dec] aggregate (transfers don't change it);
          read through {!quick_value} — the reference {!value} keeps
          folding the maps *)
  grant : int M.t;  (** increment headroom granted per replica *)
  hmoved : int M.t M.t;  (** hmoved.(from).(to) = headroom shipped *)
  granted : int;
      (** maintained Σ grants; [> 0] means the counter is capped (the
          cap is exactly [granted]: value = Σinc − Σdec and global
          headroom = granted − value ≥ 0 force value ≤ granted) *)
  demand : int M.t;
      (** advisory demand ledger: cumulative decrement {e attempts}
          (covered or not) observed per replica, published as {!Demand}
          ops riding ordinary batches.  Feeds the escrow planner's
          windowed estimates ({!Ipa_runtime.Escrow}); never consulted by
          any prepare guard, so it cannot affect safety *)
  hdemand : int M.t;
      (** dual advisory ledger: cumulative increment attempts per
          replica, driving headroom migration on capped counters *)
}

type op =
  | Inc of { rep : string; n : int }
  | Dec of { rep : string; n : int }
  | Transfer of { from_ : string; to_ : string; n : int }
  | Grant of { rep : string; n : int }
      (** create [n] increment headroom at [rep] (seed-time only) *)
  | Hmove of { from_ : string; to_ : string; n : int }
      (** ship increment headroom between replicas *)
  | Demand of { rep : string; n : int }
      (** publish [n] decrement attempts observed at [rep] (advisory;
          drives demand-aware rights migration, never safety) *)
  | Hdemand of { rep : string; n : int }
      (** publish [n] increment attempts observed at [rep] (advisory
          dual, drives headroom migration on capped counters) *)

exception Insufficient_rights of { rep : string; have : int; need : int }
exception Insufficient_headroom of { rep : string; have : int; need : int }

let empty : t =
  {
    inc = M.empty;
    dec = M.empty;
    moved = M.empty;
    total = 0;
    grant = M.empty;
    hmoved = M.empty;
    granted = 0;
    demand = M.empty;
    hdemand = M.empty;
  }

let get m r = match M.find_opt r m with Some n -> n | None -> 0
let get2 mm a b = match M.find_opt a mm with Some m -> get m b | None -> 0

(** Global counter value. *)
let value (c : t) : int =
  M.fold (fun _ n acc -> acc + n) c.inc 0
  - M.fold (fun _ n acc -> acc + n) c.dec 0

(** Always equal to {!value}, in O(1) (maintained aggregate). *)
let quick_value (c : t) : int = c.total

(* rights/headroom shipped into minus out of [rep] through a transfer map *)
let net_moved (mm : int M.t M.t) (rep : string) : int =
  M.fold (fun from_ m acc -> ignore from_; acc + get m rep) mm 0
  - (match M.find_opt rep mm with
    | Some m -> M.fold (fun _ n acc -> acc + n) m 0
    | None -> 0)

(** Decrement rights currently held by [rep]. *)
let local_rights (c : t) (rep : string) : int =
  get c.inc rep - get c.dec rep + net_moved c.moved rep

(** Increment headroom currently held by [rep]: grants plus the
    headroom its own decrements released, minus what its increments
    consumed, adjusted by {!Hmove} traffic.  Meaningless (and unused)
    while the counter is uncapped. *)
let local_headroom (c : t) (rep : string) : int =
  get c.grant rep + get c.dec rep - get c.inc rep + net_moved c.hmoved rep

(** Cumulative decrement attempts published by [rep] ({!Demand} ops) —
    the planner's raw demand signal. *)
let local_demand (c : t) (rep : string) : int = get c.demand rep

(** Cumulative increment attempts published by [rep] ({!Hdemand}). *)
let local_hdemand (c : t) (rep : string) : int = get c.hdemand rep

(** Has increment headroom ever been granted?  A capped counter checks
    headroom on {!prepare_inc} and has a finite {!interval} upper
    bound. *)
let capped (c : t) : bool = c.granted > 0

(** Total headroom ever granted — the counter's cap when {!capped}. *)
let granted (c : t) : int = c.granted

(** The escrow interval at [rep]'s purely local view: the
    strongly-consistent value (over all operations committed anywhere)
    is ≥ [lo] always, and ≤ [hi] when the counter is capped ([hi] is
    [None] otherwise — unseen increments are unbounded without a
    headroom discipline).

    [lo = local_rights rep]: unseen decrements are covered by peer
    rights (locally visible) plus rights that unseen increments create,
    and those increments add back what they enable, so the true value
    cannot fall below the rights only this replica can spend.
    [hi = granted − local_headroom rep]: dually, unseen increments are
    covered by peer headroom = (granted − value) − local headroom. *)
type interval = { lo : int; hi : int option }

let interval (c : t) ~(rep : string) : interval =
  {
    lo = local_rights c rep;
    hi = (if capped c then Some (c.granted - local_headroom c rep) else None);
  }

(* ------------------------------------------------------------------ *)
(* Prepare                                                             *)
(* ------------------------------------------------------------------ *)

(** Fails with {!Insufficient_headroom} when the counter is capped and
    [rep] does not hold [n] headroom — the caller must {!Hmove} headroom
    first (coordination, dual to the rights transfer).  Free on an
    uncapped counter. *)
let prepare_inc (c : t) ~(rep : string) (n : int) : op =
  if capped c then begin
    let have = local_headroom c rep in
    if have < n then raise (Insufficient_headroom { rep; have; need = n })
  end;
  Inc { rep; n }

(** Fails with {!Insufficient_rights} when [rep] does not hold [n]
    rights — the caller must transfer rights first (coordination). *)
let prepare_dec (c : t) ~(rep : string) (n : int) : op =
  let have = local_rights c rep in
  if have < n then raise (Insufficient_rights { rep; have; need = n });
  Dec { rep; n }

let prepare_transfer (c : t) ~(from_ : string) ~(to_ : string) (n : int) : op =
  let have = local_rights c from_ in
  if have < n then raise (Insufficient_rights { rep = from_; have; need = n });
  Transfer { from_; to_; n }

(** Create [n] increment headroom at [rep], capping the counter.  Grants
    belong in seed data, reliably delivered before concurrent use —
    the {!interval} upper bound is only sound against observers that
    have applied every grant. *)
let prepare_grant (_ : t) ~(rep : string) (n : int) : op = Grant { rep; n }

let prepare_hmove (c : t) ~(from_ : string) ~(to_ : string) (n : int) : op =
  let have = local_headroom c from_ in
  if have < n then
    raise (Insufficient_headroom { rep = from_; have; need = n });
  Hmove { from_; to_; n }

(** Publish [n] decrement attempts observed at [rep].  Advisory — no
    guard, always succeeds, and applying it never changes the value,
    rights or headroom of any replica. *)
let prepare_demand (_ : t) ~(rep : string) (n : int) : op = Demand { rep; n }

let prepare_hdemand (_ : t) ~(rep : string) (n : int) : op =
  Hdemand { rep; n }

(* ------------------------------------------------------------------ *)
(* Effect                                                              *)
(* ------------------------------------------------------------------ *)

(* single tree walk per effect (update), not a find followed by an add *)
let bump (m : int M.t) (rep : string) (n : int) : int M.t =
  M.update rep (fun cur -> Some (Option.value ~default:0 cur + n)) m

let bump2 (mm : int M.t M.t) (from_ : string) (to_ : string) (n : int) :
    int M.t M.t =
  let row = Option.value ~default:M.empty (M.find_opt from_ mm) in
  M.add from_ (M.add to_ (get2 mm from_ to_ + n) row) mm

let apply (c : t) (o : op) : t =
  match o with
  | Inc { rep; n } -> { c with inc = bump c.inc rep n; total = c.total + n }
  | Dec { rep; n } -> { c with dec = bump c.dec rep n; total = c.total - n }
  | Transfer { from_; to_; n } -> { c with moved = bump2 c.moved from_ to_ n }
  | Grant { rep; n } ->
      { c with grant = bump c.grant rep n; granted = c.granted + n }
  | Hmove { from_; to_; n } -> { c with hmoved = bump2 c.hmoved from_ to_ n }
  | Demand { rep; n } -> { c with demand = bump c.demand rep n }
  | Hdemand { rep; n } -> { c with hdemand = bump c.hdemand rep n }

(* ------------------------------------------------------------------ *)
(* Introspection & conservation audit                                  *)
(* ------------------------------------------------------------------ *)

(** Every replica id mentioned by any ledger of the counter, sorted.
    The audit and the planner's rights histogram iterate over this. *)
let replicas (c : t) : string list =
  let add r acc = if List.mem r acc then acc else r :: acc in
  let of_map m acc = M.fold (fun r _ acc -> add r acc) m acc in
  let of_map2 mm acc =
    M.fold (fun from_ row acc -> of_map row (add from_ acc)) mm acc
  in
  []
  |> of_map c.inc |> of_map c.dec |> of_map c.grant |> of_map c.demand
  |> of_map c.hdemand |> of_map2 c.moved |> of_map2 c.hmoved
  |> List.sort compare

(** [(replica, rights held)] for every replica the counter mentions —
    the per-replica rights histogram surfaced by the escrow metrics. *)
let rights_histogram (c : t) : (string * int) list =
  List.map (fun r -> (r, local_rights c r)) (replicas c)

(** Conservation audit over a (causally consistent) view of the
    counter.  Checks the escrow identities that every reachable state
    must satisfy — [Some msg] pinpoints the first broken one:

    - the maintained aggregates match their reference folds
      ([total] = Σinc − Σdec, [granted] = Σgrants);
    - rights conservation: Σ_r local_rights(r) = value (transfers net
      to zero — no rights minted or leaked in flight);
    - headroom conservation (capped): Σ_r local_headroom(r) =
      granted − value, i.e. {e rights remaining + spent = bound};
    - no replica's rights (or headroom, when capped) are overdrawn,
      and the value sits inside [0, granted] — causal delivery makes
      these hold at every intermediate view, not just at quiescence. *)
let audit (c : t) : string option =
  let v = value c in
  let reps = replicas c in
  let sum f = List.fold_left (fun acc r -> acc + f c r) 0 reps in
  if v <> c.total then
    Some (Fmt.str "aggregate drift: total=%d but Σinc−Σdec=%d" c.total v)
  else if M.fold (fun _ n acc -> acc + n) c.grant 0 <> c.granted then
    Some
      (Fmt.str "aggregate drift: granted=%d but Σgrant=%d" c.granted
         (M.fold (fun _ n acc -> acc + n) c.grant 0))
  else if sum local_rights <> v then
    Some
      (Fmt.str "rights leak: Σ local_rights=%d but value=%d"
         (sum local_rights) v)
  else if capped c && sum local_headroom <> c.granted - v then
    Some
      (Fmt.str "headroom leak: Σ local_headroom=%d but granted−value=%d"
         (sum local_headroom) (c.granted - v))
  else
    match List.find_opt (fun r -> local_rights c r < 0) reps with
    | Some r ->
        Some (Fmt.str "overdrawn rights at %s: %d" r (local_rights c r))
    | None -> (
        if not (capped c) then None
        else
          match List.find_opt (fun r -> local_headroom c r < 0) reps with
          | Some r ->
              Some
                (Fmt.str "overdrawn headroom at %s: %d" r
                   (local_headroom c r))
          | None ->
              if v < 0 || v > c.granted then
                Some (Fmt.str "value %d outside [0, %d]" v c.granted)
              else None)

let pp ppf c = Fmt.pf ppf "%d" (value c)
