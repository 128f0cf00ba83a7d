(** Op-based add-wins set (observed-remove set) with payloads, the
    {e touch} operation, and wildcard removes (paper §4.2.1).

    Elements are strings (application-level keys); each element may carry
    a payload (the entity's associated information).  Under causal
    delivery the downstream effects commute, and concurrent add/remove of
    the same element resolves in favour of the add: a remove only cancels
    the add-dots its source had observed.

    [Touch] is an add that does {e not} set a payload: it makes the
    element a member again while preserving whatever information was
    associated with it — the restoring effect IPA attaches to modified
    operations.  Payloads are kept across removals and reclaimed by
    {!gc} once the removal is causally stable (the paper's SwiftCloud
    mechanism, §4.2.1). *)

module EM = Map.Make (String)
module DS = Vclock.DotSet

(* payload resolution: the payload written by the causally-greatest dot,
   with the dot order as a deterministic tiebreak for concurrent writes *)
type payload = (Vclock.dot * string) option

let merge_payload (a : payload) (b : payload) : payload =
  match (a, b) with
  | None, p | p, None -> p
  | Some (da, _), Some (db, _) ->
      if Vclock.dot_compare da db >= 0 then a else b

(* [cc] is the entry's causal context: every add-dot ever observed for
   the element, live or since removed.  It is what makes the state
   joinable (delta-state semantics): when merging two states, a dot that
   one side holds live but the other has in its context-without-dots was
   removed, not unseen — so the join drops it instead of resurrecting
   it. *)
type entry = { dots : DS.t; cc : DS.t; pl : payload }

type t = entry EM.t

type op =
  | Add of { elt : string; dot : Vclock.dot; payload : string option }
  | Touch of { elt : string; dot : Vclock.dot }
  | Remove of { elt : string; observed : DS.t }
  | Remove_where of { observed : (string * DS.t) list }
      (** wildcard remove: the observed dots of every member the
          source's predicate selected, so it cancels nothing the source
          did not observe (add-wins) *)

let empty : t = EM.empty

let entry_of (s : t) e =
  match EM.find_opt e s with
  | Some en -> en
  | None -> { dots = DS.empty; cc = DS.empty; pl = None }

(** Membership: an element is in the set while it has live add-dots. *)
let mem (e : string) (s : t) : bool = not (DS.is_empty (entry_of s e).dots)

(** Current payload of a member element. *)
let payload (e : string) (s : t) : string option =
  let en = entry_of s e in
  if DS.is_empty en.dots then None
  else match en.pl with Some (_, p) -> Some p | None -> None

(** The payload remembered for [e] even if currently removed (touch
    semantics: information survives removal). *)
let saved_payload (e : string) (s : t) : string option =
  match (entry_of s e).pl with Some (_, p) -> Some p | None -> None

let elements (s : t) : string list =
  EM.fold (fun e en acc -> if DS.is_empty en.dots then acc else e :: acc) s []
  |> List.sort String.compare

let size (s : t) : int =
  EM.fold (fun _ en acc -> if DS.is_empty en.dots then acc else acc + 1) s 0

(** Fold over the members, in no particular order. *)
let fold_members (f : string -> 'a -> 'a) (s : t) (acc : 'a) : 'a =
  EM.fold (fun e en acc -> if DS.is_empty en.dots then acc else f e acc) s acc

(* ------------------------------------------------------------------ *)
(* Prepare (at the source replica)                                     *)
(* ------------------------------------------------------------------ *)

let prepare_add ?payload (s : t) ~(dot : Vclock.dot) (e : string) : op =
  ignore s;
  Add { elt = e; dot; payload }

let prepare_touch (s : t) ~(dot : Vclock.dot) (e : string) : op =
  ignore s;
  Touch { elt = e; dot }

let prepare_remove (s : t) (e : string) : op =
  Remove { elt = e; observed = (entry_of s e).dots }

(** Prepare a wildcard remove: collects the observed dots of every
    member [matches] selects.  The predicate runs here only; the op
    carries the collected dots. *)
let prepare_remove_where (s : t) (matches : string -> bool) : op =
  let observed =
    EM.fold
      (fun e en acc ->
        if (not (DS.is_empty en.dots)) && matches e then (e, en.dots) :: acc
        else acc)
      s []
  in
  Remove_where { observed }

(* ------------------------------------------------------------------ *)
(* Effect (at every replica, causally delivered)                       *)
(* ------------------------------------------------------------------ *)

(* cancel the [observed] add-dots of [elt] *)
let remove_observed (s : t) (elt : string) (observed : DS.t) : t =
  let en = entry_of s elt in
  EM.add elt
    { en with dots = DS.diff en.dots observed; cc = DS.union en.cc observed }
    s

let apply (s : t) (o : op) : t =
  match o with
  | Add { elt; dot; payload = p } ->
      let en = entry_of s elt in
      let pl =
        match p with
        | Some v -> merge_payload en.pl (Some (dot, v))
        | None -> en.pl
      in
      EM.add elt { dots = DS.add dot en.dots; cc = DS.add dot en.cc; pl } s
  | Touch { elt; dot } ->
      let en = entry_of s elt in
      EM.add elt
        { en with dots = DS.add dot en.dots; cc = DS.add dot en.cc }
        s
  | Remove { elt; observed } -> remove_observed s elt observed
  | Remove_where { observed } ->
      List.fold_left
        (fun s (elt, dots) -> remove_observed s elt dots)
        s observed

(** The elements an op names, each once — the only ones whose
    membership applying it can change. *)
let touched (o : op) : string list =
  match o with
  | Add { elt; _ } | Touch { elt; _ } | Remove { elt; _ } -> [ elt ]
  | Remove_where { observed } -> List.map fst observed

(* ------------------------------------------------------------------ *)
(* Delta-state view (optimized OR-set join, Bieniusa et al.)           *)
(* ------------------------------------------------------------------ *)

let merge_entry (a : entry) (b : entry) : entry =
  (* a dot survives iff it is live on every side that has heard of it *)
  let dots =
    DS.union
      (DS.inter a.dots b.dots)
      (DS.union (DS.diff a.dots b.cc) (DS.diff b.dots a.cc))
  in
  { dots; cc = DS.union a.cc b.cc; pl = merge_payload a.pl b.pl }

(** Join two states (or a state and a delta fragment — fragments are
    just small states).  Commutative, associative, idempotent.  Assumes
    neither side has {!gc}'d an entry the other still holds live, which
    the store's causal-stability cut guarantees. *)
let merge (a : t) (b : t) : t =
  EM.union (fun _ ea eb -> Some (merge_entry ea eb)) a b

(** The state fragment (delta) carrying exactly one op's effect:
    [apply s o = merge s (delta_of_op o)] for any [s] that has not yet
    observed the op (exactly-once, causal delivery). *)
let delta_of_op (o : op) : t =
  match o with
  | Add { elt; dot; payload = p } ->
      let pl = match p with Some v -> Some (dot, v) | None -> None in
      EM.singleton elt
        { dots = DS.singleton dot; cc = DS.singleton dot; pl }
  | Touch { elt; dot } ->
      EM.singleton elt
        { dots = DS.singleton dot; cc = DS.singleton dot; pl = None }
  | Remove { elt; observed } ->
      EM.singleton elt { dots = DS.empty; cc = observed; pl = None }
  | Remove_where { observed } ->
      List.fold_left
        (fun s (elt, dots) ->
          EM.add elt { dots = DS.empty; cc = dots; pl = None } s)
        EM.empty observed

(** The elements a state fragment holds entries for — the only ones
    whose membership merging it into another state can change. *)
let keys (s : t) : string list = EM.fold (fun e _ acc -> e :: acc) s []

let pp ppf (s : t) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") string) (elements s)

(* ------------------------------------------------------------------ *)
(* Stability-based garbage collection                                  *)
(* ------------------------------------------------------------------ *)

(** Number of entries held, including removed-but-remembered ones. *)
let metadata_size (s : t) : int = EM.cardinal s

(** [gc ~stable s] forgets removed entries whose payload write is
    causally stable (paper §4.2.1: removed elements are kept for the
    touch operation and garbage-collected with stability information).
    Once the removal is stable, no concurrent touch that would need the
    payload can still be in flight. *)
let gc ~(stable : Vclock.t) (s : t) : t =
  EM.filter
    (fun _ en ->
      not
        (DS.is_empty en.dots
        &&
        match en.pl with
        | Some (d, _) -> Vclock.contains stable d
        | None -> true))
    s
