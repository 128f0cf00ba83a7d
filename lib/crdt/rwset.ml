(** Op-based remove-wins set with wildcard removes (paper §4.2.1).

    Dual of {!Awset}: when an add and a remove of the same element are
    concurrent, the remove wins.  An add is visible only if every remove
    of the element happened strictly before it (the add's source had
    observed the remove).  Wildcard removes install a {e barrier} that
    also cancels adds the source had not observed — including adds
    performed concurrently at other replicas — which is exactly the
    semantics needed for [enrolled( *, t) := false] (Figure 2c).

    Metadata (remove barriers) grows with removes; {!gc} prunes it with
    causal-stability information (SwiftCloud's mechanism): once a remove
    barrier is stable — included in every replica's state — no
    concurrent add can still arrive, so the barrier and the adds it
    masks can be discarded without changing any observable state. *)

module EM = Map.Make (String)

type add_rec = { adot : Vclock.dot; avv : Vclock.t }

type entry = {
  adds : add_rec list;
  removes : Vclock.t list;  (** per-element remove barriers *)
  pl : (Vclock.dot * string) option;
}

type selector = All | Matching of (string -> bool)

type t = {
  entries : entry EM.t;
  wild : (selector * Vclock.t) list;  (** wildcard remove barriers *)
}

type op =
  | Add of { elt : string; dot : Vclock.dot; vv : Vclock.t; payload : string option }
  | Remove of { elt : string; vv : Vclock.t }
  | Remove_where of { sel : selector; vv : Vclock.t }

let empty : t = { entries = EM.empty; wild = [] }

let entry_of (s : t) e =
  match EM.find_opt e s.entries with
  | Some en -> en
  | None -> { adds = []; removes = []; pl = None }

let matches sel e = match sel with All -> true | Matching f -> f e

(* an add survives iff every remove barrier affecting the element
   happened-before the add *)
let visible (s : t) (e : string) (a : add_rec) : bool =
  let en = entry_of s e in
  List.for_all (fun rvv -> Vclock.leq rvv a.avv) en.removes
  && List.for_all
       (fun (sel, rvv) -> (not (matches sel e)) || Vclock.leq rvv a.avv)
       s.wild

let mem (e : string) (s : t) : bool =
  List.exists (visible s e) (entry_of s e).adds

let payload (e : string) (s : t) : string option =
  if mem e s then
    match (entry_of s e).pl with Some (_, p) -> Some p | None -> None
  else None

let elements (s : t) : string list =
  EM.fold
    (fun e _ acc -> if mem e s then e :: acc else acc)
    s.entries []
  |> List.sort String.compare

let size (s : t) : int = List.length (elements s)

(** Fold over the members, in no particular order. *)
let fold_members (f : string -> 'a -> 'a) (s : t) (acc : 'a) : 'a =
  EM.fold (fun e _ acc -> if mem e s then f e acc else acc) s.entries acc

(* ------------------------------------------------------------------ *)
(* Prepare                                                             *)
(* ------------------------------------------------------------------ *)

(** [vv] must be the source replica's clock {e including} this event. *)
let prepare_add ?payload (_ : t) ~(dot : Vclock.dot) ~(vv : Vclock.t)
    (e : string) : op =
  Add { elt = e; dot; vv; payload }

let prepare_remove (_ : t) ~(vv : Vclock.t) (e : string) : op =
  Remove { elt = e; vv }

let prepare_remove_where (_ : t) ~(vv : Vclock.t) (sel : selector) : op =
  Remove_where { sel; vv }

(* ------------------------------------------------------------------ *)
(* Effect                                                              *)
(* ------------------------------------------------------------------ *)

let merge_payload a b =
  match (a, b) with
  | None, p | p, None -> p
  | Some (da, _), Some (db, _) -> if Vclock.dot_compare da db >= 0 then a else b

let apply (s : t) (o : op) : t =
  match o with
  | Add { elt; dot; vv; payload = p } ->
      let en = entry_of s elt in
      let pl =
        match p with
        | Some v -> merge_payload en.pl (Some (dot, v))
        | None -> en.pl
      in
      {
        s with
        entries =
          EM.add elt
            { en with adds = { adot = dot; avv = vv } :: en.adds; pl }
            s.entries;
      }
  | Remove { elt; vv } ->
      let en = entry_of s elt in
      {
        s with
        entries = EM.add elt { en with removes = vv :: en.removes } s.entries;
      }
  | Remove_where { sel; vv } -> { s with wild = (sel, vv) :: s.wild }

(** The element an op names — the only one whose membership applying
    it can change — or [None] for a wildcard remove, whose barrier can
    hide any element. *)
let touched (o : op) : string list option =
  match o with
  | Add { elt; _ } | Remove { elt; _ } -> Some [ elt ]
  | Remove_where _ -> None

(* ------------------------------------------------------------------ *)
(* Delta-state view                                                    *)
(* ------------------------------------------------------------------ *)

(* The state already carries full causal metadata (per-add source
   clocks, explicit barriers), so the join is a deduplicating union.
   Selectors are closures: dedup is by physical equality, which holds
   in-process because the simulator delivers the same op value to every
   replica; a missed duplicate is harmless (visibility is a for_all over
   barriers). *)

let merge_entry (ea : entry) (eb : entry) : entry =
  let adds =
    List.fold_left
      (fun acc a ->
        if List.exists (fun x -> Vclock.dot_compare x.adot a.adot = 0) acc
        then acc
        else a :: acc)
      ea.adds eb.adds
  in
  let removes =
    List.fold_left
      (fun acc vv ->
        if List.exists (Vclock.equal vv) acc then acc else vv :: acc)
      ea.removes eb.removes
  in
  { adds; removes; pl = merge_payload ea.pl eb.pl }

(** Join two states — commutative, associative, idempotent (up to
    barrier duplicates, which do not affect visibility). *)
let merge (a : t) (b : t) : t =
  let entries =
    EM.union (fun _ ea eb -> Some (merge_entry ea eb)) a.entries b.entries
  in
  let wild =
    List.fold_left
      (fun acc (sel, vv) ->
        if
          List.exists
            (fun (sel', vv') -> sel' == sel && Vclock.equal vv vv')
            acc
        then acc
        else (sel, vv) :: acc)
      a.wild b.wild
  in
  { entries; wild }

(** The state fragment carrying exactly one op's effect:
    [apply s o = merge s (delta_of_op o)] for any [s] that has not yet
    observed the op. *)
let delta_of_op (o : op) : t =
  match o with
  | Add { elt; dot; vv; payload = p } ->
      let pl = match p with Some v -> Some (dot, v) | None -> None in
      {
        entries =
          EM.singleton elt
            { adds = [ { adot = dot; avv = vv } ]; removes = []; pl };
        wild = [];
      }
  | Remove { elt; vv } ->
      {
        entries = EM.singleton elt { adds = []; removes = [ vv ]; pl = None };
        wild = [];
      }
  | Remove_where { sel; vv } -> { entries = EM.empty; wild = [ (sel, vv) ] }

(** The elements a state fragment holds entries for — the only ones
    whose membership merging it can change — or [None] when it carries
    a wildcard barrier. *)
let keys (s : t) : string list option =
  if s.wild <> [] then None
  else Some (EM.fold (fun e _ acc -> e :: acc) s.entries [])

let pp ppf (s : t) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") string) (elements s)

(* ------------------------------------------------------------------ *)
(* Stability-based garbage collection                                  *)
(* ------------------------------------------------------------------ *)

(** Number of metadata records held (add records + remove barriers). *)
let metadata_size (s : t) : int =
  EM.fold
    (fun _ en acc -> acc + List.length en.adds + List.length en.removes)
    s.entries (List.length s.wild)

(** [gc ~stable s] discards remove barriers that are causally stable
    (every replica has seen them) together with the add records they
    permanently mask.  Safe because any add not yet delivered anywhere
    must be causally after a stable barrier, hence unaffected by it;
    visibility of every element is unchanged. *)
let gc ~(stable : Vclock.t) (s : t) : t =
  let stable_barrier vv = Vclock.leq vv stable in
  (* wild barriers that remain *)
  let wild_live, wild_stable =
    List.partition (fun (_, vv) -> not (stable_barrier vv)) s.wild
  in
  let entries =
    EM.filter_map
      (fun e en ->
        let removes_live, removes_stable =
          List.partition (fun vv -> not (stable_barrier vv)) en.removes
        in
        (* an add masked by a stable barrier is permanently invisible *)
        let masked a =
          List.exists (fun vv -> not (Vclock.leq vv a.avv)) removes_stable
          || List.exists
               (fun (sel, vv) ->
                 matches sel e && not (Vclock.leq vv a.avv))
               wild_stable
        in
        let adds = List.filter (fun a -> not (masked a)) en.adds in
        if adds = [] && removes_live = [] && en.pl = None then None
        else Some { en with adds; removes = removes_live })
      s.entries
  in
  { entries; wild = wild_live }
