(** Op-based remove-wins set with wildcard removes (paper §4.2.1).

    Dual of {!Awset}: when an add and a remove of the same element are
    concurrent, the remove wins.  An add is visible only if every remove
    of the element happened strictly before it (the add's source had
    observed the remove).  The wildcard remove clears the whole object:
    it installs a {e barrier} that cancels every add it does not
    causally follow — including adds performed concurrently at other
    replicas — which is exactly the semantics needed for
    [enrolled( *, t) := false] on the object keyed by [t] (Figure 2c).

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

type t = {
  entries : entry EM.t;
  clears : Vclock.t list;  (** whole-object remove barriers *)
}

type op =
  | Add of { elt : string; dot : Vclock.dot; vv : Vclock.t; payload : string option }
  | Remove of { elt : string; vv : Vclock.t }
  | Remove_all of { vv : Vclock.t }

let empty : t = { entries = EM.empty; clears = [] }

let entry_of (s : t) e =
  match EM.find_opt e s.entries with
  | Some en -> en
  | None -> { adds = []; removes = []; pl = None }

(* an add survives iff every remove barrier affecting the element
   happened-before the add *)
let rec all_before avv = function
  | [] -> true
  | rvv :: rest -> Vclock.leq rvv avv && all_before avv rest

let visible (s : t) (e : string) (a : add_rec) : bool =
  all_before a.avv (entry_of s e).removes && all_before a.avv s.clears

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

let prepare_remove_all (_ : t) ~(vv : Vclock.t) : op = Remove_all { vv }

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
  | Remove_all { vv } -> { s with clears = vv :: s.clears }

(** The element an op names — the only one whose membership applying
    it can change — or [None] for a clear, whose barrier can hide any
    element. *)
let touched (o : op) : string list option =
  match o with
  | Add { elt; _ } | Remove { elt; _ } -> Some [ elt ]
  | Remove_all _ -> None

(* ------------------------------------------------------------------ *)
(* Delta-state view                                                    *)
(* ------------------------------------------------------------------ *)

(* The state already carries full causal metadata (per-add source
   clocks, explicit barriers), so the join is a deduplicating union. *)

let union_vvs (a : Vclock.t list) (b : Vclock.t list) : Vclock.t list =
  List.fold_left
    (fun acc vv -> if List.exists (Vclock.equal vv) acc then acc else vv :: acc)
    a b

let merge_entry (ea : entry) (eb : entry) : entry =
  let adds =
    List.fold_left
      (fun acc a ->
        if List.exists (fun x -> Vclock.dot_compare x.adot a.adot = 0) acc
        then acc
        else a :: acc)
      ea.adds eb.adds
  in
  {
    adds;
    removes = union_vvs ea.removes eb.removes;
    pl = merge_payload ea.pl eb.pl;
  }

(** Join two states — commutative, associative, idempotent. *)
let merge (a : t) (b : t) : t =
  {
    entries =
      EM.union (fun _ ea eb -> Some (merge_entry ea eb)) a.entries b.entries;
    clears = union_vvs a.clears b.clears;
  }

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
        clears = [];
      }
  | Remove { elt; vv } ->
      {
        entries = EM.singleton elt { adds = []; removes = [ vv ]; pl = None };
        clears = [];
      }
  | Remove_all { vv } -> { entries = EM.empty; clears = [ vv ] }

(** The elements a state fragment holds entries for — the only ones
    whose membership merging it can change — or [None] when it carries
    a clear barrier. *)
let keys (s : t) : string list option =
  if s.clears <> [] then None
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
    s.entries (List.length s.clears)

(** [gc ~stable s] discards remove barriers that are causally stable
    (every replica has seen them) together with the add records they
    permanently mask.  Safe because any add not yet delivered anywhere
    must be causally after a stable barrier, hence unaffected by it;
    visibility of every element is unchanged. *)
let gc ~(stable : Vclock.t) (s : t) : t =
  let unstable vv = not (Vclock.leq vv stable) in
  let clears_live, clears_stable = List.partition unstable s.clears in
  let entries =
    EM.filter_map
      (fun _ en ->
        let removes_live, removes_stable = List.partition unstable en.removes in
        (* an add masked by a stable barrier is permanently invisible *)
        let adds =
          List.filter
            (fun a ->
              all_before a.avv removes_stable
              && all_before a.avv clears_stable)
            en.adds
        in
        if adds = [] && removes_live = [] && en.pl = None then None
        else Some { en with adds; removes = removes_live })
      s.entries
  in
  { entries; clears = clears_live }
