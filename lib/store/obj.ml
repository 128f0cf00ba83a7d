(** Store objects: a uniform wrapper over the CRDT library so replicas
    can hold heterogeneous objects and route downstream effects by key.

    Each object is created with a {!otype} descriptor (the per-object
    conflict-resolution choice of the paper's system model §2.1). *)

open Ipa_crdt

type t =
  | O_awset of Awset.t
  | O_rwset of Rwset.t
  | O_pncounter of Pncounter.t
  | O_bcounter of Bcounter.t
  | O_lww of Lww.t
  | O_mvreg of Mvreg.t
  | O_compset of Compset.t
  | O_compcounter of Compcounter.t

(** Object type descriptors, fixing the conflict-resolution policy. *)
type otype =
  | T_awset
  | T_rwset
  | T_pncounter
  | T_bcounter
  | T_lww
  | T_mvreg
  | T_compset of { max_size : int }
  | T_compcounter of { min_value : int }

type op =
  | Op_awset of Awset.op
  | Op_rwset of Rwset.op
  | Op_pncounter of Pncounter.op
  | Op_bcounter of Bcounter.op
  | Op_lww of Lww.op
  | Op_mvreg of Mvreg.op
  | Op_compset of Compset.op
  | Op_compcounter of Compcounter.op
  | Op_join of delta
      (** a joined state fragment: the set effects of a compacted log
          interval, or a full-state repair's rendered value *)

(** A joinable state fragment.  Only the set CRDTs ship true deltas:
    their fragments carry causal metadata (dots / contexts / barriers)
    that makes the join idempotent.  Counter and register ops are
    additive or already tiny, so a compacted interval carries them as
    (summed) ops instead; a counter fragment is a full-state repair's
    whole counter. *)
and delta =
  | D_awset of Awset.t
  | D_rwset of Rwset.t
  | D_pncounter of Pncounter.t

exception Type_mismatch of string

let init (ty : otype) : t =
  match ty with
  | T_awset -> O_awset Awset.empty
  | T_rwset -> O_rwset Rwset.empty
  | T_pncounter -> O_pncounter Pncounter.empty
  | T_bcounter -> O_bcounter Bcounter.empty
  | T_lww -> O_lww Lww.empty
  | T_mvreg -> O_mvreg Mvreg.empty
  | T_compset { max_size } -> O_compset (Compset.create ~max_size)
  | T_compcounter { min_value } -> O_compcounter (Compcounter.create ~min_value ())

let apply (o : t) (op : op) : t =
  match (o, op) with
  | O_awset s, Op_awset x -> O_awset (Awset.apply s x)
  | O_rwset s, Op_rwset x -> O_rwset (Rwset.apply s x)
  | O_pncounter s, Op_pncounter x -> O_pncounter (Pncounter.apply s x)
  | O_bcounter s, Op_bcounter x -> O_bcounter (Bcounter.apply s x)
  | O_lww s, Op_lww x -> O_lww (Lww.apply s x)
  | O_mvreg s, Op_mvreg x -> O_mvreg (Mvreg.apply s x)
  | O_compset s, Op_compset x -> O_compset (Compset.apply s x)
  | O_compcounter s, Op_compcounter x -> O_compcounter (Compcounter.apply s x)
  | O_awset s, Op_join (D_awset f) -> O_awset (Awset.merge s f)
  | O_rwset s, Op_join (D_rwset f) -> O_rwset (Rwset.merge s f)
  | O_pncounter s, Op_join (D_pncounter f) -> O_pncounter (Pncounter.merge s f)
  | _ -> raise (Type_mismatch "Obj.apply: op does not match object type")

(** Join two deltas of the same key (log compaction). *)
let join_deltas (a : delta) (b : delta) : delta =
  match (a, b) with
  | D_awset x, D_awset y -> D_awset (Awset.merge x y)
  | D_rwset x, D_rwset y -> D_rwset (Rwset.merge x y)
  | D_pncounter x, D_pncounter y -> D_pncounter (Pncounter.merge x y)
  | _ -> raise (Type_mismatch "Obj.join_deltas: mismatched deltas")

(** The whole state viewed as one big fragment (set and counter types
    only) — what full-state repair ships. *)
let as_delta (o : t) : delta option =
  match o with
  | O_awset s -> Some (D_awset s)
  | O_rwset s -> Some (D_rwset s)
  | O_pncounter s -> Some (D_pncounter s)
  | _ -> None

let delta_otype (d : delta) : otype =
  match d with
  | D_awset _ -> T_awset
  | D_rwset _ -> T_rwset
  | D_pncounter _ -> T_pncounter

(* typed accessors *)
let as_awset = function O_awset s -> s | _ -> raise (Type_mismatch "awset")
let as_rwset = function O_rwset s -> s | _ -> raise (Type_mismatch "rwset")

let as_pncounter = function
  | O_pncounter s -> s
  | _ -> raise (Type_mismatch "pncounter")

let as_bcounter = function
  | O_bcounter s -> s
  | _ -> raise (Type_mismatch "bcounter")

let as_lww = function O_lww s -> s | _ -> raise (Type_mismatch "lww")
let as_mvreg = function O_mvreg s -> s | _ -> raise (Type_mismatch "mvreg")

let as_compset = function
  | O_compset s -> s
  | _ -> raise (Type_mismatch "compset")

let as_compcounter = function
  | O_compcounter s -> s
  | _ -> raise (Type_mismatch "compcounter")
