(** Store objects: a uniform wrapper over the CRDT library so replicas
    can hold heterogeneous objects and route downstream effects by key.
    Each object is created with an {!otype} descriptor — the per-object
    conflict-resolution choice of the paper's system model (§2.1). *)

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

(** A joinable state fragment.  Only the set CRDTs ship true deltas
    (their fragments carry the causal metadata that makes the join
    idempotent); counter and register ops are additive or tiny, so a
    compacted interval carries those as summed or raw ops instead.  A
    counter fragment is a full-state repair's whole counter. *)
and delta =
  | D_awset of Awset.t
  | D_rwset of Rwset.t
  | D_pncounter of Pncounter.t

exception Type_mismatch of string

val init : otype -> t

(** Apply a downstream effect ([Op_join] joins its fragment into the
    state); raises {!Type_mismatch} when the op does not match the
    object's type. *)
val apply : t -> op -> t

(** {1 State fragments} *)

(** Join two deltas of the same key (log compaction). *)
val join_deltas : delta -> delta -> delta

(** The whole state viewed as one big fragment (set and counter types
    only) — what full-state repair ships. *)
val as_delta : t -> delta option

(** The object type a fragment joins into. *)
val delta_otype : delta -> otype

(** {1 Typed accessors} (raise {!Type_mismatch} on the wrong variant) *)

val as_awset : t -> Awset.t
val as_rwset : t -> Rwset.t
val as_pncounter : t -> Pncounter.t
val as_bcounter : t -> Bcounter.t
val as_lww : t -> Lww.t
val as_mvreg : t -> Mvreg.t
val as_compset : t -> Compset.t
val as_compcounter : t -> Compcounter.t
