(** Compensation Set CRDT (paper §4.2.2): an add-wins set with a size
    bound enforced by read-time compensation.

    Concurrent additions can exceed the bound (aggregation constraints
    are not I-Confluent); every {!read} detects this and produces
    compensation operations removing excess elements.  Victims are
    chosen deterministically (largest first) so replicas repairing the
    same violation independently converge; removals are idempotent. *)

type t
type op

val create : max_size:int -> t
val apply : t -> op -> t

(** The size bound of the op's source object — carried in every op so a
    replica receiving the effect before any local access creates the
    object with the real bound (not a sentinel). *)
val op_bound : op -> int

(** Live element count, possibly over the bound. *)
val size : t -> int

val mem : string -> t -> bool

(** Fold over the raw members, in no particular order. *)
val fold_members : (string -> 'a -> 'a) -> t -> 'a -> 'a

(** The elements an op names, each once — the only ones whose
    membership applying it can change. *)
val touched : op -> string list

(** Raw members, possibly over the bound (diagnostics only). *)
val raw_elements : t -> string list

(** The underlying add-wins set (diagnostics / invariant checkers). *)
val raw_set : t -> Awset.t

(** Does the raw state currently violate the bound? (What a Causal
    configuration would expose — Figure 7's red dots.) *)
val violated : t -> bool

(** Consistent read: at most [max_size] elements, plus the compensation
    ops the caller must commit with its transaction. *)
val read : t -> string list * op list

val prepare_add : ?payload:string -> t -> dot:Vclock.dot -> string -> op
val prepare_touch : t -> dot:Vclock.dot -> string -> op
val prepare_remove : t -> string -> op
val pp : Format.formatter -> t -> unit
