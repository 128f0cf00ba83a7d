(** Compensation Set CRDT (paper §4.2.2).

    Wraps an add-wins set with a size bound.  The bound can be violated
    by concurrent additions (an aggregation constraint is not
    I-Confluent); instead of preventing this, every {e read} checks the
    constraint and, when violated, produces compensation operations that
    remove excess elements.  The victims are chosen deterministically
    (largest element first) so that replicas that observe the same
    violation independently pick the same victims and converge; removal
    of an already-removed element is a no-op, making the compensation
    idempotent.

    [read] returns the consistent view (never more than [max_size]
    elements) together with the compensation ops the caller must commit
    with its transaction — "the effects of the compensation are committed
    alongside the effects of the operation that accessed the set". *)

type t = { set : Awset.t; max_size : int }

(** Every op carries the source object's bound so a replica receiving
    the effect before any local access can create the object with the
    real bound instead of a sentinel (which would silently weaken the
    invariant until the first local read). *)
type op = Set_op of { o : Awset.op; bound : int }

let create ~(max_size : int) : t = { set = Awset.empty; max_size }

let apply (c : t) (Set_op { o; bound = _ } : op) : t =
  (* the local object's bound is authoritative; the carried bound only
     matters at remote-first creation (see Replica.apply_update) *)
  { c with set = Awset.apply c.set o }

(** The size bound the op's source object was created with. *)
let op_bound (Set_op { bound; _ } : op) : int = bound

let size (c : t) : int = Awset.size c.set
let mem e (c : t) : bool = Awset.mem e c.set

(** Fold over the raw members, in no particular order. *)
let fold_members (f : string -> 'a -> 'a) (c : t) (acc : 'a) : 'a =
  Awset.fold_members f c.set acc

(** The elements an op names, each once — the only ones whose
    membership applying it can change. *)
let touched (Set_op { o; _ } : op) : string list = Awset.touched o

(** Raw elements, possibly over the bound (diagnostics only). *)
let raw_elements (c : t) : string list = Awset.elements c.set

(** The underlying add-wins set (diagnostics / invariant checkers). *)
let raw_set (c : t) : Awset.t = c.set

(** Whether the underlying state currently violates the bound — the
    signal counted as an "invariant violation" when no compensation runs
    (Figure 7's red dots for the Causal configuration). *)
let violated (c : t) : bool = size c > c.max_size

(** Consistent read: the visible elements (at most [max_size], smallest
    elements kept) and the compensation ops that repair any violation.
    The caller commits the ops in its transaction. *)
let read (c : t) : string list * op list =
  let elems = Awset.elements c.set in
  let n = List.length elems in
  if n <= c.max_size then (elems, [])
  else begin
    (* deterministic victims: the largest elements beyond the bound *)
    let sorted_desc = List.rev elems in
    let rec take k = function
      | [] -> []
      | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
    in
    let victims = take (n - c.max_size) sorted_desc in
    let comp_ops =
      List.map
        (fun v ->
          Set_op { o = Awset.prepare_remove c.set v; bound = c.max_size })
        victims
    in
    (List.filter (fun e -> not (List.mem e victims)) elems, comp_ops)
  end

(* prepare proxies *)
let prepare_add ?payload (c : t) ~dot e : op =
  Set_op { o = Awset.prepare_add ?payload c.set ~dot e; bound = c.max_size }

let prepare_touch (c : t) ~dot e : op =
  Set_op { o = Awset.prepare_touch c.set ~dot e; bound = c.max_size }

let prepare_remove (c : t) e : op =
  Set_op { o = Awset.prepare_remove c.set e; bound = c.max_size }

let pp ppf (c : t) =
  Fmt.pf ppf "%a (bound %d)" Awset.pp c.set c.max_size
