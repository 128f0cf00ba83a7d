(** Op-based PN-counter: concurrent increments and decrements commute.

    The downstream effect carries the origin replica and the delta; state
    tracks per-replica positive and negative totals so the value is
    well-defined under any causal delivery order.

    The per-replica totals live in small parallel arrays scanned
    linearly: real deployments have a handful of replicas, and for that
    size an array scan plus one small copy per applied effect is several
    times cheaper than rebuilding a balanced-map path (the apply path
    runs once per update per replica, so this is the store's hottest
    allocation site).  Entry order is arrival order; no observable
    depends on it ([value], [quick_value] and [pp] are order-free). *)

type t = {
  reps : string array;  (** replica ids, in first-seen order *)
  pos : int array;  (** positive total per replica (parallel to [reps]) *)
  neg : int array;  (** negative total per replica (parallel to [reps]) *)
  total : int;
      (** maintained [Σpos − Σneg] aggregate: every applied delta is
          commutative, so converged replicas agree on it exactly as they
          do on the per-replica totals.  Read through {!quick_value};
          the reference {!value} keeps folding the arrays so the two
          stay independent *)
}

type op = Delta of { rep : string; d : int }

let empty : t = { reps = [||]; pos = [||]; neg = [||]; total = 0 }

let value (c : t) : int =
  Array.fold_left ( + ) 0 c.pos - Array.fold_left ( + ) 0 c.neg

(** The maintained aggregate — always equal to {!value}, in O(1) instead
    of a fold.  Hot digest paths use this; reference renderings keep
    calling {!value}. *)
let quick_value (c : t) : int = c.total

let prepare (_ : t) ~(rep : string) (d : int) : op = Delta { rep; d }
let op_rep (Delta { rep; _ } : op) : string = rep
let op_delta (Delta { d; _ } : op) : int = d

(* index of [rep]'s entry, or -1 *)
let find (c : t) (rep : string) : int =
  let n = Array.length c.reps in
  let rec go i =
    if i = n then -1 else if String.equal c.reps.(i) rep then i else go (i + 1)
  in
  go 0

(* copy [a] with slot [i] bumped by [d] *)
let bump (a : int array) (i : int) (d : int) : int array =
  let a' = Array.copy a in
  a'.(i) <- a'.(i) + d;
  a'

(* append one entry to every parallel array *)
let extend (c : t) (rep : string) ~(pos : int) ~(neg : int) : t =
  {
    c with
    reps = Array.append c.reps [| rep |];
    pos = Array.append c.pos [| pos |];
    neg = Array.append c.neg [| neg |];
  }

let apply (c : t) (Delta { rep; d } : op) : t =
  let i = find c rep in
  let total = c.total + d in
  if i >= 0 then
    if d >= 0 then { c with pos = bump c.pos i d; total }
    else { c with neg = bump c.neg i (-d); total }
  else if d >= 0 then { (extend c rep ~pos:d ~neg:0) with total }
  else { (extend c rep ~pos:0 ~neg:(-d)) with total }

(* ------------------------------------------------------------------ *)
(* Delta-state view                                                    *)
(* ------------------------------------------------------------------ *)

(** Join two states by pointwise maximum of each replica's positive and
    negative totals.  Sound because each slot is written only by its
    owning replica and grows monotonically under FIFO application, so
    the larger total is always the later one.  Commutative, associative,
    idempotent. *)
let merge (a : t) (b : t) : t =
  let c = ref a in
  Array.iteri
    (fun j rep ->
      let i = find !c rep in
      if i >= 0 then begin
        let cur = !c in
        let pos = Array.copy cur.pos and neg = Array.copy cur.neg in
        pos.(i) <- max pos.(i) b.pos.(j);
        neg.(i) <- max neg.(i) b.neg.(j);
        c := { cur with pos; neg }
      end
      else c := extend !c rep ~pos:b.pos.(j) ~neg:b.neg.(j))
    b.reps;
  let r = !c in
  { r with total = Array.fold_left ( + ) 0 r.pos - Array.fold_left ( + ) 0 r.neg }

let pp ppf c = Fmt.int ppf (value c)
