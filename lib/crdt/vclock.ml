(** Vector clocks and dots.

    The replicated store tags every update batch with the origin's vector
    clock; CRDT conflict resolution (add-wins / rem-wins) compares these
    to decide causality between concurrent operations.

    Representation: a clock is a flat int array indexed by the replica's
    {!Intern.Rep} id — [merge], [leq] and [get] (executed on every
    commit, delivery and stability computation) are short array walks
    instead of string-map operations.  The replica-id namespace is
    separate from the key namespace precisely so these arrays stay as
    short as the replica population: indexing by a shared namespace once
    let a late-interned replica id pad every clock to keyspace width.  Absent entries and entries beyond an array's
    physical length read as zero; trailing zeros are permitted, so two
    arrays of different length can denote the same clock (all comparisons
    account for this).  Arrays are never mutated after construction,
    which makes sharing between clocks safe — [merge] returns one of its
    arguments unchanged whenever it dominates the other.  The public API
    stays string-based; interning happens at the edges. *)

(** A vector clock: {!Intern.Rep} id → number of events observed. *)
type t = int array

(** A dot: one specific event of one replica. *)
type dot = { rep : string; cnt : int }

let empty : t = [||]

let get (vv : t) (rep : string) : int =
  match Intern.Rep.find rep with
  | None -> 0
  | Some i -> if i < Array.length vv then vv.(i) else 0

let set (vv : t) (rep : string) (n : int) : t =
  let i = Intern.Rep.id rep in
  let len = max (Array.length vv) (i + 1) in
  let a = Array.make len 0 in
  Array.blit vv 0 a 0 (Array.length vv);
  a.(i) <- n;
  a

(** Record the next event of [rep]; returns the new clock and the dot of
    the event. *)
let tick (vv : t) (rep : string) : t * dot =
  let n = get vv rep + 1 in
  (set vv rep n, { rep; cnt = n })

(** [leq a b] — every event in [a] is in [b] (a ≼ b). *)
let leq (a : t) (b : t) : bool =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    i >= la || (a.(i) <= (if i < lb then b.(i) else 0) && go (i + 1))
  in
  go 0

(** Pointwise maximum.  Returns a dominating argument unchanged (no
    allocation) — the common case when applying causally-ordered
    batches. *)
let merge (a : t) (b : t) : t =
  if leq a b then b
  else if leq b a then a
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (max la lb) 0 in
    for i = 0 to Array.length r - 1 do
      let x = if i < la then a.(i) else 0
      and y = if i < lb then b.(i) else 0 in
      r.(i) <- max x y
    done;
    r
  end

(** Pointwise minimum (entries absent in either side read as zero) —
    the causal-stability cut computation. *)
let min_pointwise (a : t) (b : t) : t =
  let l = min (Array.length a) (Array.length b) in
  if l = Array.length a && leq a b then a
  else if l = Array.length b && leq b a then b
  else Array.init l (fun i -> min a.(i) b.(i))

let equal (a : t) (b : t) : bool = leq a b && leq b a

(** Strict happened-before. *)
let lt (a : t) (b : t) : bool = leq a b && not (leq b a)

type ordering = Before | After | Equal | Concurrent

let compare_vv (a : t) (b : t) : ordering =
  match (leq a b, leq b a) with
  | true, true -> Equal
  | true, false -> Before
  | false, true -> After
  | false, false -> Concurrent

let concurrent (a : t) (b : t) : bool = compare_vv a b = Concurrent

(** Does the clock contain the dot? *)
let contains (vv : t) (d : dot) : bool = get vv d.rep >= d.cnt

(** Sum of all entries (event count) — used as a cheap progress metric. *)
let total (vv : t) : int = Array.fold_left ( + ) 0 vv

let to_list (vv : t) : (string * int) list =
  let l = ref [] in
  for i = Array.length vv - 1 downto 0 do
    if vv.(i) <> 0 then l := (Intern.Rep.name i, vv.(i)) :: !l
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !l

let of_list (l : (string * int) list) : t =
  List.fold_left (fun vv (r, n) -> set vv r n) empty l

let pp ppf (vv : t) =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") string int))
    (to_list vv)

let dot_compare (a : dot) (b : dot) = compare (a.rep, a.cnt) (b.rep, b.cnt)

module DotSet = Set.Make (struct
  type t = dot

  let compare = dot_compare
end)
