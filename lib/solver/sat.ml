(** A CDCL SAT solver.

    This replaces the Z3 SMT solver used by the paper's prototype: the IPA
    analysis only needs satisfiability of ground formulas over small finite
    domains (see DESIGN.md §2), which {!Encode} reduces to propositional
    CNF solved here.

    Features: two-watched-literal unit propagation, first-UIP conflict
    analysis with clause learning, an activity-windowed rotating decision
    cursor, phase saving, geometric restarts, and activity-based
    learnt-clause DB reduction.  The solver is incremental: clauses and
    variables may be added between [solve] calls (model enumeration via
    blocking clauses), and [solve ~assumptions] decides the clauses under
    temporary unit assumptions, so one instance answers a sequence of
    queries over a shared clause set with its learnt clauses kept
    (the analysis frames of DESIGN.md §2).

    Layout: inside the solver a literal [+v]/[-v] is coded [2v]/[2v+1],
    so negation is [lxor 1] and the code indexes the per-literal value
    and watch arrays directly.  A clause is an int id into a flat arena:
    its coded literals sit back to back in [arena] from [cstart.(c)] for
    [clen.(c)] entries, and its activity is [cact.(c)].  Watch lists, the
    learnt list, reasons and decision-level boundaries are int vectors or
    int arrays, so the search loop allocates nothing but vector growth.

    Exact replay: the search (decisions, conflicts, learnt clauses and
    their literal order) is the one the list-based solver in
    [test/sat_ref.ml] makes, and the analysis reports pin it, since every
    SAT model becomes a witness.  The rules that keep it so are noted
    where they apply: watch-list visit order, the literal 0/1 swap on
    every visit, the learnt clause's second watch and [reduce_db]'s sort
    input order. *)

(** A literal: [+v] for the positive literal of variable [v >= 1],
    [-v] for its negation. *)
type lit = int

type result = Sat | Unsat

(* A growable int vector.  Watch lists and the learnt list are stacks
   whose top ([data.(size - 1)]) is the head of the list the reference
   solver keeps, so "prepend" is [push]. *)
type vec = { mutable data : int array; mutable size : int }

let vec () = { data = [||]; size = 0 }

let push v x =
  if v.size = Array.length v.data then begin
    let d = Array.make (max 4 (2 * v.size)) 0 in
    Array.blit v.data 0 d 0 v.size;
    v.data <- d
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

type t = {
  mutable nvars : int;
  mutable hwm : int;  (** highest variable sized for since the last scrub *)
  mutable n_orig : int;  (** original clauses of >= 2 literals *)
  (* clause arena *)
  mutable arena : int array;  (** literal codes *)
  mutable arena_len : int;
  mutable cstart : int array;
  mutable clen : int array;
  mutable cact : float array;
  mutable n_cls : int;  (** clause ids handed out *)
  learnts : vec;  (** live learnt clause ids *)
  mutable max_learnts : int;  (** reduce the learnt DB past this size *)
  mutable learnts_total : int;  (** learnt clauses ever created *)
  mutable learnts_removed : int;  (** learnt clauses deleted by reduction *)
  mutable value : int array;
      (** by literal code: -1 unassigned, 0 false, 1 true *)
  (* var-indexed state; index 0 unused *)
  mutable level : int array;
  mutable reason : int array;  (** clause id, -1 = none *)
  mutable activity : float array;
  mutable phase : bool array;  (** saved phase *)
  mutable seen : bool array;  (** [analyze]'s marks; all false between calls *)
  mutable watches : vec array;  (** by literal code *)
  mutable wscratch : int array;  (** copy of the watch list being visited *)
  lbuf : vec;  (** the learnt clause [analyze] builds *)
  mutable trail : int array;  (** literal codes *)
  mutable trail_len : int;
  trail_lim : vec;  (** trail length at the start of each decision level *)
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;  (** false once a top-level conflict was derived *)
  mutable true_lit : int;  (** lazily allocated always-true literal; 0 = none *)
  mutable next_var_hint : int;  (** rotating cursor for decisions *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
}

(* the code of a literal: +v is 2v, -v is 2v+1 *)
let code (l : lit) = if l > 0 then 2 * l else (-2 * l) + 1
let var x = x lsr 1

let fresh () =
  {
    nvars = 0;
    hwm = 0;
    n_orig = 0;
    arena = Array.make 64 0;
    arena_len = 0;
    cstart = Array.make 16 0;
    clen = Array.make 16 0;
    cact = Array.make 16 0.0;
    n_cls = 0;
    learnts = vec ();
    max_learnts = 0;
    learnts_total = 0;
    learnts_removed = 0;
    value = Array.make 32 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    watches = Array.init 32 (fun _ -> vec ());
    wscratch = Array.make 16 0;
    lbuf = vec ();
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = vec ();
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    true_lit = 0;
    next_var_hint = 1;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
  }

(* ------------------------------------------------------------------ *)
(* Per-domain instance recycling                                       *)
(*                                                                     *)
(* The analysis allocates a solver per witness query and per analysis  *)
(* frame, evicting frames as it goes, and the dominant allocation cost *)
(* is the var-indexed arrays, which grow to the same grounded-formula  *)
(* size solver after solver.  Each worker domain keeps a small free    *)
(* list of released instances; [create] pops one and [release] scrubs  *)
(* every field back to its [fresh] default, so a recycled solver is    *)
(* observationally identical to a new one (capacity is the only        *)
(* difference, and capacity is invisible: arrays grow on demand and    *)
(* nothing reads past the variables, clauses or trail entries in use). *)
(* The list is domain-local (DLS), so recycling needs no               *)
(* synchronization and cannot leak instances across concurrent         *)
(* workers.                                                            *)
(* ------------------------------------------------------------------ *)

let pool_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let pool_max = 8

(* cross-domain counters so tests can assert recycling actually runs *)
let n_released = Atomic.make 0
let n_reused = Atomic.make 0

(** (instances accepted by [release], instances handed back out by
    [create]) over the whole process — monotone, cross-domain. *)
let recycle_stats () = (Atomic.get n_released, Atomic.get n_reused)

(* scrub every field back to the value [fresh] would give it.  Only the
   prefix up to [hwm] can differ from the default: var-indexed arrays
   are written only for variables [ensure_capacity] has seen, and grown
   arrays start at the default.  Arena, clause and scratch contents past
   their (reset) lengths are never read. *)
let scrub (s : t) : unit =
  let n = s.hwm + 1 in
  s.nvars <- 0;
  s.hwm <- 0;
  s.n_orig <- 0;
  s.arena_len <- 0;
  s.n_cls <- 0;
  s.learnts.size <- 0;
  s.max_learnts <- 0;
  s.learnts_total <- 0;
  s.learnts_removed <- 0;
  Array.fill s.value 0 (2 * n) (-1);
  Array.fill s.level 0 n 0;
  Array.fill s.reason 0 n (-1);
  Array.fill s.activity 0 n 0.0;
  Array.fill s.phase 0 n false;
  Array.fill s.seen 0 n false;
  for i = 0 to (2 * n) - 1 do
    s.watches.(i).size <- 0
  done;
  s.lbuf.size <- 0;
  s.trail_len <- 0;
  s.trail_lim.size <- 0;
  s.qhead <- 0;
  s.var_inc <- 1.0;
  s.cla_inc <- 1.0;
  s.ok <- true;
  s.true_lit <- 0;
  s.next_var_hint <- 1;
  s.conflicts <- 0;
  s.decisions <- 0;
  s.propagations <- 0

(** Return a finished solver to this domain's free list (after reading
    any stats/model — release wipes them).  The instance must not be
    used again by the caller; a later [create] on the same domain may
    hand it back out, scrubbed to a fresh-equivalent state. *)
let release (s : t) : unit =
  scrub s;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < pool_max then begin
    pool := s :: !pool;
    Atomic.incr n_released
  end

let create () =
  let pool = Domain.DLS.get pool_key in
  match !pool with
  | s :: rest ->
      pool := rest;
      Atomic.incr n_reused;
      s
  | [] -> fresh ()

let ensure_capacity s n =
  if n > s.hwm then s.hwm <- n;
  let cap = Array.length s.level in
  if n >= cap then begin
    let ncap = max (n + 1) (2 * cap) in
    let grow a def =
      let b = Array.make ncap def in
      Array.blit a 0 b 0 cap;
      b
    in
    let nv = Array.make (2 * ncap) (-1) in
    Array.blit s.value 0 nv 0 (2 * cap);
    s.value <- nv;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.activity <- grow s.activity 0.0;
    s.phase <- grow s.phase false;
    s.seen <- grow s.seen false;
    s.trail <- grow s.trail 0;
    let wcap = Array.length s.watches in
    if 2 * n + 1 >= wcap then
      s.watches <-
        Array.init (max (2 * n + 2) (2 * wcap)) (fun i ->
            if i < wcap then s.watches.(i) else vec ())
  end

(** Allocate a fresh variable, returning its index ([>= 1]). *)
let new_var s =
  s.nvars <- s.nvars + 1;
  ensure_capacity s s.nvars;
  s.nvars

let decision_level s = s.trail_lim.size

(* Append a clause of [n] literals, written by [fill] at arena offset
   [st], and return its id. *)
let new_clause s n act (fill : int -> unit) : int =
  let st = s.arena_len in
  if st + n > Array.length s.arena then begin
    let a = Array.make (max (st + n) (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 st;
    s.arena <- a
  end;
  fill st;
  s.arena_len <- st + n;
  let c = s.n_cls in
  if c = Array.length s.cstart then begin
    let grow a def =
      let b = Array.make (2 * c) def in
      Array.blit a 0 b 0 c;
      b
    in
    s.cstart <- grow s.cstart 0;
    s.clen <- grow s.clen 0;
    s.cact <- grow s.cact 0.0
  end;
  s.cstart.(c) <- st;
  s.clen.(c) <- n;
  s.cact.(c) <- act;
  s.n_cls <- c + 1;
  c

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* Original clauses carry an activity too and are bumped when analysis
   meets them, but only learnt clauses are rescaled: an original clause
   past 1e20 rescales the learnts on every later bump, as in the
   reference solver. *)
let cla_bump s c =
  s.cact.(c) <- s.cact.(c) +. s.cla_inc;
  if s.cact.(c) > 1e20 then begin
    for i = 0 to s.learnts.size - 1 do
      let d = s.learnts.data.(i) in
      s.cact.(d) <- s.cact.(d) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

let enqueue s x (from : int) =
  let v = var x in
  s.value.(x) <- 1;
  s.value.(x lxor 1) <- 0;
  s.level.(v) <- s.trail_lim.size;
  s.reason.(v) <- from;
  s.phase.(v) <- x land 1 = 0;
  s.trail.(s.trail_len) <- x;
  s.trail_len <- s.trail_len + 1

(* Propagate all enqueued facts.  Returns the conflicting clause, or -1.

   Visit order is the reference solver's: the watchers of the falsified
   literal are visited top first (list head first); survivors are pushed
   back in visit order, so the list reverses on each visit; a clause
   that moves its watch is pushed on the new literal's list; on a
   conflict the unvisited rest goes back on top of the survivors. *)
let propagate s : int =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_len do
    let x = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* clauses watching ¬x must be inspected *)
    let falsified = x lxor 1 in
    let value = s.value in
    let w = s.watches.(falsified) in
    let n = w.size in
    if Array.length s.wscratch < n then s.wscratch <- Array.make (2 * n) 0;
    let ws = s.wscratch in
    Array.blit w.data 0 ws 0 n;
    w.size <- 0;
    let i = ref (n - 1) in
    while !i >= 0 && !confl < 0 do
      let c = ws.(!i) in
      decr i;
      let arena = s.arena in
      let st = s.cstart.(c) in
      (* make sure the falsified literal is at position 1 *)
      if arena.(st) = falsified then begin
        arena.(st) <- arena.(st + 1);
        arena.(st + 1) <- falsified
      end;
      let first = arena.(st) in
      if value.(first) = 1 then (* clause satisfied; keep watching *)
        push w c
      else begin
        (* search a new literal to watch *)
        let stop = st + s.clen.(c) in
        let k = ref (st + 2) in
        while !k < stop && value.(arena.(!k)) = 0 do
          incr k
        done;
        if !k < stop then begin
          let lk = arena.(!k) in
          arena.(st + 1) <- lk;
          arena.(!k) <- falsified;
          push s.watches.(lk) c
        end
        else begin
          (* unit or conflicting *)
          push w c;
          if value.(first) = 0 then begin
            confl := c;
            s.qhead <- s.trail_len
          end
          else enqueue s first c
        end
      end
    done;
    (* keep the watchers a conflict left unvisited *)
    for j = 0 to !i do
      push w ws.(j)
    done
  done;
  !confl

let attach_clause s c =
  push s.watches.(s.arena.(s.cstart.(c))) c;
  push s.watches.(s.arena.(s.cstart.(c) + 1)) c

let detach_clause s c =
  let rm x =
    let w = s.watches.(x) in
    let k = ref 0 in
    for i = 0 to w.size - 1 do
      let d = w.data.(i) in
      if d <> c then begin
        w.data.(!k) <- d;
        incr k
      end
    done;
    w.size <- !k
  in
  rm s.arena.(s.cstart.(c));
  rm s.arena.(s.cstart.(c) + 1)

(* a clause currently acting as the reason of an assignment must not be
   deleted: conflict analysis may still traverse it *)
let locked s c = s.reason.(var s.arena.(s.cstart.(c))) = c

(** Activity-based learnt-clause DB reduction: drop the low-activity half
    of the learnt clauses (keeping locked and binary ones) so the DB —
    and unit-propagation cost — stays bounded on long searches.  The
    sort (a heap sort, so not stable) sees the learnts newest first, the
    reference solver's list order, so ties break the same way. *)
let reduce_db s =
  let l = s.learnts in
  let n = l.size in
  let arr = Array.init n (fun i -> l.data.(n - 1 - i)) in
  Array.sort (fun a b -> Float.compare s.cact.(a) s.cact.(b)) arr;
  l.size <- 0;
  Array.iteri
    (fun i c ->
      if i >= n / 2 || s.clen.(c) <= 2 || locked s c then push l c
      else begin
        detach_clause s c;
        s.learnts_removed <- s.learnts_removed + 1
      end)
    arr;
  (* geometric growth of the allowance, so reductions stay rare *)
  s.max_learnts <- s.max_learnts + (s.max_learnts / 2)

(** Add a clause (list of literals). Must be called at decision level 0
    (i.e. before or between [solve] calls). *)
let add_clause s (lits : lit list) =
  if s.ok then begin
    (* simplify: dedupe, drop false lits, detect tautology / satisfied *)
    let lits = List.sort_uniq compare lits in
    let taut =
      List.exists (fun l -> List.mem (-l) lits) lits
      || List.exists (fun l -> s.value.(code l) = 1) lits
    in
    if not taut then begin
      let lits = List.filter (fun l -> s.value.(code l) <> 0) lits in
      List.iter (fun l -> ensure_capacity s (abs l)) lits;
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          enqueue s (code l) (-1);
          if propagate s >= 0 then s.ok <- false
      | _ ->
          let c =
            new_clause s (List.length lits) 0.0 (fun st ->
                List.iteri (fun i l -> s.arena.(st + i) <- code l) lits)
          in
          s.n_orig <- s.n_orig + 1;
          attach_clause s c
    end
  end

(* backtrack to a given decision level *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    (* trail length at the start of level lvl+1 *)
    let b = s.trail_lim.data.(lvl) in
    for i = s.trail_len - 1 downto b do
      let x = s.trail.(i) in
      s.value.(x) <- -1;
      s.value.(x lxor 1) <- -1;
      s.reason.(var x) <- -1
    done;
    s.trail_len <- b;
    s.qhead <- b;
    s.trail_lim.size <- lvl
  end

(* First-UIP conflict analysis.  Leaves the learnt clause in [lbuf]
   (slot 0 the asserting literal, then the lower-level literals in the
   reverse of their discovery order) and returns the backtrack level.
   Reason literals are read in arena order. *)
let analyze s (confl : int) : int =
  let lbuf = s.lbuf in
  lbuf.size <- 0;
  push lbuf 0;
  let counter = ref 0 in
  let btlevel = ref 0 in
  let cur_level = decision_level s in
  let p = ref (-1) in
  (* -1 = undefined *)
  let c = ref confl in
  let idx = ref (s.trail_len - 1) in
  let continue_ = ref true in
  while !continue_ do
    (* bump + process reason clause *)
    cla_bump s !c;
    let st = s.cstart.(!c) in
    for k = st to st + s.clen.(!c) - 1 do
      let q = s.arena.(k) in
      let v = var q in
      if (not s.seen.(v)) && s.level.(v) > 0 && q <> !p then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= cur_level then incr counter
        else begin
          push lbuf q;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    (* select next literal to look at *)
    while not s.seen.(var s.trail.(!idx)) do
      decr idx
    done;
    let l = s.trail.(!idx) in
    decr idx;
    s.seen.(var l) <- false;
    decr counter;
    if !counter = 0 then begin
      lbuf.data.(0) <- l lxor 1;
      continue_ := false
    end
    else begin
      p := l;
      c := s.reason.(var l);
      assert (!c >= 0)
    end
  done;
  let d = lbuf.data and n = lbuf.size in
  for i = 1 to n - 1 do
    s.seen.(var d.(i)) <- false
  done;
  (* reverse slots 1..n-1 *)
  let i = ref 1 and j = ref (n - 1) in
  while !i < !j do
    let tmp = d.(!i) in
    d.(!i) <- d.(!j);
    d.(!j) <- tmp;
    incr i;
    decr j
  done;
  !btlevel

(* Decision heuristic: scan from a rotating cursor for the next
   unassigned variable, preferring recently-bumped (high-activity)
   variables seen in a bounded window.  This keeps decisions O(1)
   amortized on the large, mostly-easy instances produced by grounding,
   while still following conflict activity.  Returns 0 when every
   variable is assigned. *)
let pick_branch_var s : int =
  let best = ref 0 in
  let best_act = ref 0.0 in
  let scanned = ref 0 in
  let v = ref s.next_var_hint in
  let n = s.nvars in
  (* bounded scan window for an active variable *)
  while !scanned < n && (!best = 0 || !scanned < 64) do
    incr scanned;
    let cand = !v in
    v := if cand >= n then 1 else cand + 1;
    if s.value.(2 * cand) = -1 && (!best = 0 || s.activity.(cand) > !best_act)
    then begin
      best := cand;
      best_act := s.activity.(cand)
    end
  done;
  if !best <> 0 then s.next_var_hint <- !best;
  !best

(* Store the clause [analyze] left in [lbuf] as a learnt clause and
   assert its first literal. *)
let learn s =
  let d = s.lbuf.data and n = s.lbuf.size in
  if n = 1 then enqueue s d.(0) (-1)
  else begin
    let c = new_clause s n s.cla_inc (fun st -> Array.blit d 0 s.arena st n) in
    (* ensure second watched literal is from the conflict level: the
       first index at the maximal level *)
    let a = s.arena and st = s.cstart.(c) in
    let max_i = ref (st + 1) in
    for i = st + 2 to st + n - 1 do
      if s.level.(var a.(i)) > s.level.(var a.(!max_i)) then max_i := i
    done;
    let tmp = a.(st + 1) in
    a.(st + 1) <- a.(!max_i);
    a.(!max_i) <- tmp;
    push s.learnts c;
    s.learnts_total <- s.learnts_total + 1;
    attach_clause s c;
    enqueue s a.(st) c
  end

(** Decide satisfiability of the clauses added so far, under the
    [assumptions] (literals held true for this call only).  After [Sat],
    {!model_value} reads the satisfying assignment, which stays on the
    trail until {!reset}.  An [Unsat] answer caused by the assumptions
    leaves the solver usable: only a conflict at level 0 (the clauses
    themselves are unsatisfiable) marks it [Unsat] for good.

    Assumptions are decided first, one per decision level, MiniSat-style
    (Eén and Sörensson 2003): an assumption already true opens an empty
    level, one already false answers [Unsat] at once, and a backjump
    below the assumption levels re-decides them.  Restarts only fire
    above the assumption levels.  With no assumptions the loop is the
    reference solver's search, step for step. *)
let solve ?(assumptions = []) s : result =
  let assumps = Array.of_list (List.map code assumptions) in
  let n_assumps = Array.length assumps in
  cancel_until s 0;
  if not s.ok then Unsat
  else begin
    if propagate s >= 0 then s.ok <- false;
    if not s.ok then Unsat
    else begin
      if s.max_learnts = 0 then s.max_learnts <- max 256 (s.n_orig / 3);
      let status = ref None in
      let conflicts_since_restart = ref 0 in
      let restart_limit = ref 100 in
      while !status = None do
        let confl = propagate s in
        if confl >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          incr conflicts_since_restart;
          if decision_level s = 0 then begin
            s.ok <- false;
            status := Some Unsat
          end
          else begin
            let btlevel = analyze s confl in
            cancel_until s btlevel;
            learn s;
            var_decay s;
            cla_decay s;
            if s.learnts.size > s.max_learnts then reduce_db s
          end
        end
        else if
          !conflicts_since_restart >= !restart_limit
          && decision_level s > n_assumps
        then begin
          conflicts_since_restart := 0;
          restart_limit := !restart_limit * 3 / 2;
          cancel_until s 0
        end
        else if decision_level s < n_assumps then begin
          let x = assumps.(decision_level s) in
          match s.value.(x) with
          | 0 -> status := Some Unsat
          | 1 -> push s.trail_lim s.trail_len
          | _ ->
              push s.trail_lim s.trail_len;
              enqueue s x (-1)
        end
        else begin
          let v = pick_branch_var s in
          if v = 0 then status := Some Sat
          else begin
            s.decisions <- s.decisions + 1;
            push s.trail_lim s.trail_len;
            enqueue s (if s.phase.(v) then 2 * v else (2 * v) + 1) (-1)
          end
        end
      done;
      (match !status with
      | Some Sat -> ()
      | _ -> cancel_until s 0);
      match !status with Some r -> r | None -> assert false
    end
  end

(** Truth value of a literal in the model found by the last [Sat] answer.
    Unassigned variables (don't-cares) read as [false]. *)
let model_value s (l : lit) : bool = s.value.(code l) = 1

(** Reset the assignment to level 0 so further clauses can be added.
    Call after reading the model of a [Sat] answer. *)
let reset s = cancel_until s 0

type stats = {
  n_conflicts : int;
  n_decisions : int;
  n_propagations : int;
  n_learnts : int;  (** learnt clauses ever created *)
  n_removed : int;  (** learnt clauses deleted by DB reduction *)
}

let stats s =
  {
    n_conflicts = s.conflicts;
    n_decisions = s.decisions;
    n_propagations = s.propagations;
    n_learnts = s.learnts_total;
    n_removed = s.learnts_removed;
  }

let true_lit_get s = s.true_lit
let true_lit_set s v = s.true_lit <- v
let max_learnts_set s n = s.max_learnts <- n
