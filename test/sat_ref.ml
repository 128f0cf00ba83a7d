(** The list-based CDCL solver that [Ipa_solver.Sat] replaced, kept as
    the reference oracle for it.

    [Sat] is a flat-arena rewrite that must replay this solver's search
    exactly: the same decisions, conflicts and learnt clauses, so the
    same models and the same [stats].  [test_solver] runs both on the
    same inputs and compares them.  This copy is the executable
    statement of that search; change it only together with [Sat], on
    purpose, when the search itself changes.

    Features: two-watched-literal unit propagation over [clause list]
    watch lists, first-UIP conflict analysis with clause learning, an
    activity-windowed rotating decision cursor, phase saving, geometric
    restarts and activity-based learnt-clause DB reduction. *)

(** A literal: [+v] for the positive literal of variable [v >= 1],
    [-v] for its negation. *)
type lit = int

type result = Sat | Unsat

type clause = { lits : lit array; mutable activity : float }

type t = {
  mutable nvars : int;
  mutable clauses : clause list;  (** original clauses *)
  mutable learnts : clause list;
  mutable n_learnts : int;  (** live learnt clauses (length of [learnts]) *)
  mutable max_learnts : int;  (** reduce the learnt DB past this size *)
  mutable learnts_total : int;  (** learnt clauses ever created *)
  mutable learnts_removed : int;  (** learnt clauses deleted by reduction *)
  (* var-indexed state; index 0 unused *)
  mutable assign : int array;  (** -1 unassigned, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable phase : bool array;  (** saved phase *)
  mutable watches : clause list array;  (** indexed by literal encoding *)
  mutable trail : lit array;
  mutable trail_len : int;
  mutable trail_lim : int list;  (** decision level boundaries *)
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

let lit_var (l : lit) = abs l
let lit_sign (l : lit) = l > 0

(* watch-list index for a literal: positive lits at 2v, negative at 2v+1 *)
let widx (l : lit) = if l > 0 then 2 * l else (-2 * l) + 1

let fresh () =
  {
    nvars = 0;
    clauses = [];
    learnts = [];
    n_learnts = 0;
    max_learnts = 0;
    learnts_total = 0;
    learnts_removed = 0;
    assign = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 None;
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    watches = Array.make 32 [];
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = [];
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

let create = fresh

let ensure_capacity s n =
  let cap = Array.length s.assign in
  if n >= cap then begin
    let ncap = max (n + 1) (2 * cap) in
    let grow a def =
      let b = Array.make ncap def in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assign <- grow s.assign (-1);
    s.level <- grow s.level 0;
    s.reason <- grow s.reason None;
    s.activity <- grow s.activity 0.0;
    s.phase <- grow s.phase false;
    s.trail <- grow s.trail 0;
    let wcap = Array.length s.watches in
    if 2 * n + 1 >= wcap then begin
      let nw = Array.make (max (2 * n + 2) (2 * wcap)) [] in
      Array.blit s.watches 0 nw 0 wcap;
      s.watches <- nw
    end
  end

(** Allocate a fresh variable, returning its index ([>= 1]). *)
let new_var s =
  s.nvars <- s.nvars + 1;
  ensure_capacity s s.nvars;
  s.nvars

let value (s : t) (l : lit) : int =
  (* -1 unassigned, 1 true, 0 false, from the literal's viewpoint *)
  let v = s.assign.(lit_var l) in
  if v = -1 then -1 else if lit_sign l then v else 1 - v

let decision_level s = List.length s.trail_lim

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    List.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

let enqueue s (l : lit) (from : clause option) =
  let v = lit_var l in
  s.assign.(v) <- (if lit_sign l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- from;
  s.phase.(v) <- lit_sign l;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Propagate all enqueued facts. Returns the conflicting clause, if any. *)
let propagate s : clause option =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* clauses watching ¬l must be inspected *)
    let falsified = -l in
    let ws = s.watches.(widx falsified) in
    s.watches.(widx falsified) <- [];
    let rec go = function
      | [] -> ()
      | c :: rest -> (
          if !conflict <> None then
            (* keep remaining watchers *)
            s.watches.(widx falsified) <-
              c :: (rest @ s.watches.(widx falsified))
          else
            (* make sure falsified literal is at position 1 *)
            let lits = c.lits in
            (if lits.(0) = falsified then begin
               lits.(0) <- lits.(1);
               lits.(1) <- falsified
             end);
            if value s lits.(0) = 1 then begin
              (* clause satisfied; keep watching *)
              s.watches.(widx falsified) <- c :: s.watches.(widx falsified);
              go rest
            end
            else begin
              (* search a new literal to watch *)
              let n = Array.length lits in
              let found = ref false in
              let i = ref 2 in
              while (not !found) && !i < n do
                if value s lits.(!i) <> 0 then begin
                  lits.(1) <- lits.(!i);
                  lits.(!i) <- falsified;
                  s.watches.(widx lits.(1)) <- c :: s.watches.(widx lits.(1));
                  found := true
                end;
                incr i
              done;
              if !found then go rest
              else begin
                (* unit or conflicting *)
                s.watches.(widx falsified) <- c :: s.watches.(widx falsified);
                if value s lits.(0) = 0 then begin
                  conflict := Some c;
                  s.qhead <- s.trail_len;
                  go rest
                end
                else begin
                  enqueue s lits.(0) (Some c);
                  go rest
                end
              end
            end)
    in
    go ws
  done;
  !conflict

let attach_clause s c =
  s.watches.(widx c.lits.(0)) <- c :: s.watches.(widx c.lits.(0));
  s.watches.(widx c.lits.(1)) <- c :: s.watches.(widx c.lits.(1))

let detach_clause s c =
  let rm l = s.watches.(widx l) <- List.filter (fun c' -> c' != c) s.watches.(widx l) in
  rm c.lits.(0);
  rm c.lits.(1)

(* a clause currently acting as the reason of an assignment must not be
   deleted: conflict analysis may still traverse it *)
let locked s (c : clause) =
  match s.reason.(lit_var c.lits.(0)) with
  | Some r -> r == c
  | None -> false

(** Activity-based learnt-clause DB reduction: drop the low-activity half
    of the learnt clauses (keeping locked and binary ones) so the DB —
    and unit-propagation cost — stays bounded on long searches. *)
let reduce_db s =
  let arr = Array.of_list s.learnts in
  Array.sort (fun (a : clause) b -> compare a.activity b.activity) arr;
  let n = Array.length arr in
  let kept = ref [] and n_kept = ref 0 in
  Array.iteri
    (fun i c ->
      if i >= n / 2 || Array.length c.lits <= 2 || locked s c then begin
        kept := c :: !kept;
        incr n_kept
      end
      else begin
        detach_clause s c;
        s.learnts_removed <- s.learnts_removed + 1
      end)
    arr;
  s.learnts <- !kept;
  s.n_learnts <- !n_kept;
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
      || List.exists (fun l -> value s l = 1) lits
    in
    if not taut then begin
      let lits = List.filter (fun l -> value s l <> 0) lits in
      List.iter (fun l -> ensure_capacity s (lit_var l)) lits;
      match lits with
      | [] -> s.ok <- false
      | [ l ] -> (
          enqueue s l None;
          match propagate s with Some _ -> s.ok <- false | None -> ())
      | _ ->
          let c = { lits = Array.of_list lits; activity = 0.0 } in
          s.clauses <- c :: s.clauses;
          attach_clause s c
    end
  end

(* backtrack to a given decision level *)
let cancel_until s lvl =
  if decision_level s > lvl then begin
    let rec boundary lim n =
      (* trail length at start of level lvl+1 *)
      match lim with
      | [] -> 0
      | b :: rest -> if n = lvl + 1 then b else boundary rest (n - 1)
    in
    let b = boundary s.trail_lim (decision_level s) in
    for i = s.trail_len - 1 downto b do
      let v = lit_var s.trail.(i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- None
    done;
    s.trail_len <- b;
    s.qhead <- b;
    let rec drop lim n = if n = lvl then lim else drop (List.tl lim) (n - 1) in
    s.trail_lim <- drop s.trail_lim (decision_level s)
  end

(* First-UIP conflict analysis. Returns (learnt clause lits, backtrack level).
   learnt.(0) is the asserting literal. *)
let analyze s (confl : clause) : lit list * int =
  let seen = Hashtbl.create 32 in
  let counter = ref 0 in
  let learnt = ref [] in
  let btlevel = ref 0 in
  let cur_level = decision_level s in
  let p = ref 0 in
  (* 0 = undefined *)
  let c = ref confl in
  let idx = ref (s.trail_len - 1) in
  let continue_ = ref true in
  while !continue_ do
    (* bump + process reason clause *)
    cla_bump s !c;
    Array.iter
      (fun q ->
        let v = lit_var q in
        if (not (Hashtbl.mem seen v)) && s.level.(v) > 0 && q <> !p then begin
          Hashtbl.add seen v ();
          var_bump s v;
          if s.level.(v) >= cur_level then incr counter
          else begin
            learnt := q :: !learnt;
            if s.level.(v) > !btlevel then btlevel := s.level.(v)
          end
        end)
      !c.lits;
    (* select next literal to look at *)
    let rec find_next () =
      let l = s.trail.(!idx) in
      decr idx;
      if Hashtbl.mem seen (lit_var l) then l else find_next ()
    in
    let l = find_next () in
    Hashtbl.remove seen (lit_var l);
    decr counter;
    if !counter = 0 then begin
      learnt := -l :: !learnt;
      continue_ := false
    end
    else begin
      p := l;
      c :=
        (match s.reason.(lit_var l) with
        | Some r -> r
        | None -> assert false)
    end
  done;
  (!learnt, !btlevel)

(* Decision heuristic: scan from a rotating cursor for the next
   unassigned variable, preferring recently-bumped (high-activity)
   variables seen in a bounded window.  This keeps decisions O(1)
   amortized on the large, mostly-easy instances produced by grounding,
   while still following conflict activity. *)
let pick_branch_var s : int option =
  (* first try: highest-activity var among those bumped since the last
     conflict (cheap approximation of VSIDS) *)
  let best = ref 0 in
  let best_act = ref 0.0 in
  let scanned = ref 0 in
  let v = ref s.next_var_hint in
  let n = s.nvars in
  if n = 0 then None
  else begin
    (* bounded scan window for an active variable *)
    while !scanned < n && (!best = 0 || !scanned < 64) do
      incr scanned;
      let cand = !v in
      v := if cand >= n then 1 else cand + 1;
      if s.assign.(cand) = -1 && (!best = 0 || s.activity.(cand) > !best_act)
      then begin
        best := cand;
        best_act := s.activity.(cand)
      end
    done;
    if !best = 0 then None
    else begin
      s.next_var_hint <- !best;
      Some !best
    end
  end

(** Decide satisfiability of the clauses added so far. After [Sat],
    {!model_value} reads the satisfying assignment. *)
let solve s : result =
  if not s.ok then Unsat
  else begin
    (match propagate s with Some _ -> s.ok <- false | None -> ());
    if not s.ok then Unsat
    else begin
      if s.max_learnts = 0 then
        s.max_learnts <- max 256 (List.length s.clauses / 3);
      let status = ref None in
      let conflicts_since_restart = ref 0 in
      let restart_limit = ref 100 in
      while !status = None do
        match propagate s with
        | Some confl ->
            s.conflicts <- s.conflicts + 1;
            incr conflicts_since_restart;
            if decision_level s = 0 then begin
              s.ok <- false;
              status := Some Unsat
            end
            else begin
              let learnt, btlevel = analyze s confl in
              cancel_until s btlevel;
              (match learnt with
              | [] -> assert false
              | [ l ] -> enqueue s l None
              | l :: _ ->
                  let c =
                    { lits = Array.of_list learnt; activity = s.cla_inc }
                  in
                  (* ensure second watched literal is from the conflict level *)
                  let lits = c.lits in
                  let max_i = ref 1 in
                  for i = 2 to Array.length lits - 1 do
                    if s.level.(lit_var lits.(i)) > s.level.(lit_var lits.(!max_i))
                    then max_i := i
                  done;
                  let tmp = lits.(1) in
                  lits.(1) <- lits.(!max_i);
                  lits.(!max_i) <- tmp;
                  s.learnts <- c :: s.learnts;
                  s.n_learnts <- s.n_learnts + 1;
                  s.learnts_total <- s.learnts_total + 1;
                  attach_clause s c;
                  enqueue s l (Some c));
              var_decay s;
              cla_decay s;
              if s.n_learnts > s.max_learnts then reduce_db s
            end
        | None ->
            if
              !conflicts_since_restart >= !restart_limit
              && decision_level s > 0
            then begin
              conflicts_since_restart := 0;
              restart_limit := !restart_limit * 3 / 2;
              cancel_until s 0
            end
            else begin
              match pick_branch_var s with
              | None -> status := Some Sat
              | Some v ->
                  s.decisions <- s.decisions + 1;
                  s.trail_lim <- s.trail_len :: s.trail_lim;
                  let l = if s.phase.(v) then v else -v in
                  enqueue s l None
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
let model_value s (l : lit) : bool =
  let v = value s l in
  v = 1

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
