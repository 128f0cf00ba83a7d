(** Encoding of ground formulas ({!Ipa_logic.Ground.gformula}) into SAT.

    Boolean atoms become SAT variables; bounded-integer state functions
    are order-encoded ([v = lo + sum of ladder bits]); linear comparisons
    are flattened to unit-literal sums and decided by a totalizer
    ({!Cnf.at_least}); the boolean skeleton is Tseitin-encoded so the
    resulting literal is fully compositional (usable under negation).

    Together with {!Sat} this forms the solver backend replacing Z3 in the
    paper's prototype. *)

open Ipa_logic

type lit = Sat.lit

module AtomTbl = Hashtbl
module NumTbl = Hashtbl

type intvar = { lo : int; hi : int; bits : lit array }

type ctx = {
  sat : Sat.t;
  atoms : (Ground.gatom, lit) AtomTbl.t;
  nums : (Ground.gnum, intvar) NumTbl.t;
  int_bounds : Ground.gnum -> int * int;
  mutable taken : Sat.stats;  (** the solver's counters at the last take *)
}

let no_stats : Sat.stats =
  { n_conflicts = 0; n_decisions = 0; n_propagations = 0; n_learnts = 0;
    n_removed = 0 }

(** Default integer bounds for numeric state functions: [0, 16]. *)
let default_bounds (_ : Ground.gnum) = (0, 16)

let create ?(int_bounds = default_bounds) () =
  {
    sat = Sat.create ();
    atoms = AtomTbl.create 64;
    nums = NumTbl.create 16;
    int_bounds;
    taken = no_stats;
  }

let solver ctx = ctx.sat

(** The solver's counters moved since the last [take_stats] (since
    creation for the first): encoding and solving both, each counted
    once however many queries the context answers. *)
let take_stats ctx : Sat.stats =
  let now = Sat.stats ctx.sat and was = ctx.taken in
  ctx.taken <- now;
  {
    n_conflicts = now.n_conflicts - was.n_conflicts;
    n_decisions = now.n_decisions - was.n_decisions;
    n_propagations = now.n_propagations - was.n_propagations;
    n_learnts = now.n_learnts - was.n_learnts;
    n_removed = now.n_removed - was.n_removed;
  }

(** Release the context's solver back to this domain's recycling pool
    ({!Sat.release}).  Call once the query's result, stats and model
    values have all been read; the context is dead afterwards. *)
let release ctx = Sat.release ctx.sat

(** The SAT literal representing a ground boolean atom. *)
let lit_of_atom ctx (a : Ground.gatom) : lit =
  match AtomTbl.find_opt ctx.atoms a with
  | Some l -> l
  | None ->
      let v = Sat.new_var ctx.sat in
      AtomTbl.replace ctx.atoms a v;
      v

let intvar_of_num ctx (n : Ground.gnum) : intvar =
  match NumTbl.find_opt ctx.nums n with
  | Some iv -> iv
  | None ->
      let lo, hi = ctx.int_bounds n in
      if hi < lo then
        invalid_arg
          (Fmt.str "Encode: empty bounds [%d,%d] for %s" lo hi
             (Ground.gnum_to_string n));
      let bits = Array.init (hi - lo) (fun _ -> Sat.new_var ctx.sat) in
      (* ladder: bit i+1 -> bit i  (order encoding) *)
      for i = 0 to Array.length bits - 2 do
        Sat.add_clause ctx.sat [ -bits.(i + 1); bits.(i) ]
      done;
      let iv = { lo; hi; bits } in
      NumTbl.replace ctx.nums n iv;
      iv

(* Flatten a ground linear expression into (unit literals, constant):
   value = (number of true literals) + constant. *)
let flatten ctx (l : Ground.glin) : lit list * int =
  let lits = ref [] and const = ref l.const in
  List.iter (fun a -> lits := lit_of_atom ctx a :: !lits) l.pos;
  List.iter
    (fun a ->
      (* -[a] = [¬a] - 1 *)
      lits := -lit_of_atom ctx a :: !lits;
      decr const)
    l.negs;
  List.iter
    (fun (c, n) ->
      let iv = intvar_of_num ctx n in
      let nbits = Array.length iv.bits in
      if c > 0 then begin
        const := !const + (c * iv.lo);
        for _copy = 1 to c do
          Array.iter (fun b -> lits := b :: !lits) iv.bits
        done
      end
      else if c < 0 then begin
        let k = -c in
        (* c*v = c*lo + c*Σbits ; -q = ¬q - 1 per bit copy *)
        const := !const + (c * iv.lo) - (k * nbits);
        for _copy = 1 to k do
          Array.iter (fun b -> lits := -b :: !lits) iv.bits
        done
      end)
    l.funs;
  (!lits, !const)

(** [encode ctx g] returns a literal equivalent to the ground formula [g]. *)
let rec encode ctx (g : Ground.gformula) : lit =
  match g with
  | GTrue -> Cnf.lit_true ctx.sat
  | GFalse -> Cnf.lit_false ctx.sat
  | GAtom a -> lit_of_atom ctx a
  | GNot f -> -encode ctx f
  | GAnd (a, b) -> Cnf.gate_and ctx.sat [ encode ctx a; encode ctx b ]
  | GOr (a, b) -> Cnf.gate_or ctx.sat [ encode ctx a; encode ctx b ]
  | GCmp (op, lin) -> (
      let lits, c = flatten ctx lin in
      (* value = Σ lits + c ; compare with 0 *)
      let ge k = Cnf.at_least ctx.sat lits k in
      match op with
      | Ast.Ge -> ge (-c)
      | Ast.Gt -> ge (-c + 1)
      | Ast.Le -> -ge (-c + 1)
      | Ast.Lt -> -ge (-c)
      | Ast.EqN -> Cnf.gate_and ctx.sat [ ge (-c); -ge (-c + 1) ]
      | Ast.NeN -> Cnf.gate_or ctx.sat [ -ge (-c); ge (-c + 1) ])

(** Assert that [g] holds. *)
let assert_formula ctx g = Sat.add_clause ctx.sat [ encode ctx g ]

(** Decide satisfiability of everything asserted so far, under the
    [assumptions] (literals of {!encode}d formulas, held for this call
    only). *)
let solve ?assumptions ctx : Sat.result = Sat.solve ?assumptions ctx.sat

(** Model value of a boolean atom (valid after a [Sat] answer).
    Atoms never mentioned read as [false]. *)
let model_atom ctx (a : Ground.gatom) : bool =
  match AtomTbl.find_opt ctx.atoms a with
  | None -> false
  | Some l -> Sat.model_value ctx.sat l

(** Model value of a numeric state function (valid after [Sat]).
    Unmentioned functions read as their lower bound. *)
let model_num ctx (n : Ground.gnum) : int =
  match NumTbl.find_opt ctx.nums n with
  | None -> fst (ctx.int_bounds n)
  | Some iv ->
      iv.lo
      + Array.fold_left
          (fun acc b -> if Sat.model_value ctx.sat b then acc + 1 else acc)
          0 iv.bits

(** Add a clause forbidding the current model's assignment to [atoms]
    (model enumeration). Call after a [Sat] answer; resets the trail. *)
let block_model ctx (atoms : Ground.gatom list) : unit =
  let blocking =
    List.map
      (fun a ->
        let l = lit_of_atom ctx a in
        if Sat.model_value ctx.sat l then -l else l)
      atoms
  in
  Sat.reset ctx.sat;
  Sat.add_clause ctx.sat blocking

(** Convenience: satisfiability of a single closed formula over a
    signature/domain. Returns the witness valuation on [Sat]. *)
let check ?(int_bounds = default_bounds) ~sg ~consts ~dom (f : Ast.formula) :
    [ `Sat of (Ground.gatom -> bool) * (Ground.gnum -> int) | `Unsat ] =
  let g = Ground.ground ~sg ~consts ~dom f in
  let ctx = create ~int_bounds () in
  assert_formula ctx g;
  match solve ctx with
  | Sat -> `Sat (model_atom ctx, model_num ctx)
  | Unsat -> `Unsat
