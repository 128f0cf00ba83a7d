(** Encoding of ground formulas into SAT: atoms become variables,
    bounded-integer state functions are order-encoded, linear
    comparisons flatten to totalizer cardinality tests, and the boolean
    skeleton is Tseitin-encoded so results compose under negation.
    Together with {!Sat} this is the solver backend replacing Z3. *)

open Ipa_logic

type lit = Sat.lit
type ctx

(** Default integer bounds for numeric state functions: [(0, 16)]. *)
val default_bounds : Ground.gnum -> int * int

val create : ?int_bounds:(Ground.gnum -> int * int) -> unit -> ctx
val solver : ctx -> Sat.t

(** The solver counters moved since the previous [take_stats] on this
    context (since its creation for the first), so a context that
    answers many queries has each unit of work counted once. *)
val take_stats : ctx -> Sat.stats

(** Release the context's solver back to this domain's recycling pool
    ({!Sat.release}) once its result, stats and model values have been
    read; the context must not be used afterwards. *)
val release : ctx -> unit

(** The SAT literal representing a ground boolean atom. *)
val lit_of_atom : ctx -> Ground.gatom -> lit

(** A literal equivalent to the ground formula. *)
val encode : ctx -> Ground.gformula -> lit

(** Assert that the formula holds. *)
val assert_formula : ctx -> Ground.gformula -> unit

(** Decide everything asserted so far, under [assumptions] (literals
    from {!encode}, held for this call only — see {!Sat.solve}). *)
val solve : ?assumptions:lit list -> ctx -> Sat.result

(** Model values (valid after a [Sat] answer); unmentioned atoms read
    [false], unmentioned numerics read their lower bound. *)
val model_atom : ctx -> Ground.gatom -> bool

val model_num : ctx -> Ground.gnum -> int

(** Forbid the current model's assignment to the given atoms (model
    enumeration); resets the trail. *)
val block_model : ctx -> Ground.gatom list -> unit

(** One-shot satisfiability of a closed formula. *)
val check :
  ?int_bounds:(Ground.gnum -> int * int) ->
  sg:Ground.signature ->
  consts:(string * int) list ->
  dom:Ground.domain ->
  Ast.formula ->
  [ `Sat of (Ground.gatom -> bool) * (Ground.gnum -> int) | `Unsat ]
