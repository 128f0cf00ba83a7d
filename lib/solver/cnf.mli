(** CNF construction helpers on top of {!Sat}: Tseitin gates and a
    Bailleux–Boudet totalizer for cardinality constraints.

    The totalizer output bits satisfy [o_j <=> (at least j inputs
    true)] in {e both} directions, so cardinality tests can appear under
    negation inside an arbitrary boolean structure.  Weighted sums with
    small positive weights are handled by input duplication. *)

type lit = Sat.lit

(** The solver operations the encodings use.  {!Sat} provides them; a
    test drives the same encodings into its reference solver. *)
module type SOLVER = sig
  type t

  val new_var : t -> int
  val add_clause : t -> lit list -> unit
  val true_lit_get : t -> int
  val true_lit_set : t -> int -> unit
end

module type S = sig
  type solver

  (** A literal constrained to be true (allocated once per solver). *)
  val lit_true : solver -> lit

  val lit_false : solver -> lit

  (** A literal equivalent to the conjunction of the inputs. *)
  val gate_and : solver -> lit list -> lit

  (** A literal equivalent to the disjunction of the inputs. *)
  val gate_or : solver -> lit list -> lit

  (** A literal equivalent to [a <=> b]. *)
  val gate_iff : solver -> lit -> lit -> lit

  (** [o.(k-1) <=> at least k inputs are true]. *)
  val totalizer : solver -> lit list -> lit array

  (** A literal equivalent to "at least [k] of the inputs are true"
      (inputs may repeat, counting multiplicity). *)
  val at_least : solver -> lit list -> int -> lit

  (** Re-export of the solver's [add_clause]. *)
  val clause : solver -> lit list -> unit
end

module Make (X : SOLVER) : S with type solver := X.t
include S with type solver := Sat.t
