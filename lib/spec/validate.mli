(** Well-formedness checks: arity and sort correctness of effects,
    declared predicates in invariants, closed invariant formulas,
    no duplicate declarations. *)

type error = { where : string; what : string }

(** All violations of a specification (empty = valid). *)
val check : Types.t -> error list

exception Invalid of error list

(** Identity on valid specifications; raises {!Invalid} otherwise. *)
val validate : Types.t -> Types.t
