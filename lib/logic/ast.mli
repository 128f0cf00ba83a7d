(** First-order logic AST for IPA application specifications.

    The language mirrors the paper's annotation grammar (Figure 1):
    invariants are first-order formulas over boolean predicates, numeric
    state functions and predicate cardinalities, e.g.
    [forall(Player:p, Tournament:t) :- enrolled(p,t) => player(p) and
    tournament(t)] and [forall(Tournament:t) :- #enrolled( *, t) <=
    Capacity]. *)

(** A sort (entity type) such as ["Player"]. *)
type sort = string

(** A typed variable, e.g. [p : Player]. *)
type tvar = { vname : string; vsort : sort }

(** Terms appearing as predicate arguments. *)
type term =
  | Var of string
  | Const of string  (** a ground domain element *)
  | Star  (** wildcard: every element of the position's sort *)

type cmpop = Le | Lt | Ge | Gt | EqN | NeN

(** Numeric expressions: integer literals, named constants, predicate
    cardinalities [#p(args)], bounded numeric state functions, sums and
    differences. *)
type nexpr =
  | Int of int
  | NConst of string
  | Card of string * term list
  | NFun of string * term list
  | NAdd of nexpr * nexpr
  | NSub of nexpr * nexpr

type formula =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term  (** term equality (uniqueness invariants) *)
  | Cmp of cmpop * nexpr * nexpr
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Iff of formula * formula
  | Forall of tvar list * formula
  | Exists of tvar list * formula

(** {1 Smart constructors} (perform constant folding) *)

val tt : formula
val ff : formula
val atom : string -> term list -> formula
val eq : term -> term -> formula
val neg : formula -> formula
val conj : formula -> formula -> formula
val disj : formula -> formula -> formula
val implies : formula -> formula -> formula
val forall : tvar list -> formula -> formula
val exists : tvar list -> formula -> formula
val conj_l : formula list -> formula

(** {1 Traversals} *)

(** Split the top-level conjunction into clauses. *)
val clauses : formula -> formula list

val fold_atoms : ('a -> string -> term list -> 'a) -> 'a -> formula -> 'a
val fold_nfuns : ('a -> string -> term list -> 'a) -> 'a -> formula -> 'a

(** Boolean predicate names mentioned (sorted, deduplicated). *)
val predicates : formula -> string list

(** Numeric function names mentioned. *)
val nfunctions : formula -> string list

val has_cardinality : formula -> bool
val has_nfun : formula -> bool

(** Free variables, in first-occurrence order. *)
val free_vars : formula -> string list
