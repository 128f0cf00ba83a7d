(** First-order logic AST for IPA application specifications.

    The language mirrors the annotation grammar of the paper (Figure 1):
    invariants are first-order formulas over boolean predicates, numeric
    functions and cardinalities of predicates, e.g.

    {v
    forall(Player:p, Tournament:t) :- enrolled(p,t) => player(p) and tournament(t)
    forall(Tournament:t) :- #enrolled( *, t) <= Capacity
    v}

    Terms are either variables (bound by quantifiers or operation
    parameters), constants (domain elements introduced by grounding), or
    the wildcard [Star] which is used in operation effects such as
    [enrolled( *, t) = false] to denote "all elements of that sort". *)

(** A sort (entity type) such as ["Player"] or ["Tournament"]. *)
type sort = string

(** A typed variable, e.g. [p : Player]. *)
type tvar = { vname : string; vsort : sort }

(** Terms appearing as predicate arguments. *)
type term =
  | Var of string  (** a variable (sort known from context) *)
  | Const of string  (** a ground domain element *)
  | Star  (** wildcard: matches every element of the argument's sort *)

(** Comparison operators for numeric atoms. *)
type cmpop = Le | Lt | Ge | Gt | EqN | NeN

(** Numeric expressions.

    [Card (p, args)] is the cardinality [#p(args)] of the set of true
    instances of predicate [p] matching [args] (with [Star] positions
    ranging over the whole sort).  [NFun (f, args)] is an uninterpreted
    bounded-integer state function such as [stock(i)]. [NConst c] refers
    to a named integer constant (e.g. [Capacity]) resolved by the
    specification. *)
type nexpr =
  | Int of int
  | NConst of string
  | Card of string * term list
  | NFun of string * term list
  | NAdd of nexpr * nexpr
  | NSub of nexpr * nexpr

(** Formulas. [Eq (t1, t2)] is term equality, used for uniqueness
    invariants. *)
type formula =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term
  | Cmp of cmpop * nexpr * nexpr
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Iff of formula * formula
  | Forall of tvar list * formula
  | Exists of tvar list * formula

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let tt = True
let ff = False
let atom p args = Atom (p, args)
let eq a b = Eq (a, b)

let neg = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let conj a b =
  match (a, b) with
  | True, f | f, True -> f
  | False, _ | _, False -> False
  | _ -> And (a, b)

let disj a b =
  match (a, b) with
  | False, f | f, False -> f
  | True, _ | _, True -> True
  | _ -> Or (a, b)

let implies a b =
  match (a, b) with
  | False, _ -> True
  | True, f -> f
  | _, True -> True
  | _ -> Implies (a, b)

let forall vs f = if vs = [] then f else Forall (vs, f)
let exists vs f = if vs = [] then f else Exists (vs, f)

(** N-ary conjunction of a list of formulas. *)
let conj_l = List.fold_left conj True

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

(** [clauses f] splits the top-level conjunction of [f] into a list of
    conjuncts, pushing through nothing else.  Invariants are usually
    written as a conjunction of clauses; conflict repair reasons about
    individual clauses. *)
let rec clauses = function
  | And (a, b) -> clauses a @ clauses b
  | True -> []
  | f -> [ f ]

(** Fold over every (predicate name, argument list) boolean atom. *)
let rec fold_atoms fn acc = function
  | True | False | Eq _ -> acc
  | Atom (p, args) -> fn acc p args
  | Cmp (_, a, b) ->
      let rec fn_n acc = function
        | Int _ | NConst _ -> acc
        | Card (p, args) -> fn acc p args
        | NFun _ -> acc
        | NAdd (x, y) | NSub (x, y) -> fn_n (fn_n acc x) y
      in
      fn_n (fn_n acc a) b
  | Not f -> fold_atoms fn acc f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      fold_atoms fn (fold_atoms fn acc a) b
  | Forall (_, f) | Exists (_, f) -> fold_atoms fn acc f

(** Fold over every numeric-function (name, args) occurrence. *)
let rec fold_nfuns fn acc = function
  | True | False | Eq _ | Atom _ -> acc
  | Cmp (_, a, b) ->
      let rec fn_n acc = function
        | Int _ | NConst _ | Card _ -> acc
        | NFun (f, args) -> fn acc f args
        | NAdd (x, y) | NSub (x, y) -> fn_n (fn_n acc x) y
      in
      fn_n (fn_n acc a) b
  | Not f -> fold_nfuns fn acc f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      fold_nfuns fn (fold_nfuns fn acc a) b
  | Forall (_, f) | Exists (_, f) -> fold_nfuns fn acc f

(** Names of all boolean predicates mentioned in a formula (set, sorted). *)
let predicates f =
  fold_atoms (fun acc p _ -> p :: acc) [] f
  |> List.sort_uniq String.compare

(** Names of all numeric functions mentioned in a formula. *)
let nfunctions f =
  fold_nfuns (fun acc p _ -> p :: acc) [] f
  |> List.sort_uniq String.compare

(** [has_cardinality f] is true when [f] contains a [#p(...)] term. *)
let has_cardinality f =
  let rec go_n = function
    | Card _ -> true
    | NAdd (a, b) | NSub (a, b) -> go_n a || go_n b
    | _ -> false
  in
  let rec go = function
    | True | False | Atom _ | Eq _ -> false
    | Cmp (_, a, b) -> go_n a || go_n b
    | Not f -> go f
    | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) -> go a || go b
    | Forall (_, f) | Exists (_, f) -> go f
  in
  go f

(** [has_nfun f] is true when [f] contains an uninterpreted numeric
    function occurrence. *)
let has_nfun f = nfunctions f <> []

(** Free variables of a formula, in first-occurrence order. *)
let free_vars f =
  let module S = Set.Make (String) in
  let add_t bound (acc, seen) = function
    | Var v when not (S.mem v bound) ->
        if S.mem v seen then (acc, seen) else (v :: acc, S.add v seen)
    | _ -> (acc, seen)
  in
  let rec go_n bound st = function
    | Int _ | NConst _ -> st
    | Card (_, args) | NFun (_, args) ->
        List.fold_left (add_t bound) st args
    | NAdd (a, b) | NSub (a, b) -> go_n bound (go_n bound st a) b
  in
  let rec go bound st = function
    | True | False -> st
    | Atom (_, args) -> List.fold_left (add_t bound) st args
    | Eq (a, b) -> add_t bound (add_t bound st a) b
    | Cmp (_, a, b) -> go_n bound (go_n bound st a) b
    | Not f -> go bound st f
    | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
        go bound (go bound st a) b
    | Forall (vs, f) | Exists (vs, f) ->
        let bound = List.fold_left (fun s v -> S.add v.vname s) bound vs in
        go bound st f
  in
  let acc, _ = go S.empty ([], S.empty) f in
  List.rev acc
