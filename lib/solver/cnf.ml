(** CNF construction helpers on top of {!Sat}: Tseitin gates and a
    Bailleux–Boudet totalizer for cardinality constraints.

    The totalizer produces, for a multiset of input literals, output
    literals [o_j] with [o_j <=> (at least j inputs are true)] — both
    implication directions are encoded, so cardinality tests can appear
    under negation inside an arbitrary boolean structure.  Weighted sums
    with small positive weights are handled by input duplication. *)

type lit = Sat.lit

module type SOLVER = sig
  type t

  val new_var : t -> int
  val add_clause : t -> lit list -> unit
  val true_lit_get : t -> int
  val true_lit_set : t -> int -> unit
end

module type S = sig
  type solver

  val lit_true : solver -> lit
  val lit_false : solver -> lit
  val gate_and : solver -> lit list -> lit
  val gate_or : solver -> lit list -> lit
  val gate_iff : solver -> lit -> lit -> lit
  val totalizer : solver -> lit list -> lit array
  val at_least : solver -> lit list -> int -> lit
  val clause : solver -> lit list -> unit
end

module Make (S : SOLVER) = struct
  (** A literal constrained to be true (allocated once per solver). *)
  let lit_true (s : S.t) : lit =
    let cached = S.true_lit_get s in
    if cached <> 0 then cached
    else begin
      let v = S.new_var s in
      S.add_clause s [ v ];
      S.true_lit_set s v;
      v
    end

  let lit_false s : lit = -lit_true s

  (* ---------------------------------------------------------------- *)
  (* Tseitin gates                                                    *)
  (* ---------------------------------------------------------------- *)

  (** [gate_and s ls] is a literal equivalent to the conjunction of [ls]. *)
  let gate_and (s : S.t) (ls : lit list) : lit =
    match ls with
    | [] -> lit_true s
    | [ l ] -> l
    | _ ->
        let z = S.new_var s in
        List.iter (fun l -> S.add_clause s [ -z; l ]) ls;
        S.add_clause s (z :: List.map (fun l -> -l) ls);
        z

  (** [gate_or s ls] is a literal equivalent to the disjunction of [ls]. *)
  let gate_or (s : S.t) (ls : lit list) : lit =
    match ls with
    | [] -> lit_false s
    | [ l ] -> l
    | _ ->
        let z = S.new_var s in
        List.iter (fun l -> S.add_clause s [ z; -l ]) ls;
        S.add_clause s (-z :: ls);
        z

  (** [gate_iff s a b] is a literal equivalent to [a <=> b]. *)
  let gate_iff (s : S.t) (a : lit) (b : lit) : lit =
    let z = S.new_var s in
    S.add_clause s [ -z; -a; b ];
    S.add_clause s [ -z; a; -b ];
    S.add_clause s [ z; a; b ];
    S.add_clause s [ z; -a; -b ];
    z

  (* ---------------------------------------------------------------- *)
  (* Totalizer                                                        *)
  (* ---------------------------------------------------------------- *)

  (* Merge two unary counters a (counts |a| inputs) and b into r, with
     r.(k-1) <=> (sum >= k).  Encodes both directions. *)
  let totalizer_merge (s : S.t) (a : lit array) (b : lit array) : lit array =
    let na = Array.length a and nb = Array.length b in
    let n = na + nb in
    let r = Array.init n (fun _ -> S.new_var s) in
    for i = 0 to na do
      for j = 0 to nb do
        (* C1: (at least i in a) and (at least j in b) -> at least i+j in r.
           With 1-based counts a_i <=> a.(i-1); a_0/b_0 are vacuously true. *)
        if i + j >= 1 then begin
          let ante =
            (if i >= 1 then [ -a.(i - 1) ] else [])
            @ if j >= 1 then [ -b.(j - 1) ] else []
          in
          S.add_clause s (ante @ [ r.(i + j - 1) ])
        end;
        (* C2: (at most i in a) and (at most j in b) -> at most i+j in r,
           i.e. a_{i+1} or b_{j+1} or not r_{i+j+1}; a_{na+1}/b_{nb+1} are
           vacuously false and omitted. *)
        if i + j <= n - 1 then begin
          let ante =
            (if i < na then [ a.(i) ] else [])
            @ if j < nb then [ b.(j) ] else []
          in
          S.add_clause s (ante @ [ -r.(i + j) ])
        end
      done
    done;
    r

  (** [totalizer s inputs] returns an array [o] with
      [o.(k-1) <=> at least k of inputs are true]. *)
  let rec totalizer (s : S.t) (inputs : lit list) : lit array =
    match inputs with
    | [] -> [||]
    | [ l ] -> [| l |]
    | _ ->
        let arr = Array.of_list inputs in
        let n = Array.length arr in
        let left = Array.to_list (Array.sub arr 0 (n / 2)) in
        let right = Array.to_list (Array.sub arr (n / 2) (n - (n / 2))) in
        totalizer_merge s (totalizer s left) (totalizer s right)

  (** [at_least s inputs k] is a literal equivalent to
      "at least [k] of [inputs] are true" (inputs may repeat, counting
      multiplicity). *)
  let at_least (s : S.t) (inputs : lit list) (k : int) : lit =
    let n = List.length inputs in
    if k <= 0 then lit_true s
    else if k > n then lit_false s
    else
      let o = totalizer s inputs in
      o.(k - 1)

  (** Assert a clause directly (re-export for convenience). *)
  let clause = S.add_clause
end

include Make (Sat)

