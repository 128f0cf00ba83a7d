(** Tests for [ipa_solver]: the CDCL SAT core, cardinality encodings and
    the ground-formula encoder. *)

open Ipa_logic
open Ipa_solver

(* ------------------------------------------------------------------ *)
(* SAT core                                                            *)
(* ------------------------------------------------------------------ *)

let is_sat r = r = Sat.Sat

let test_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a ];
  Alcotest.(check bool) "unit sat" true (is_sat (Sat.solve s));
  Alcotest.(check bool) "model" true (Sat.model_value s a)

let test_sat_contradiction () =
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [ a ];
  Sat.add_clause s [ -a ];
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s))

let test_sat_empty_clause () =
  let s = Sat.create () in
  let _ = Sat.new_var s in
  Sat.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" false (is_sat (Sat.solve s))

let test_sat_no_clauses () =
  let s = Sat.create () in
  let _ = Sat.new_var s in
  Alcotest.(check bool) "vacuous sat" true (is_sat (Sat.solve s))

let test_sat_implication_chain () =
  (* x1 -> x2 -> ... -> xn, x1, ¬xn : unsat *)
  let s = Sat.create () in
  let n = 50 in
  let vars = Array.init n (fun _ -> Sat.new_var s) in
  for i = 0 to n - 2 do
    Sat.add_clause s [ -vars.(i); vars.(i + 1) ]
  done;
  Sat.add_clause s [ vars.(0) ];
  Sat.add_clause s [ -vars.(n - 1) ];
  Alcotest.(check bool) "chain unsat" false (is_sat (Sat.solve s))

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small unsat instance *)
  let s = Sat.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.new_var s)) in
  for i = 0 to 2 do
    Sat.add_clause s [ p.(i).(0); p.(i).(1) ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Sat.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(3,2) unsat" false (is_sat (Sat.solve s))

let test_sat_incremental () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Alcotest.(check bool) "sat 1" true (is_sat (Sat.solve s));
  Sat.reset s;
  Sat.add_clause s [ -a ];
  Alcotest.(check bool) "sat 2" true (is_sat (Sat.solve s));
  Alcotest.(check bool) "b forced" true (Sat.model_value s b);
  Sat.reset s;
  Sat.add_clause s [ -b ];
  Alcotest.(check bool) "unsat 3" false (is_sat (Sat.solve s))

(* brute-force reference solver *)
let brute_force nvars clauses =
  let rec go v (assign : bool array) =
    if v > nvars then
      List.for_all
        (fun c ->
          List.exists
            (fun l -> if l > 0 then assign.(l) else not assign.(-l))
            c)
        clauses
    else (
      assign.(v) <- true;
      if go (v + 1) assign then true
      else begin
        assign.(v) <- false;
        go (v + 1) assign
      end)
  in
  go 1 (Array.make (nvars + 1) false)

let prop_sat_matches_bruteforce =
  QCheck.Test.make ~name:"CDCL matches brute force on random 3-CNF"
    ~count:300
    QCheck.(
      make
        Gen.(
          let nvars = 8 in
          let gen_lit =
            map2
              (fun v s -> if s then v + 1 else -(v + 1))
              (int_bound (nvars - 1)) bool
          in
          let gen_clause = list_size (int_range 1 3) gen_lit in
          map (fun cs -> (nvars, cs)) (list_size (int_range 1 30) gen_clause)))
    (fun (nvars, clauses) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      is_sat (Sat.solve s) = brute_force nvars clauses)

let prop_sat_model_satisfies =
  QCheck.Test.make ~name:"returned model satisfies all clauses" ~count:300
    QCheck.(
      make
        Gen.(
          let nvars = 10 in
          let gen_lit =
            map2
              (fun v s -> if s then v + 1 else -(v + 1))
              (int_bound (nvars - 1)) bool
          in
          let gen_clause = list_size (int_range 1 4) gen_lit in
          map (fun cs -> (nvars, cs)) (list_size (int_range 1 40) gen_clause)))
    (fun (nvars, clauses) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      match Sat.solve s with
      | Unsat -> true
      | Sat ->
          List.for_all
            (fun c -> List.exists (fun l -> Sat.model_value s l) c)
            clauses)

(* ------------------------------------------------------------------ *)
(* Exact replay of the reference solver                                *)
(* ------------------------------------------------------------------ *)

(* A solver input as a script, so the kernel and the reference solver
   ([Sat_ref]) receive the same calls.  [Solve] solves, records the
   answer, the model over every variable and the stats, and resets after
   [Sat] so later clauses are added after a [Sat] answer. *)
type op = Var | Clause of int list | Solve

(* [learnt_limit] 0 keeps the solver's own allowance *)
type script = { learnt_limit : int; ops : op list }

module type SOLVER = sig
  type t
  type result = Sat | Unsat

  type stats = {
    n_conflicts : int;
    n_decisions : int;
    n_propagations : int;
    n_learnts : int;
    n_removed : int;
  }

  val create : unit -> t
  val new_var : t -> int
  val add_clause : t -> int list -> unit
  val solve : t -> result
  val model_value : t -> int -> bool
  val reset : t -> unit
  val stats : t -> stats
  val max_learnts_set : t -> int -> unit
end

module Replay (S : SOLVER) = struct
  let run ?(release = ignore) sc =
    let s = S.create () in
    S.max_learnts_set s sc.learnt_limit;
    let nv = ref 0 in
    let out =
      List.filter_map
        (function
          | Var ->
              nv := S.new_var s;
              None
          | Clause c ->
              S.add_clause s c;
              None
          | Solve ->
              let r = S.solve s in
              let model =
                if r = S.Sat then List.init !nv (fun i -> S.model_value s (i + 1))
                else []
              in
              let st = S.stats s in
              S.reset s;
              Some
                ( r = S.Sat,
                  model,
                  [ st.n_conflicts; st.n_decisions; st.n_propagations;
                    st.n_learnts; st.n_removed ] ))
        sc.ops
    in
    release s;
    out
end

(* assumption-free solving: the search the reference solver replays *)
module Kernel = Replay (struct
  include Sat

  let solve s = Sat.solve s
end)
module Reference = Replay (Sat_ref)

(* Records what [Cnf]'s encodings ask of a solver, as a script. *)
module Recorder = struct
  type t = { mutable nv : int; mutable rev_ops : op list; mutable tl : int }

  let new_var r =
    r.nv <- r.nv + 1;
    r.rev_ops <- Var :: r.rev_ops;
    r.nv

  let add_clause r c = r.rev_ops <- Clause c :: r.rev_ops
  let true_lit_get r = r.tl
  let true_lit_set r v = r.tl <- v
end

module Rcnf = Cnf.Make (Recorder)

let gen_lit nvars =
  QCheck.Gen.(map2 (fun v b -> if b then v + 1 else -(v + 1)) (int_bound (nvars - 1)) bool)

let gen_learnt_limit = QCheck.Gen.(oneof [ return 0; int_range 2 12 ])

(* random 3-CNF near the threshold ratio, with a second round of
   clauses after the first answer *)
let gen_3cnf =
  let open QCheck.Gen in
  int_range 10 50 >>= fun nvars ->
  let clause = list_repeat 3 (gen_lit nvars) in
  int_range (4 * nvars) (9 * nvars / 2) >>= fun m ->
  list_repeat m clause >>= fun cs ->
  list_size (int_range 0 8) clause >>= fun extra ->
  gen_learnt_limit >|= fun learnt_limit ->
  {
    learnt_limit;
    ops =
      List.init nvars (fun _ -> Var)
      @ List.map (fun c -> Clause c) cs
      @ [ Solve ]
      @ List.map (fun c -> Clause c) extra
      @ [ Solve ];
  }

(* PHP(n+1, n) for n <= 5, clauses in a random order *)
let gen_php =
  let open QCheck.Gen in
  int_range 1 5 >>= fun n ->
  let p i h = (i * n) + h + 1 in
  let rows = List.init (n + 1) (fun i -> List.init n (fun h -> p i h)) in
  let excl =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j -> if j > i then Some [ -p i h; -p j h ] else None)
              (List.init (n + 1) Fun.id))
          (List.init (n + 1) Fun.id))
      (List.init n Fun.id)
  in
  shuffle_l (rows @ excl) >>= fun cs ->
  int_range 2 8 >|= fun learnt_limit ->
  {
    learnt_limit;
    ops = List.init ((n + 1) * n) (fun _ -> Var) @ List.map (fun c -> Clause c) cs @ [ Solve ];
  }

(* [Cnf.at_least] constraints over overlapping input sets, asserted or
   negated, plus random 3-clauses; after each answer another round of
   random 3-clauses arrives *)
let gen_at_least_mix =
  let open QCheck.Gen in
  int_range 12 30 >>= fun nx ->
  let card =
    list_size (int_range 4 nx) (int_bound (nx - 1)) >>= fun ins ->
    let n = List.length ins in
    pair (int_range (n / 3) (2 * n / 3)) bool >|= fun (k, pos) -> (ins, k, pos)
  in
  list_size (int_range 3 8) card >>= fun cards ->
  let clause3 = list_repeat 3 (gen_lit nx) in
  list_size (int_range nx (3 * nx)) clause3 >>= fun cs ->
  list_repeat 3 (list_size (int_range 1 4) clause3) >>= fun later ->
  int_range 2 12 >|= fun learnt_limit ->
  let r = { Recorder.nv = 0; rev_ops = []; tl = 0 } in
  let xs = Array.init nx (fun _ -> Recorder.new_var r) in
  List.iter
    (fun (ins, k, pos) ->
      let z = Rcnf.at_least r (List.map (fun i -> xs.(i)) ins) k in
      Recorder.add_clause r [ (if pos then z else -z) ])
    cards;
  List.iter (Recorder.add_clause r) cs;
  List.iter
    (fun round ->
      r.rev_ops <- Solve :: r.rev_ops;
      List.iter (Recorder.add_clause r) round)
    later;
  r.rev_ops <- Solve :: r.rev_ops;
  { learnt_limit; ops = List.rev r.rev_ops }

let print_script sc =
  Printf.sprintf "learnt_limit=%d\n%s" sc.learnt_limit
    (String.concat "\n"
       (List.map
          (function
            | Var -> "var"
            | Solve -> "solve"
            | Clause c -> String.concat " " (List.map string_of_int c))
          sc.ops))

let prop_replays_reference name count gen =
  QCheck.Test.make ~name:("kernel = reference: " ^ name) ~count
    (QCheck.make ~print:print_script gen)
    (fun sc -> Kernel.run ~release:Sat.release sc = Reference.run sc)

(* ------------------------------------------------------------------ *)
(* Cardinality (totalizer)                                             *)
(* ------------------------------------------------------------------ *)

(* exhaustively check at_least over n inputs for every pattern and k *)
let test_at_least_exhaustive () =
  for n = 1 to 5 do
    for pattern = 0 to (1 lsl n) - 1 do
      let popcount =
        let rec go p acc = if p = 0 then acc else go (p lsr 1) (acc + (p land 1)) in
        go pattern 0
      in
      for k = 0 to n + 1 do
        let s = Sat.create () in
        let inputs = List.init n (fun _ -> Sat.new_var s) in
        (* pin the pattern *)
        List.iteri
          (fun i l ->
            if pattern land (1 lsl i) <> 0 then Sat.add_clause s [ l ]
            else Sat.add_clause s [ -l ])
          inputs;
        let z = Cnf.at_least s inputs k in
        Sat.add_clause s [ z ];
        let expect = popcount >= k in
        if is_sat (Sat.solve s) <> expect then
          Alcotest.failf "at_least n=%d pattern=%d k=%d: expected %b" n pattern
            k expect
      done
    done
  done

let test_at_least_negated () =
  (* the equivalence must hold under negation too: ¬(≥k) ⇔ (< k) *)
  for n = 1 to 4 do
    for pattern = 0 to (1 lsl n) - 1 do
      let popcount =
        let rec go p acc = if p = 0 then acc else go (p lsr 1) (acc + (p land 1)) in
        go pattern 0
      in
      for k = 0 to n + 1 do
        let s = Sat.create () in
        let inputs = List.init n (fun _ -> Sat.new_var s) in
        List.iteri
          (fun i l ->
            if pattern land (1 lsl i) <> 0 then Sat.add_clause s [ l ]
            else Sat.add_clause s [ -l ])
          inputs;
        let z = Cnf.at_least s inputs k in
        Sat.add_clause s [ -z ];
        let expect = popcount < k in
        if is_sat (Sat.solve s) <> expect then
          Alcotest.failf "neg at_least n=%d pattern=%d k=%d: expected %b" n
            pattern k expect
      done
    done
  done

let test_gates () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  let z = Cnf.gate_and s [ a; b ] in
  Sat.add_clause s [ z ];
  Alcotest.(check bool) "and gate sat" true (is_sat (Sat.solve s));
  Alcotest.(check bool) "a true" true (Sat.model_value s a);
  Alcotest.(check bool) "b true" true (Sat.model_value s b);
  let s2 = Sat.create () in
  let a2 = Sat.new_var s2 and b2 = Sat.new_var s2 in
  let z2 = Cnf.gate_or s2 [ a2; b2 ] in
  Sat.add_clause s2 [ -z2 ];
  Sat.add_clause s2 [ a2 ];
  Alcotest.(check bool) "neg or gate with a forced" false (is_sat (Sat.solve s2))

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)
(* ------------------------------------------------------------------ *)

let sg : Ground.signature =
  {
    pred_sorts =
      [
        ("player", [ "Player" ]);
        ("tournament", [ "Tournament" ]);
        ("enrolled", [ "Player"; "Tournament" ]);
      ];
    nfun_sorts = [ ("stock", [ "Item" ]) ];
  }

let dom : Ground.domain =
  [
    ("Player", [ "p1"; "p2"; "p3" ]);
    ("Tournament", [ "t1" ]);
    ("Item", [ "i1" ]);
  ]

let parse = Parser.parse_formula
let ground f = Ground.ground ~sg ~consts:[ ("Capacity", 2) ] ~dom f

let check_formula f =
  Encode.check ~sg ~consts:[ ("Capacity", 2) ] ~dom (parse f)

let test_encode_sat_model_evals_true () =
  let f =
    "(forall(Player:p, Tournament:t) :- enrolled(p,t) => player(p) and \
     tournament(t)) and enrolled('p1,'t1)"
  in
  match check_formula f with
  | `Unsat -> Alcotest.fail "should be satisfiable"
  | `Sat (batom, bnum) ->
      Alcotest.(check bool) "model satisfies ground formula" true
        (Ground.eval ~batom ~bnum (ground (parse f)));
      Alcotest.(check bool) "p1 enrolled in model" true
        (batom { Ground.gpred = "enrolled"; gargs = [ "p1"; "t1" ] });
      Alcotest.(check bool) "p1 is player in model" true
        (batom { Ground.gpred = "player"; gargs = [ "p1" ] })

let test_encode_unsat () =
  let f = "player('p1) and not player('p1)" in
  Alcotest.(check bool) "contradiction unsat" true (check_formula f = `Unsat)

let test_encode_cardinality () =
  (* 3 players all enrolled but capacity 2: unsat *)
  let f =
    "(forall(Tournament:t) :- #enrolled(*,t) <= Capacity) and \
     enrolled('p1,'t1) and enrolled('p2,'t1) and enrolled('p3,'t1)"
  in
  Alcotest.(check bool) "over capacity unsat" true (check_formula f = `Unsat);
  let g =
    "(forall(Tournament:t) :- #enrolled(*,t) <= Capacity) and \
     enrolled('p1,'t1) and enrolled('p2,'t1)"
  in
  Alcotest.(check bool) "at capacity sat" true (check_formula g <> `Unsat)

let test_encode_cardinality_negated () =
  (* not(#enrolled <= 1) with only p1 enrollable... satisfiable by
     enrolling two players *)
  let f = "not (#enrolled(*,'t1) <= 1)" in
  match check_formula f with
  | `Unsat -> Alcotest.fail "negated cardinality should be satisfiable"
  | `Sat (batom, _) ->
      let count =
        List.length
          (List.filter
             (fun p -> batom { Ground.gpred = "enrolled"; gargs = [ p; "t1" ] })
             [ "p1"; "p2"; "p3" ])
      in
      Alcotest.(check bool) "at least two enrolled" true (count >= 2)

let test_encode_numeric () =
  let f = "stock('i1) - 3 >= 0 and stock('i1) <= 4" in
  match check_formula f with
  | `Unsat -> Alcotest.fail "stock in [3,4] should be satisfiable"
  | `Sat (_, bnum) ->
      let v = bnum { Ground.gfun = "stock"; gnargs = [ "i1" ] } in
      Alcotest.(check bool) "stock between 3 and 4" true (v >= 3 && v <= 4)

let test_encode_numeric_unsat () =
  let f = "stock('i1) >= 5 and stock('i1) <= 4" in
  Alcotest.(check bool) "empty numeric interval" true (check_formula f = `Unsat)

let test_encode_numeric_bounds () =
  (* default bounds are [0,16]; a demand beyond is unsat *)
  let f = "stock('i1) >= 17" in
  Alcotest.(check bool) "beyond upper bound" true (check_formula f = `Unsat);
  let g = "stock('i1) < 0" in
  Alcotest.(check bool) "below lower bound" true (check_formula g = `Unsat)

let test_encode_eq_neq () =
  let f = "stock('i1) == 7" in
  (match check_formula f with
  | `Unsat -> Alcotest.fail "eq should be satisfiable"
  | `Sat (_, bnum) ->
      Alcotest.(check int) "stock exactly 7" 7
        (bnum { Ground.gfun = "stock"; gnargs = [ "i1" ] }));
  let g = "stock('i1) != 0 and stock('i1) <= 1" in
  match check_formula g with
  | `Unsat -> Alcotest.fail "neq should be satisfiable"
  | `Sat (_, bnum) ->
      Alcotest.(check int) "stock exactly 1" 1
        (bnum { Ground.gfun = "stock"; gnargs = [ "i1" ] })

let test_block_model_enumeration () =
  (* enumerate all models of "player(p1) or player(p2)" over 2 atoms *)
  let f =
    Ground.ground ~sg ~consts:[]
      ~dom:[ ("Player", [ "p1"; "p2" ]); ("Tournament", []); ("Item", []) ]
      (parse "player('p1) or player('p2)")
  in
  let ctx = Encode.create () in
  Encode.assert_formula ctx f;
  let atoms = Ground.atoms f in
  let rec enum acc =
    match Encode.solve ctx with
    | Sat ->
        let m = List.map (Encode.model_atom ctx) atoms in
        Encode.block_model ctx atoms;
        enum (m :: acc)
    | Unsat -> acc
  in
  let models = enum [] in
  Alcotest.(check int) "three models" 3 (List.length models)

let test_block_model_fresh_atom () =
  (* block_model over an atom the encoder has never seen: the atom gets
     a fresh variable reading false in the current model, so the
     blocking clause contains its positive literal and enumeration
     simply proceeds over the enlarged atom set *)
  let f =
    Ground.ground ~sg ~consts:[]
      ~dom:[ ("Player", [ "p1"; "p2" ]); ("Tournament", []); ("Item", []) ]
      (parse "player('p1) or player('p2)")
  in
  let ctx = Encode.create () in
  Encode.assert_formula ctx f;
  let fresh = { Ground.gpred = "tournament"; gargs = [ "t9" ] } in
  let atoms = Ground.atoms f @ [ fresh ] in
  (match Encode.solve ctx with
  | Sat -> Encode.block_model ctx atoms
  | Unsat -> Alcotest.fail "disjunction should be satisfiable");
  (* the solver stays usable and the next model differs on the atom set *)
  Alcotest.(check bool) "still satisfiable after blocking" true
    (Encode.solve ctx = Sat);
  (* full enumeration terminates with 3 (p1,p2)-models x 2 fresh values *)
  let rec enum n =
    match Encode.solve ctx with
    | Sat ->
        Encode.block_model ctx atoms;
        enum (n + 1)
    | Unsat -> n
  in
  Alcotest.(check int) "six models over enlarged atom set" 6 (1 + enum 0)

let test_sat_learnt_db_reduction () =
  (* a pigeonhole instance hard enough to learn past the initial DB cap:
     the verdict stays correct and the reduction counters are sane *)
  let n = 7 in
  let s = Sat.create () in
  let p =
    Array.init n (fun _ -> Array.init (n - 1) (fun _ -> Sat.new_var s))
  in
  for i = 0 to n - 1 do
    Sat.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to n - 2 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Sat.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "pigeonhole unsat" true (Sat.solve s = Sat.Unsat);
  let st = Sat.stats s in
  Alcotest.(check bool) "conflicts counted" true (st.Sat.n_conflicts > 0);
  Alcotest.(check bool) "clauses learnt" true (st.Sat.n_learnts > 0);
  Alcotest.(check bool) "learnt DB was reduced" true (st.Sat.n_removed > 0);
  Alcotest.(check bool) "removed at most created" true
    (st.Sat.n_removed < st.Sat.n_learnts)

(* ------------------------------------------------------------------ *)
(* Assumptions                                                         *)
(* ------------------------------------------------------------------ *)

(* the verdict of a fresh solver given [clauses] plus one unit clause per
   assumption *)
let fresh_verdict nvars clauses assumptions =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  List.iter (fun a -> Sat.add_clause s [ a ]) assumptions;
  is_sat (Sat.solve s)

(* on [Sat], the kept model satisfies every clause and assumption *)
let model_ok s clauses assumptions =
  List.for_all (fun c -> List.exists (Sat.model_value s) c) clauses
  && List.for_all (Sat.model_value s) assumptions

let gen_cnf nvars ~clauses =
  QCheck.Gen.(list_size clauses (list_size (int_range 1 3) (gen_lit nvars)))

let print_assumed (nvars, clauses, assumptions) =
  Printf.sprintf "nvars=%d\n%s\nassume %s" nvars
    (String.concat "\n"
       (List.map (fun c -> String.concat " " (List.map string_of_int c)) clauses))
    (String.concat " " (List.map string_of_int assumptions))

let prop_assumptions_match_units =
  QCheck.Test.make ~name:"solve ~assumptions = fresh solver plus unit clauses"
    ~count:300
    (QCheck.make ~print:print_assumed
       QCheck.Gen.(
         int_range 4 16 >>= fun nvars ->
         triple (return nvars)
           (gen_cnf nvars ~clauses:(int_range 1 (4 * nvars)))
           (list_size (int_range 0 5) (gen_lit nvars))))
    (fun (nvars, clauses, assumptions) ->
      let s = Sat.create () in
      for _ = 1 to nvars do
        ignore (Sat.new_var s)
      done;
      List.iter (Sat.add_clause s) clauses;
      let r = Sat.solve ~assumptions s in
      is_sat r = fresh_verdict nvars clauses assumptions
      && ((not (is_sat r)) || model_ok s clauses assumptions))

(* One instance answers a sequence of steps: clauses arrive between
   queries, each query under its own assumptions.  Each answer must be
   the fresh solver's over the clauses so far plus the assumptions.
   Unit clauses make later assumptions already false at level 0, and
   enough of them make the clauses themselves unsatisfiable. *)
type step = Add of int list | Query of int list

let print_steps (nvars, steps) =
  Printf.sprintf "nvars=%d\n%s" nvars
    (String.concat "\n"
       (List.map
          (function
            | Add c -> "add " ^ String.concat " " (List.map string_of_int c)
            | Query a -> "query " ^ String.concat " " (List.map string_of_int a))
          steps))

let run_steps nvars steps =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  let clauses = ref [] in
  let ok =
    List.for_all
      (function
        | Add c ->
            Sat.reset s;
            Sat.add_clause s c;
            clauses := c :: !clauses;
            true
        | Query assumptions ->
            let r = Sat.solve ~assumptions s in
            is_sat r = fresh_verdict nvars !clauses assumptions
            && ((not (is_sat r)) || model_ok s !clauses assumptions))
      steps
  in
  (ok, s)

let prop_assumption_sequence =
  QCheck.Test.make ~name:"assumption queries on one instance = fresh solves"
    ~count:300
    (QCheck.make ~print:print_steps
       QCheck.Gen.(
         int_range 3 10 >>= fun nvars ->
         let step =
           frequency
             [
               (3, map (fun c -> Add c) (list_size (int_range 1 3) (gen_lit nvars)));
               (1, map (fun l -> Add [ l ]) (gen_lit nvars));
               (4, map (fun a -> Query a) (list_size (int_range 0 4) (gen_lit nvars)));
             ]
         in
         pair (return nvars) (list_size (int_range 1 40) step)))
    (fun (nvars, steps) -> fst (run_steps nvars steps))

(* the two edge cases the property must cover, spelled out *)
let test_assumption_edges () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [ a; b ];
  Sat.add_clause s [ -a ];
  Alcotest.(check bool) "assumption false at level 0" false
    (is_sat (Sat.solve ~assumptions:[ a ] s));
  Alcotest.(check bool) "usable after a failed assumption" true
    (is_sat (Sat.solve ~assumptions:[ b ] s));
  Alcotest.(check bool) "model keeps the implied literal" true
    (Sat.model_value s b);
  Alcotest.(check bool) "conflicting assumptions" false
    (is_sat (Sat.solve ~assumptions:[ b; -b ] s));
  Sat.reset s;
  Sat.add_clause s [ -b ];
  Alcotest.(check bool) "level-0 unsat" false (is_sat (Sat.solve s));
  Alcotest.(check bool) "stays unsat under any assumption" false
    (is_sat (Sat.solve ~assumptions:[ -a ] s))

(* Learnt clauses pile up across the queries of one instance (an
   analysis frame's solver keeps them all), so the learnt-clause DB
   reduction must run, and the answers after it must still be the fresh
   solver's.  A random 3-CNF near the threshold with many variables
   and a long sequence of 3-literal assumption queries crosses the
   default allowance of [max 256 (clauses / 3)] learnt clauses. *)
let test_assumptions_reduce_db () =
  let nvars = 150 in
  let rng = Random.State.make [| 11 |] in
  let lit () =
    let v = 1 + Random.State.int rng nvars in
    if Random.State.bool rng then v else -v
  in
  let clauses = List.init (41 * nvars / 10) (fun _ -> [ lit (); lit (); lit () ]) in
  let steps =
    List.map (fun c -> Add c) clauses
    @ List.init 400 (fun _ -> Query [ lit (); lit (); lit () ])
  in
  let ok, s = run_steps nvars steps in
  let st = Sat.stats s in
  Alcotest.(check bool) "every answer = fresh solve" true ok;
  Alcotest.(check bool)
    (Printf.sprintf "learnt DB reduced (%d learnt, %d removed)" st.Sat.n_learnts
       st.Sat.n_removed)
    true (st.Sat.n_removed > 0)

(* property: encoder verdict matches direct evaluation search over small
   boolean-only formulas *)
let gen_bool_formula : Ast.formula QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_atom =
    oneofl
      [
        Ast.Atom ("player", [ Ast.Const "p1" ]);
        Ast.Atom ("player", [ Ast.Const "p2" ]);
        Ast.Atom ("tournament", [ Ast.Const "t1" ]);
        Ast.Atom ("enrolled", [ Ast.Const "p1"; Ast.Const "t1" ]);
      ]
  in
  fix
    (fun self n ->
      if n = 0 then gen_atom
      else
        frequency
          [
            (2, gen_atom);
            (2, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Ast.Implies (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Ast.Iff (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Ast.Not a) (self (n - 1)));
          ])
    6

let prop_encode_matches_eval =
  QCheck.Test.make ~name:"solver verdict matches exhaustive evaluation"
    ~count:200
    (QCheck.make gen_bool_formula ~print:Pp.formula_to_string)
    (fun f ->
      let g = ground f in
      let atoms = Ground.atoms g in
      let n = List.length atoms in
      let exhaustive_sat =
        let rec go i (assign : (Ground.gatom * bool) list) =
          if i = n then
            Ground.eval
              ~batom:(fun a -> List.assoc a assign)
              ~bnum:(fun _ -> 0)
              g
          else
            let a = List.nth atoms i in
            go (i + 1) ((a, true) :: assign)
            || go (i + 1) ((a, false) :: assign)
        in
        go 0 []
      in
      let solver_sat =
        match Encode.check ~sg ~consts:[] ~dom f with
        | `Sat _ -> true
        | `Unsat -> false
      in
      exhaustive_sat = solver_sat)

(* random ground formulas with cardinality atoms: solver verdict matches
   exhaustive evaluation *)
let prop_cardinality_matches_eval =
  QCheck.Test.make ~name:"cardinality verdicts match exhaustive evaluation"
    ~count:150
    QCheck.(
      make
        Gen.(
          let gen_card_cmp =
            map2
              (fun op k ->
                Ast.Cmp
                  ( op,
                    Ast.Card ("enrolled", [ Ast.Star; Ast.Const "t1" ]),
                    Ast.Int k ))
              (oneofl [ Ast.Le; Ast.Lt; Ast.Ge; Ast.Gt; Ast.EqN; Ast.NeN ])
              (int_bound 4)
          in
          let gen_atom =
            oneof
              [
                gen_card_cmp;
                oneofl
                  [
                    Ast.Atom ("player", [ Ast.Const "p1" ]);
                    Ast.Atom ("enrolled", [ Ast.Const "p1"; Ast.Const "t1" ]);
                    Ast.Atom ("enrolled", [ Ast.Const "p2"; Ast.Const "t1" ]);
                  ];
              ]
          in
          fix
            (fun self n ->
              if n = 0 then gen_atom
              else
                frequency
                  [
                    (3, gen_atom);
                    (2, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
                    (1, map (fun a -> Ast.Not a) (self (n - 1)));
                  ])
            4))
    (fun f ->
      let g = ground f in
      let atoms = Ground.atoms g in
      let n = List.length atoms in
      let exhaustive =
        let rec go i assign =
          if i = n then
            Ground.eval ~batom:(fun a -> List.assoc a assign) ~bnum:(fun _ -> 0) g
          else
            let a = List.nth atoms i in
            go (i + 1) ((a, true) :: assign) || go (i + 1) ((a, false) :: assign)
        in
        go 0 []
      in
      let solver =
        match Encode.check ~sg ~consts:[ ("Capacity", 2) ] ~dom f with
        | `Sat _ -> true
        | `Unsat -> false
      in
      exhaustive = solver)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sat_matches_bruteforce; prop_sat_model_satisfies;
      prop_replays_reference "random 3-CNF" 300 gen_3cnf;
      prop_replays_reference "PHP(n+1,n)" 100 gen_php;
      prop_replays_reference "at_least mixes" 300 gen_at_least_mix;
      prop_assumptions_match_units; prop_assumption_sequence;
      prop_encode_matches_eval; prop_cardinality_matches_eval ]

let () =
  Alcotest.run "ipa_solver"
    [
      ( "sat",
        [
          Alcotest.test_case "trivial" `Quick test_sat_trivial;
          Alcotest.test_case "contradiction" `Quick test_sat_contradiction;
          Alcotest.test_case "empty clause" `Quick test_sat_empty_clause;
          Alcotest.test_case "no clauses" `Quick test_sat_no_clauses;
          Alcotest.test_case "implication chain" `Quick
            test_sat_implication_chain;
          Alcotest.test_case "pigeonhole 3-2" `Quick test_sat_pigeonhole_3_2;
          Alcotest.test_case "incremental" `Quick test_sat_incremental;
          Alcotest.test_case "learnt DB reduction" `Quick
            test_sat_learnt_db_reduction;
          Alcotest.test_case "assumption edge cases" `Quick
            test_assumption_edges;
          Alcotest.test_case "learnt DB reduction across assumptions" `Quick
            test_assumptions_reduce_db;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "at_least exhaustive" `Quick
            test_at_least_exhaustive;
          Alcotest.test_case "at_least negated" `Quick test_at_least_negated;
          Alcotest.test_case "gates" `Quick test_gates;
        ] );
      ( "encode",
        [
          Alcotest.test_case "sat model evaluates true" `Quick
            test_encode_sat_model_evals_true;
          Alcotest.test_case "unsat" `Quick test_encode_unsat;
          Alcotest.test_case "cardinality" `Quick test_encode_cardinality;
          Alcotest.test_case "cardinality negated" `Quick
            test_encode_cardinality_negated;
          Alcotest.test_case "numeric" `Quick test_encode_numeric;
          Alcotest.test_case "numeric unsat" `Quick test_encode_numeric_unsat;
          Alcotest.test_case "numeric bounds" `Quick test_encode_numeric_bounds;
          Alcotest.test_case "eq/neq" `Quick test_encode_eq_neq;
          Alcotest.test_case "model enumeration" `Quick
            test_block_model_enumeration;
          Alcotest.test_case "block_model on fresh atom" `Quick
            test_block_model_fresh_atom;
        ] );
      ("properties", qcheck_tests);
    ]
