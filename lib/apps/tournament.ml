(** The Tournament application (Figure 1) over the replicated store.

    Two variants share the same data layout:
    - [Causal]: the original operations, which can violate the
      invariants under concurrency;
    - [Ipa]: the IPA-modified operations of Figure 3 — [enroll] touches
      the player and tournament indexes, [begin]/[finish] touch the
      tournament index, [do_match] re-ensures both enrollments, and the
      per-tournament enrollment sets are Compensation Sets enforcing the
      capacity bound on read.

    Data layout (one object per predicate, per the prototype §4.1):
    - ["players"]            add-wins set (payload: player info)
    - ["tournaments"]        add-wins set
    - ["enrolled:<t>"]       add-wins set (Causal) / compensation set (IPA)
    - ["active"]             rem-wins set (Figure 3's [tStarted])
    - ["finished"]           add-wins set
    - ["matches:<t>"]        add-wins set of ["p|q"] pairs *)

open Ipa_crdt
open Ipa_store
open Ipa_runtime
open App_ops

type variant = Causal | Ipa

type t = { variant : variant; capacity : int }

let create ?(capacity = 10) (variant : variant) : t = { variant; capacity }

let k_players = "players"
let k_tournaments = "tournaments"
let k_active = "active"
let k_finished = "finished"
let k_enrolled t = "enrolled:" ^ t
let k_matches t = "matches:" ^ t

(* ------------------------------------------------------------------ *)
(* Store helpers                                                       *)
(* ------------------------------------------------------------------ *)

let rw_get tx key = Obj.as_rwset (Txn.get tx key Obj.T_rwset)

let rw_add tx key e =
  let s = rw_get tx key in
  Txn.update tx key
    (Obj.Op_rwset
       (Rwset.prepare_add s ~dot:(Txn.fresh_dot tx) ~vv:(Txn.current_vv tx) e))

let rw_remove tx key e =
  let s = rw_get tx key in
  Txn.update tx key
    (Obj.Op_rwset (Rwset.prepare_remove s ~vv:(Txn.fresh_vv tx) e))

(* enrollment sets: plain awset for Causal, compensation set for IPA *)
let enrolled_read (app : t) tx tname : string list * int =
  match app.variant with
  | Causal ->
      let s = aw_get tx (k_enrolled tname) in
      let elems = Awset.elements s in
      (* no repair: over-capacity is an observed violation *)
      let violations = max 0 (List.length elems - app.capacity) in
      (elems, violations)
  | Ipa ->
      let key = k_enrolled tname in
      let s =
        Obj.as_compset (Txn.get tx key (Obj.T_compset { max_size = app.capacity }))
      in
      let visible, comp_ops = Compset.read s in
      List.iter (fun op -> Txn.update tx key (Obj.Op_compset op)) comp_ops;
      (visible, 0)

let enrolled_add (app : t) tx tname p =
  match app.variant with
  | Causal -> aw_add tx (k_enrolled tname) p
  | Ipa ->
      let key = k_enrolled tname in
      let s =
        Obj.as_compset (Txn.get tx key (Obj.T_compset { max_size = app.capacity }))
      in
      Txn.update tx key
        (Obj.Op_compset (Compset.prepare_add s ~dot:(Txn.fresh_dot tx) p))

let enrolled_touch (app : t) tx tname p =
  match app.variant with
  | Causal -> aw_touch tx (k_enrolled tname) p
  | Ipa ->
      let key = k_enrolled tname in
      let s =
        Obj.as_compset (Txn.get tx key (Obj.T_compset { max_size = app.capacity }))
      in
      Txn.update tx key
        (Obj.Op_compset (Compset.prepare_touch s ~dot:(Txn.fresh_dot tx) p))

let enrolled_remove (app : t) tx tname p =
  match app.variant with
  | Causal -> aw_remove tx (k_enrolled tname) p
  | Ipa ->
      let key = k_enrolled tname in
      let s =
        Obj.as_compset (Txn.get tx key (Obj.T_compset { max_size = app.capacity }))
      in
      Txn.update tx key (Obj.Op_compset (Compset.prepare_remove s p))

(* the ensure* auxiliary functions of Figure 3 *)
let ensure_enroll (app : t) tx p tname =
  match app.variant with
  | Causal -> ()
  | Ipa ->
      aw_touch tx k_tournaments tname;
      aw_touch tx k_players p

let ensure_begin (app : t) tx tname =
  match app.variant with Causal -> () | Ipa -> aw_touch tx k_tournaments tname

let ensure_end (app : t) tx tname =
  match app.variant with Causal -> () | Ipa -> aw_touch tx k_tournaments tname

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let sh r = (r, Config.Shared)
let ex r = (r, Config.Exclusive)

(* Operations check their preconditions against the local replica state
   (the application code of §2.2): unmet preconditions abort the
   transaction.  Conflicts arise only from concurrent executions at
   other replicas. *)

let write_txn (rep : Replica.t) (body : Txn.t -> bool) : Config.outcome =
  let tx = Txn.begin_ rep in
  if body tx then Config.outcome (Txn.commit tx)
  else begin
    Txn.abort tx;
    Config.outcome None
  end

let add_player (_ : t) (p : string) : Config.op_exec =
  mk "add_player" true [ sh ("player:" ^ p) ] (fun rep ->
      write_txn rep (fun tx ->
          aw_add ~payload:("info:" ^ p) tx k_players p;
          true))

let rem_player (app : t) (p : string) : Config.op_exec =
  mk "rem_player" true [ ex ("player:" ^ p) ] (fun rep ->
      write_txn rep (fun tx ->
          let enrolled_somewhere =
            List.exists
              (fun tname -> List.mem p (fst (enrolled_read app tx tname)))
              (Awset.elements (aw_get tx k_tournaments))
          in
          if Awset.mem p (aw_get tx k_players) && not enrolled_somewhere
          then begin
            aw_remove tx k_players p;
            true
          end
          else false))

let add_tourn (_ : t) (tname : string) : Config.op_exec =
  mk "add_tourn" true [ sh ("tourn:" ^ tname) ] (fun rep ->
      write_txn rep (fun tx ->
          aw_add tx k_tournaments tname;
          true))

let rem_tourn (app : t) (tname : string) : Config.op_exec =
  mk "rem_tourn" true
    [ ex ("tourn:" ^ tname); ex (k_enrolled tname) ]
    (fun rep ->
      write_txn rep (fun tx ->
          let enrolled, _ = enrolled_read app tx tname in
          if
            Awset.mem tname (aw_get tx k_tournaments)
            && enrolled = []
            && (not (Rwset.mem tname (rw_get tx k_active)))
            && not (Awset.mem tname (aw_get tx k_finished))
          then begin
            aw_remove tx k_tournaments tname;
            true
          end
          else false))

let enroll (app : t) (p : string) (tname : string) : Config.op_exec =
  mk "enroll" true
    [ sh ("player:" ^ p); sh ("tourn:" ^ tname); sh (k_enrolled tname) ]
    (fun rep ->
      write_txn rep (fun tx ->
          let enrolled, _ = enrolled_read app tx tname in
          if
            Awset.mem p (aw_get tx k_players)
            && Awset.mem tname (aw_get tx k_tournaments)
            && List.length enrolled < app.capacity
            && not (List.mem p enrolled)
          then begin
            enrolled_add app tx tname p;
            ensure_enroll app tx p tname;
            true
          end
          else false))

(* is player [p] part of any match of tournament [tname]? *)
let in_any_match tx tname p =
  List.exists
    (fun pq ->
      match String.split_on_char '|' pq with
      | [ a; b ] -> a = p || b = p
      | _ -> false)
    (Awset.elements (aw_get tx (k_matches tname)))

let disenroll (app : t) (p : string) (tname : string) : Config.op_exec =
  mk "disenroll" true [ sh (k_enrolled tname) ] (fun rep ->
      write_txn rep (fun tx ->
          let enrolled, _ = enrolled_read app tx tname in
          if List.mem p enrolled && not (in_any_match tx tname p) then begin
            enrolled_remove app tx tname p;
            true
          end
          else false))

let begin_tourn (app : t) (tname : string) : Config.op_exec =
  mk "begin_tourn" true [ sh ("tourn:" ^ tname); sh ("active:" ^ tname) ] (fun rep ->
      write_txn rep (fun tx ->
          if
            Awset.mem tname (aw_get tx k_tournaments)
            && not (Awset.mem tname (aw_get tx k_finished))
          then begin
            rw_add tx k_active tname;
            ensure_begin app tx tname;
            true
          end
          else false))

let finish_tourn (app : t) (tname : string) : Config.op_exec =
  mk "finish_tourn" true [ sh ("tourn:" ^ tname); sh ("active:" ^ tname) ] (fun rep ->
      write_txn rep (fun tx ->
          if Rwset.mem tname (rw_get tx k_active) then begin
            aw_add tx k_finished tname;
            rw_remove tx k_active tname;
            ensure_end app tx tname;
            true
          end
          else false))

let do_match (app : t) (p : string) (q : string) (tname : string) :
    Config.op_exec =
  mk "do_match" true
    [ sh (k_enrolled tname); sh ("tourn:" ^ tname) ]
    (fun rep ->
      write_txn rep (fun tx ->
          let enrolled, _ = enrolled_read app tx tname in
          let started =
            Rwset.mem tname (rw_get tx k_active)
            || Awset.mem tname (aw_get tx k_finished)
          in
          if List.mem p enrolled && List.mem q enrolled && started && p <> q
          then begin
            aw_add tx (k_matches tname) (p ^ "|" ^ q);
            (match app.variant with
            | Causal -> ()
            | Ipa ->
                enrolled_touch app tx tname p;
                enrolled_touch app tx tname q);
            ensure_enroll app tx p tname;
            ensure_enroll app tx q tname;
            true
          end
          else false))

(** Read-only status of a tournament: who is enrolled, is it active.
    In IPA mode this read triggers the capacity compensation; the
    compensation cascades: matches involving an evicted player are
    removed too, so the repair itself preserves the other invariants
    (resolutions compose, §3.3). *)
let status (app : t) (tname : string) : Config.op_exec =
  mk "status" false [] (fun rep ->
      let tx = Txn.begin_ rep in
      let enrolled, violations = enrolled_read app tx tname in
      (match app.variant with
      | Causal -> ()
      | Ipa ->
          (* cascade: drop matches whose players were evicted by the
             capacity compensation (deterministic at every replica) *)
          List.iter
            (fun pq ->
              match String.split_on_char '|' pq with
              | [ a; b ] when List.mem a enrolled && List.mem b enrolled -> ()
              | _ -> aw_remove tx (k_matches tname) pq)
            (Awset.elements (aw_get tx (k_matches tname))));
      let active = Rwset.mem tname (rw_get tx k_active) in
      ignore active;
      let extra_work = List.length enrolled in
      Config.outcome ~violations ~extra_work (Txn.commit tx))

(* ------------------------------------------------------------------ *)
(* Workload (§5.2.2: 35% writes, the Figure 5 operation mix)           *)
(* ------------------------------------------------------------------ *)

type workload_params = {
  n_players : int;
  n_tournaments : int;
  write_ratio : float;  (** fraction of update operations (0.35) *)
}

let default_params =
  { n_players = 200; n_tournaments = 20; write_ratio = 0.35 }

let player wp rng = Fmt.str "p%d" (Ipa_sim.Rng.int rng wp.n_players)
let tourn wp rng = Fmt.str "t%d" (Ipa_sim.Rng.int rng wp.n_tournaments)

(** Draw an operation from the Tournament mix. *)
let next_op (app : t) (wp : workload_params) (rng : Ipa_sim.Rng.t)
    ~(region : string) : Config.op_exec =
  ignore region;
  if not (Ipa_sim.Rng.flip rng wp.write_ratio) then status app (tourn wp rng)
  else
    match Ipa_sim.Rng.int rng 8 with
    | 0 -> add_player app (player wp rng)
    | 1 -> rem_player app (player wp rng)
    | 2 -> enroll app (player wp rng) (tourn wp rng)
    | 3 -> disenroll app (player wp rng) (tourn wp rng)
    | 4 -> begin_tourn app (tourn wp rng)
    | 5 -> finish_tourn app (tourn wp rng)
    | 6 -> do_match app (player wp rng) (player wp rng) (tourn wp rng)
    | _ -> if Ipa_sim.Rng.flip rng 0.5 then add_tourn app (tourn wp rng)
           else rem_tourn app (tourn wp rng)

(** Populate initial players and tournaments at one replica. *)
let seed_data (app : t) (wp : workload_params) (cluster : Cluster.t) : unit =
  let rep = List.hd cluster.Cluster.replicas in
  let tx = Txn.begin_ rep in
  for i = 0 to wp.n_players - 1 do
    aw_add ~payload:(Fmt.str "info:p%d" i) tx k_players (Fmt.str "p%d" i)
  done;
  for i = 0 to wp.n_tournaments - 1 do
    aw_add tx k_tournaments (Fmt.str "t%d" i)
  done;
  ignore app;
  match Txn.commit tx with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fuzzer hooks                                                        *)
(* ------------------------------------------------------------------ *)

(** Fuzzable operations: name and parameter sorts, matching the catalog
    specification (plus [status], the read that triggers the capacity
    compensation in IPA mode). *)
let fuzz_ops : (string * string list) list =
  [
    ("add_player", [ "Player" ]);
    ("rem_player", [ "Player" ]);
    ("add_tourn", [ "Tournament" ]);
    ("rem_tourn", [ "Tournament" ]);
    ("enroll", [ "Player"; "Tournament" ]);
    ("disenroll", [ "Player"; "Tournament" ]);
    ("begin_tourn", [ "Tournament" ]);
    ("finish_tourn", [ "Tournament" ]);
    ("do_match", [ "Player"; "Player"; "Tournament" ]);
    ("status", [ "Tournament" ]);
  ]

(** Dispatch an operation by name with positional string arguments;
    [None] on an unknown name or wrong arity. *)
let exec_op (app : t) (name : string) (args : string list) :
    Config.op_exec option =
  match (name, args) with
  | "add_player", [ p ] -> Some (add_player app p)
  | "rem_player", [ p ] -> Some (rem_player app p)
  | "add_tourn", [ t ] -> Some (add_tourn app t)
  | "rem_tourn", [ t ] -> Some (rem_tourn app t)
  | "enroll", [ p; t ] -> Some (enroll app p t)
  | "disenroll", [ p; t ] -> Some (disenroll app p t)
  | "begin_tourn", [ t ] -> Some (begin_tourn app t)
  | "finish_tourn", [ t ] -> Some (finish_tourn app t)
  | "do_match", [ p; q; t ] -> Some (do_match app p q t)
  | "status", [ t ] -> Some (status app t)
  | _ -> None
