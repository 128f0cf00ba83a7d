(** The paper's running example end to end: analyze the Tournament
    application (Figure 1), inspect the rem_tourn/enroll conflict
    (Figure 2), reproduce the Figure 3 modifications, and demonstrate the
    repaired semantics on a live 3-region replicated store.

    Run with: [dune exec examples/tournament_analysis.exe] *)

open Ipa_spec
open Ipa_core
open Ipa_crdt
open Ipa_store
open Ipa_apps

let section title = Fmt.pr "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)
(* ------------------------------------------------------------------ *)

let analysis () =
  let spec = Catalog.tournament () in
  section "Figure 2: the rem_tourn || enroll conflict";
  let op name = Detect.aop_of (Option.get (Types.find_op spec name)) in
  let ctx = Anactx.create () in
  (match Detect.check_pair ~ctx spec (op "rem_tourn") (op "enroll") with
  | Detect.Conflict w ->
      Fmt.pr "%s@." (Report.witness_to_string ~op1:"rem_tourn" ~op2:"enroll" w)
  | Detect.Safe -> assert false);

  section "Proposed resolutions (programmer picks one)";
  let sols =
    Repair.repair_conflicts ~search_rules:true ~ctx spec
      (op "rem_tourn", op "enroll")
  in
  List.iteri
    (fun i s -> Fmt.pr "option %d:@.%a@.@." (i + 1) Repair.pp_solution s)
    sols;

  section "Figure 3: the full IPA run over all nine operations";
  let report = Ipa.run spec in
  Fmt.pr "%s@." (Report.report_to_string report)

(* ------------------------------------------------------------------ *)
(* Runtime demonstration                                               *)
(* ------------------------------------------------------------------ *)

(* Replay the Figure 2 scenario on the real store: east enrolls a player
   while west concurrently removes the tournament. *)
let runtime_demo (variant : Tournament.variant) =
  let cluster =
    Cluster.create
      [ ("dc-east", "us-east"); ("dc-west", "us-west"); ("dc-eu", "eu-west") ]
  in
  let app = Tournament.create variant in
  let east = Cluster.replica cluster "dc-east" in
  let west = Cluster.replica cluster "dc-west" in

  (* set up: a player and a tournament, fully replicated *)
  let run rep (op : Ipa_runtime.Config.op_exec) =
    match (op.Ipa_runtime.Config.run rep).Ipa_runtime.Config.batch with
    | Some b -> Cluster.broadcast_now cluster b
    | None -> ()
  in
  run east (Tournament.add_player app "alice");
  run east (Tournament.add_tourn app "cup");

  (* concurrent: enroll at east, remove tournament at west — neither has
     seen the other *)
  let b_enroll =
    (Tournament.enroll app "alice" "cup").Ipa_runtime.Config.run east
  in
  let b_rem =
    (Tournament.rem_tourn app "cup").Ipa_runtime.Config.run west
  in
  (match b_enroll.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> Fmt.pr "(enroll aborted)@.");
  (match b_rem.Ipa_runtime.Config.batch with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> Fmt.pr "(rem_tourn aborted: west already saw the enrollment)@.");

  (* after convergence: evaluate the spec's invariants on the stored
     state, over the scenario's own player and tournament *)
  let h = Ipa_check.Harness.make ~app:"tournament" ~repaired:false in
  let batom, bnum = h.valuation east in
  let dom = [ ("Player", [ "alice" ]); ("Tournament", [ "cup" ]) ] in
  let violated =
    List.filter_map
      (fun (i : Types.invariant) ->
        let g =
          Ipa_logic.Ground.ground ~sg:h.sg ~consts:h.consts ~dom i.iformula
        in
        if Ipa_logic.Ground.eval ~batom ~bnum g then None else Some i.iname)
      h.checked
  in
  let tournaments =
    match Replica.peek east "tournaments" with
    | Some o -> Awset.elements (Obj.as_awset o)
    | None -> []
  in
  let enrolled =
    match Replica.peek east "enrolled:cup" with
    | Some (Obj.O_awset s) -> Awset.elements s
    | Some (Obj.O_compset c) -> fst (Compset.read c)
    | _ -> []
  in
  Fmt.pr "converged state: tournaments={%s} enrolled:cup={%s}@."
    (String.concat "; " tournaments)
    (String.concat "; " enrolled);
  Fmt.pr "violated invariants: {%s}@." (String.concat "; " violated)

let () =
  analysis ();
  section "Runtime: Causal (unmodified) — the anomaly is real";
  runtime_demo Tournament.Causal;
  section "Runtime: IPA (Figure 3 modifications) — the add wins, state repaired";
  runtime_demo Tournament.Ipa
