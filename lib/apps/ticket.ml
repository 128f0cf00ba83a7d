(** The Ticket application (FusionTicket, §5.1.2 / Figure 7).

    Invariant: tickets for an event cannot be oversold
    ([available(e) >= 0]).  The [Causal] variant keeps availability in a
    plain PN-counter: the operation checks the local value before buying,
    but concurrent buys at different replicas can still drive it
    negative — each read that observes a negative value counts violation
    units (the red dots of Figure 7).  The [Ipa] variant uses the
    {!Ipa_crdt.Compcounter}: reads repair the violation by cancelling the
    oversold tickets and reimbursing the buyers (the compensation commits
    with the reading transaction).  The [Escrow] variant keeps
    availability in a {!Ipa_crdt.Bcounter}, whose replicated decrement
    rights prevent overselling outright. *)

open Ipa_crdt
open Ipa_store
open Ipa_runtime
open App_ops

type variant =
  | Causal  (** plain PN-counter: overselling possible *)
  | Ipa  (** compensation counter: overselling repaired on read (§3.4) *)
  | Escrow
      (** pre-partitioned decrement rights (the escrow technique the
          paper cites [11, 27, 35]) in a replicated bounded counter:
          overselling is {e prevented}, but a replica whose rights run
          out must fetch half of the richest peer's ({!Rights.fetch}) —
          the coordination round-trip IPA avoids, charged to the
          operation via [extra_rtts]. *)

type t = {
  variant : variant;
  initial_stock : int;
  mutable cluster : Cluster.t option;
      (** the peers an escrow fetch draws on, set by {!seed_data} *)
}

let create ?(initial_stock = 100) (variant : variant) : t =
  { variant; initial_stock; cluster = None }

let k_events = "events"
let k_avail e = "avail:" ^ e

(* availability accessors per variant *)
let avail_value (app : t) tx key : int =
  match app.variant with
  | Causal -> Pncounter.value (Obj.as_pncounter (Txn.get tx key Obj.T_pncounter))
  | Ipa ->
      Compcounter.raw_value
        (Obj.as_compcounter (Txn.get tx key (Obj.T_compcounter { min_value = 0 })))
  | Escrow -> Bcounter.value (Obj.as_bcounter (Txn.get tx key Obj.T_bcounter))

let avail_delta (app : t) tx key d : unit =
  match app.variant with
  | Causal ->
      let c = Obj.as_pncounter (Txn.get tx key Obj.T_pncounter) in
      Txn.update tx key
        (Obj.Op_pncounter (Pncounter.prepare c ~rep:tx.Txn.rep.Replica.id d))
  | Ipa ->
      let c =
        Obj.as_compcounter (Txn.get tx key (Obj.T_compcounter { min_value = 0 }))
      in
      Txn.update tx key
        (Obj.Op_compcounter
           (Compcounter.prepare_delta c ~rep:tx.Txn.rep.Replica.id d))
  | Escrow ->
      (* restocks only: the increment grants its rights to this replica *)
      let c = Obj.as_bcounter (Txn.get tx key Obj.T_bcounter) in
      Txn.update tx key
        (Obj.Op_bcounter (Bcounter.prepare_inc c ~rep:tx.Txn.rep.Replica.id d))

(** Buy one ticket.  The application checks availability first (its
    precondition); overselling can still happen via concurrency in the
    Causal and IPA variants.  The Escrow variant can never oversell:
    when the local rights are exhausted it fetches rights from the
    richest peer — a coordination round-trip, reported via
    [extra_rtts] so the runtime charges WAN latency for it. *)
let buy_ticket (app : t) (e : string) : Config.op_exec =
  mk "buy_ticket" true [ (k_avail e, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      let key = k_avail e in
      if avail_value app tx key <= 0 then begin
        Txn.abort tx;
        Config.outcome None (* sold out: no effect *)
      end
      else
        match (app.variant, app.cluster) with
        | Escrow, Some cluster ->
            Txn.abort tx;
            Escrow.outcome (Rights.fetch cluster Rights.Rights rep ~key)
        | Escrow, None -> invalid_arg "Ticket.buy_ticket: seed_data first"
        | (Causal | Ipa), _ ->
            avail_delta app tx key (-1);
            Config.outcome (Txn.commit tx))

(** Read an event's availability.  Causal observes (and counts) raw
    violations; IPA repairs them through the compensation counter. *)
let read_event (app : t) (e : string) : Config.op_exec =
  mk "read_event" false [] (fun rep ->
      let tx = Txn.begin_ rep in
      let key = k_avail e in
      match app.variant with
      | Causal ->
          (* the anomaly is visible to the user: a negative availability
             can be observed.  Violation counting happens by periodic
             state sampling in the harness (the paper's red dots). *)
          let _v =
            Pncounter.value (Obj.as_pncounter (Txn.get tx key Obj.T_pncounter))
          in
          ignore (Txn.commit tx);
          Config.outcome None
      | Escrow ->
          let v = avail_value app tx key in
          ignore (Txn.commit tx);
          (* escrow never oversells: a negative value would be a bug *)
          Config.outcome ~violations:(max 0 (-v)) None
      | Ipa ->
          let c =
            Obj.as_compcounter
              (Txn.get tx key (Obj.T_compcounter { min_value = 0 }))
          in
          let _value, comp_ops, violations = Compcounter.read c ~rep:rep.Replica.id in
          List.iter (fun op -> Txn.update tx key (Obj.Op_compcounter op)) comp_ops;
          Config.outcome ~violations ~extra_work:1 (Txn.commit tx))

let add_tickets (app : t) (e : string) (n : int) : Config.op_exec =
  mk "add_tickets" true [ (k_avail e, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      avail_delta app tx (k_avail e) n;
      Config.outcome (Txn.commit tx))

(** Total oversold tickets in the state a user observes at [rep]: the
    sum of negative availabilities.  For IPA the observable state is the
    read-repaired one (never negative); for Causal the anomaly is
    permanent. *)
let oversell_depth (app : t) (rep : Replica.t) (events : string list) : int =
  ignore app;
  List.fold_left
    (fun acc e ->
      match Replica.peek rep (k_avail e) with
      | Some (Obj.O_pncounter c) -> acc + max 0 (-Pncounter.value c)
      | Some (Obj.O_compcounter c) ->
          (* what a read returns after compensation *)
          let v, _, _ = Compcounter.read c ~rep:rep.Replica.id in
          acc + max 0 (-v)
      | Some (Obj.O_bcounter c) -> acc + max 0 (-Bcounter.value c)
      | None -> acc
      | _ -> acc)
    0 events

(* ------------------------------------------------------------------ *)
(* Workload (Figure 7: contention-heavy buys)                          *)
(* ------------------------------------------------------------------ *)

type workload_params = {
  n_events : int;  (** fewer events = more contention *)
  buy_ratio : float;
  restock_ratio : float;
      (** fraction of operations releasing a few extra tickets, so
          availability keeps hovering around the bound (sustained
          contention, as in Figure 7's load sweep) *)
  restock_amount : int;
}

let default_params =
  { n_events = 10; buy_ratio = 0.5; restock_ratio = 0.05; restock_amount = 2 }

let event wp rng = Fmt.str "e%d" (Ipa_sim.Rng.int rng wp.n_events)

let next_op (app : t) (wp : workload_params) (rng : Ipa_sim.Rng.t)
    ~(region : string) : Config.op_exec =
  ignore region;
  let r = Ipa_sim.Rng.float rng in
  if r < wp.buy_ratio then buy_ticket app (event wp rng)
  else if r < wp.buy_ratio +. wp.restock_ratio then
    add_tickets app (event wp rng) wp.restock_amount
  else read_event app (event wp rng)

let seed_data (app : t) (wp : workload_params) (cluster : Cluster.t) : unit =
  app.cluster <- Some cluster;
  let rep = List.hd cluster.Cluster.replicas in
  let tx = Txn.begin_ rep in
  for i = 0 to wp.n_events - 1 do
    let e = Fmt.str "e%d" i in
    let s = Obj.as_awset (Txn.get tx k_events Obj.T_awset) in
    Txn.update tx k_events
      (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) e));
    match app.variant with
    | Escrow ->
        (* pre-partition the decrement rights among the replicas, an
           equal floor share each — the coordination-free setup the
           escrow technique relies on *)
        let ids =
          List.map
            (fun (r : Replica.t) -> r.Replica.id)
            cluster.Cluster.replicas
        in
        let share = app.initial_stock / List.length ids in
        List.iter
          (fun op -> Txn.update tx (k_avail e) (Obj.Op_bcounter op))
          (Escrow.seed
             ~shares:(List.map (fun id -> (id, share)) ids)
             ~value:(share * List.length ids) ())
    | Causal | Ipa -> avail_delta app tx (k_avail e) app.initial_stock
  done;
  match Txn.commit tx with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fuzzer hooks                                                        *)
(* ------------------------------------------------------------------ *)

(** Fuzzable operations: name and parameter sorts ([add_tickets] takes
    its amount as a literal-integer second argument). *)
let fuzz_ops : (string * string list) list =
  [
    ("buy_ticket", [ "Event" ]);
    ("read_event", [ "Event" ]);
    ("add_tickets", [ "Event"; "#amount" ]);
  ]

(** Dispatch an operation by name with positional string arguments;
    [None] on an unknown name, wrong arity or a malformed amount. *)
let exec_op (app : t) (name : string) (args : string list) :
    Config.op_exec option =
  match (name, args) with
  | "buy_ticket", [ e ] -> Some (buy_ticket app e)
  | "read_event", [ e ] -> Some (read_event app e)
  | "add_tickets", [ e; n ] ->
      Option.map (add_tickets app e) (int_of_string_opt n)
  | _ -> None
