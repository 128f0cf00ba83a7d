(** TPC-C / TPC-W slice (§5.1.2).

    The paper extends the standard benchmarks with product-listing
    management (referential integrity between order lines and listed
    items) and handles the stock invariant with the restock compensation
    the benchmark specification itself prescribes.

    - [Causal]: unmodified — concurrent [new_order]s can drive stock
      negative; order lines can reference concurrently-removed items.
    - [Ipa]: [new_order] touches the item listing (restoring it against
      a concurrent [rem_item]); stock lives in a compensation counter
      that restocks on read when it under-runs. *)

open Ipa_crdt
open Ipa_store
open Ipa_runtime
open App_ops

type variant = Causal | Ipa

type t = { variant : variant; initial_stock : int; restock_amount : int }

let create ?(initial_stock = 50) ?(restock_amount = 20) (variant : variant) : t
    =
  { variant; initial_stock; restock_amount }

let k_items = "items"
let k_orders = "orders"
let k_stock i = "stock:" ^ i
let k_lines o = "lines:" ^ o

let stock_value (app : t) tx key : int =
  match app.variant with
  | Causal -> Pncounter.value (Obj.as_pncounter (Txn.get tx key Obj.T_pncounter))
  | Ipa ->
      Compcounter.raw_value
        (Obj.as_compcounter (Txn.get tx key (Obj.T_compcounter { min_value = 0 })))

let stock_delta (app : t) tx key d : unit =
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

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let add_item (app : t) (i : string) : Config.op_exec =
  mk "add_item" true [ (k_items, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      aw_add ~payload:("listing:" ^ i) tx k_items i;
      stock_delta app tx (k_stock i) app.initial_stock;
      Config.outcome (Txn.commit tx))

(* Is [i] referenced by an order line visible at this replica?  Like
   the tournament's [rem_player], removal checks its precondition
   against local state (§2.2) and aborts when it would break
   referential integrity sequentially; IPA's touch repair only has to
   cover the {e concurrent} new_order it could not have seen. *)
let locally_referenced (rep : Replica.t) (i : string) : bool =
  Replica.fold_data rep
    (fun key obj acc ->
      acc
      || String.length key > 6
         && String.sub key 0 6 = "lines:"
         &&
         match obj with
         | Obj.O_awset lines -> Awset.mem i lines
         | _ -> false)
    false

let rem_item (_ : t) (i : string) : Config.op_exec =
  mk "rem_item" true [ (k_items, Config.Exclusive) ] (fun rep ->
      let tx = Txn.begin_ rep in
      if locally_referenced rep i then begin
        Txn.abort tx;
        Config.outcome None
      end
      else begin
        aw_remove tx k_items i;
        Config.outcome (Txn.commit tx)
      end)

(** New order: one order line for [item], decrementing stock.  The IPA
    version touches the item listing so a concurrent [rem_item] cannot
    leave a dangling order line. *)
let new_order (app : t) ~(order_id : string) (customer : string)
    (item : string) : Config.op_exec =
  mk "new_order" true [ (k_items, Config.Shared); (k_stock item, Config.Shared) ] (fun rep ->
      let tx = Txn.begin_ rep in
      let available = stock_value app tx (k_stock item) in
      if available <= 0 then begin
        Txn.abort tx;
        Config.outcome None
      end
      else begin
        aw_add ~payload:("by:" ^ customer) tx k_orders order_id;
        aw_add tx (k_lines order_id) item;
        stock_delta app tx (k_stock item) (-1);
        (match app.variant with
        | Ipa -> aw_touch tx k_items item
        | Causal -> ());
        Config.outcome (Txn.commit tx)
      end)

(** Stock inquiry; in IPA mode a stock under-run triggers the restock
    compensation (as the benchmark specification prescribes). *)
let check_stock (app : t) (item : string) : Config.op_exec =
  mk "check_stock" false [] (fun rep ->
      let tx = Txn.begin_ rep in
      let key = k_stock item in
      match app.variant with
      | Causal ->
          let v = stock_value app tx key in
          ignore (Txn.commit tx);
          Config.outcome ~violations:(max 0 (-v)) None
      | Ipa ->
          let c =
            Obj.as_compcounter (Txn.get tx key (Obj.T_compcounter { min_value = 0 }))
          in
          let _v, comp_ops, violations = Compcounter.read c ~rep:rep.Replica.id in
          List.iter (fun op -> Txn.update tx key (Obj.Op_compcounter op)) comp_ops;
          (* the restock itself *)
          if violations > 0 then stock_delta app tx key app.restock_amount;
          Config.outcome ~violations ~extra_work:1 (Txn.commit tx))

(** Dangling order lines + stock under-runs visible at a replica. *)
let count_violations (_ : t) (rep : Replica.t) : int =
  let awset key =
    match Replica.peek rep key with
    | Some (Obj.O_awset s) -> s
    | _ -> Awset.empty
  in
  let items = awset k_items in
  let violations = ref 0 in
  Replica.iter_data rep
    (fun key obj ->
      if String.length key > 6 && String.sub key 0 6 = "lines:" then
        match obj with
        | Obj.O_awset lines ->
            List.iter
              (fun i -> if not (Awset.mem i items) then incr violations)
              (Awset.elements lines)
        | _ -> ()
      else if String.length key > 6 && String.sub key 0 6 = "stock:" then
        match obj with
        | Obj.O_pncounter c -> violations := !violations + max 0 (-Pncounter.value c)
        | Obj.O_compcounter c ->
            violations := !violations + max 0 (-Compcounter.raw_value c)
        | _ -> ());
  !violations

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

type workload_params = {
  n_items : int;
  n_customers : int;
  order_ratio : float;
}

let default_params = { n_items = 50; n_customers = 100; order_ratio = 0.4 }

let item wp rng = Fmt.str "i%d" (Ipa_sim.Rng.int rng wp.n_items)
let customer wp rng = Fmt.str "c%d" (Ipa_sim.Rng.int rng wp.n_customers)

let next_op (app : t) (wp : workload_params) (rng : Ipa_sim.Rng.t)
    ~(region : string) : Config.op_exec =
  let fresh_order = Fmt.str "o%s-%d" region (Ipa_sim.Rng.int rng 1_000_000) in
  match Ipa_sim.Rng.int rng 10 with
  | 0 -> add_item app (item wp rng)
  | 1 -> rem_item app (item wp rng)
  | n when float_of_int n < 2.0 +. (wp.order_ratio *. 10.0) ->
      new_order app ~order_id:fresh_order (customer wp rng) (item wp rng)
  | _ -> check_stock app (item wp rng)

let seed_data (app : t) (wp : workload_params) (cluster : Cluster.t) : unit =
  let rep = List.hd cluster.Cluster.replicas in
  let tx = Txn.begin_ rep in
  for i = 0 to wp.n_items - 1 do
    let id = Fmt.str "i%d" i in
    aw_add ~payload:("listing:" ^ id) tx k_items id;
    stock_delta app tx (k_stock id) app.initial_stock
  done;
  match Txn.commit tx with
  | Some b -> Cluster.broadcast_now cluster b
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fuzzer hooks                                                        *)
(* ------------------------------------------------------------------ *)

(** Fuzzable operations: name and parameter sorts, matching the TPC-W
    catalog specification's product-listing slice. *)
let fuzz_ops : (string * string list) list =
  [
    ("add_item", [ "Item" ]);
    ("rem_item", [ "Item" ]);
    ("new_order", [ "Order"; "Customer"; "Item" ]);
    ("check_stock", [ "Item" ]);
  ]

(** Dispatch an operation by name with positional string arguments;
    [None] on an unknown name or wrong arity. *)
let exec_op (app : t) (name : string) (args : string list) :
    Config.op_exec option =
  match (name, args) with
  | "add_item", [ i ] -> Some (add_item app i)
  | "rem_item", [ i ] -> Some (rem_item app i)
  | "new_order", [ o; c; i ] -> Some (new_order app ~order_id:o c i)
  | "check_stock", [ i ] -> Some (check_stock app i)
  | _ -> None
