(** Shared test scaffolding: the three-region cluster, one-update
    transaction helpers, runtime environments, fault-plan builders, and
    seed plumbing.

    Every randomized test draws its seed through {!seed} so a CI
    failure is reproducible locally: set [IPA_TEST_SEED=<n>] to rerun
    with the seed the failing run printed; unset, each test keeps its
    historical fixed seed (bit-identical to the pre-existing suites). *)

open Ipa_crdt
open Ipa_store
open Ipa_sim
open Ipa_runtime

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)
(* ------------------------------------------------------------------ *)

(** The seed a randomized test should use: [IPA_TEST_SEED] when set
    (and numeric), the test's historical [default] otherwise. *)
let seed ~(default : int) () : int =
  match Sys.getenv_opt "IPA_TEST_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

(** An alcotest case whose body receives the resolved seed; on failure
    the seed is printed so the run can be replayed with
    [IPA_TEST_SEED=<n>]. *)
let seeded_case (name : string) speed ~(default : int) (f : int -> unit) :
    unit Alcotest.test_case =
  Alcotest.test_case name speed (fun () ->
      let s = seed ~default () in
      try f s
      with e ->
        Fmt.epr "[seed] %S failed; rerun with IPA_TEST_SEED=%d@." name s;
        raise e)

(** [QCheck_alcotest.to_alcotest] with the generator seeded from
    {!seed}; prints the seed when the property fails. *)
let to_alcotest ?(default = 0) (t : QCheck2.Test.t) : unit Alcotest.test_case =
  let s = seed ~default () in
  let name, speed, fn =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| s |]) t
  in
  ( name,
    speed,
    fun () ->
      try fn ()
      with e ->
        Fmt.epr "[seed] property %S failed; rerun with IPA_TEST_SEED=%d@." name
          s;
        raise e )

(* ------------------------------------------------------------------ *)
(* Cluster + store helpers                                             *)
(* ------------------------------------------------------------------ *)

let regions =
  [ ("dc-east", "us-east"); ("dc-west", "us-west"); ("dc-eu", "eu-west") ]

let three () = Cluster.create regions

(** One-update transaction adding [e] to awset [key]. *)
let add_to (rep : Replica.t) (key : string) (e : string) : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_awset (Txn.get tx key Obj.T_awset) in
  Txn.update tx key
    (Obj.Op_awset (Awset.prepare_add s ~dot:(Txn.fresh_dot tx) e));
  Option.get (Txn.commit tx)

let remove_from (rep : Replica.t) (key : string) (e : string) : Replica.batch =
  let tx = Txn.begin_ rep in
  let s = Obj.as_awset (Txn.get tx key Obj.T_awset) in
  Txn.update tx key (Obj.Op_awset (Awset.prepare_remove s e));
  Option.get (Txn.commit tx)

let elements (rep : Replica.t) (key : string) : string list =
  match Replica.peek rep key with
  | Some o -> Awset.elements (Obj.as_awset o)
  | None -> []

(** One-update transaction bumping pncounter [key] by [n]. *)
let counter_delta ?(key = "stock") (rep : Replica.t) (n : int) : Replica.batch
    =
  let tx = Txn.begin_ rep in
  let ctr = Obj.as_pncounter (Txn.get tx key Obj.T_pncounter) in
  Txn.update tx key
    (Obj.Op_pncounter (Pncounter.prepare ctr ~rep:rep.Replica.id n));
  Option.get (Txn.commit tx)

let counter_value ?(key = "stock") (rep : Replica.t) : int =
  match Replica.peek rep key with
  | Some o -> Pncounter.value (Obj.as_pncounter o)
  | None -> 0

(** Anti-entropy [send] callback delivering directly, no network. *)
let direct_send ~(src : Replica.t) ~(dst : Replica.t) (b : Replica.batch) :
    unit =
  ignore src;
  Replica.receive dst b

(* ------------------------------------------------------------------ *)
(* Network fault plans                                                 *)
(* ------------------------------------------------------------------ *)

(** A jitter-free network with the given fault mix. *)
let faulty_net ?(loss = 0.0) ?(duplication = 0.0) ?(tail = 0.0)
    ?(partitions = []) ~seed () : Net.t =
  Net.create ~jitter:0.0
    ~plan:
      {
        Net.faults = { Net.no_faults.Net.faults with loss; duplication; tail };
        partitions;
      }
    ~seed ()

(* ------------------------------------------------------------------ *)
(* Runtime environments                                                *)
(* ------------------------------------------------------------------ *)

(** A fresh engine + fault-free jitter-free network + three-region
    cluster under the given system mode. *)
let make (mode : Config.mode) : Engine.t * Config.t * Cluster.t =
  let engine = Engine.create () in
  let net = Net.create ~jitter:0.0 ~seed:1 () in
  let cluster = Cluster.create regions in
  let cfg = Config.create ~mode ~engine ~net ~cluster () in
  (engine, cfg, cluster)

(** Same, but with a fault plan on the wire and anti-entropy every
    250 ms. *)
let make_faulty ~(seed : int) (plan : Net.plan) :
    Engine.t * Config.t * Cluster.t =
  let engine = Engine.create () in
  let net = Net.create ~jitter:0.0 ~plan ~seed () in
  let cluster = Cluster.create regions in
  let cfg =
    Config.create ~sync_interval_ms:250.0 ~mode:Config.Local ~engine ~net
      ~cluster ()
  in
  (engine, cfg, cluster)

(** Execute one op through the runtime and drain the engine. *)
let execute_sync (engine : Engine.t) (cfg : Config.t) ~(region : string)
    (op : Config.op_exec) : float * Config.outcome =
  let result = ref None in
  Config.execute cfg ~client_region:region op ~complete:(fun lat o ->
      result := Some (lat, o));
  Engine.run engine;
  Option.get !result
