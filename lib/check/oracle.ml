(** Deterministic execution of a trace plus the fuzzer's oracles.

    A run has three phases:

    {ol
    {- {b Seed}: the harness's seed operations execute at replica 0 and
       are broadcast reliably, establishing initial data everywhere.}
    {- {b Faulty schedule}: every trace event is scheduled on the
       discrete-event engine.  Operation events run the real application
       transaction at their replica and replicate the committed batch
       through the fault-injected {!Net} (loss, duplication, tail
       delays, partitions, scripted fault phases); sync events run one
       {!Sync} anti-entropy round whose retransmissions travel the same
       faulty path.  The engine then drains to the trace horizon and
       flushes in-flight deliveries.}
    {- {b Healing}: bounded reliable anti-entropy rounds close every
       remaining delivery gap, driving the cluster to quiescence — the
       paper's "network heals eventually" assumption, after which the
       oracles are judged.}}

    Oracles at quiescence: (1) {e convergence} — all replicas reach
    bit-identical state digests; (2) {e invariance} — every checked
    invariant of the app's spec, grounded over the harness domain,
    holds in each replica's observable state.  Anything else is a
    counterexample.  Every decision (fault, delay, argument) descends
    from the trace's seed, so a run is exactly reproducible — the
    property the shrinker and [--replay] rely on.

    For shrink re-runs, {!make_env} snapshots the seeded cluster once
    ({!Replica.snapshot}) and {!run} restores it instead of re-seeding,
    so candidate executions start from an identical, cheaply-reset
    state. *)

open Ipa_store
open Ipa_sim

type failure =
  | Diverged of (string * string) list
      (** replica id → digest: healing drove the cluster to quiescence
          yet the digests still disagree — a real convergence bug *)
  | Healing_exhausted of {
      rounds : int;  (** healing rounds spent before giving up *)
      pending : int;  (** batches still buffered across the cluster *)
      divergent : string list;
          (** keys whose observable state still differs from replica 0
              (via {!Sync.divergent_keys} tree descent), capped *)
    }
      (** the healing loop hit its round budget before quiescence.
          Distinct from {!Diverged}: this says the {e oracle harness}
          could not finish healing (wedged delivery, or a budget too
          small for the trace), not that converged replicas disagree —
          the two need opposite investigations, so conflating them
          (as a generic "diverged") buries real wedges *)
  | Violation of { inv : string; replica : string }
      (** invariant [inv] is false in [replica]'s observable state *)
  | Recovery_diverged of { expected : string; got : string }
      (** the cluster converged, but to a different digest than the
          same schedule with its crash events stripped — WAL recovery
          lost or invented state.  Only judged when the crash-free
          reference itself passes both oracles (otherwise the trace is
          broken with or without crashes) *)
  | Interval_escape of {
      at : float;
      replica : string;
      lo : int;
      hi : int option;
      truth : int;
    }
      (** an escrow interval read promised [lo ≤ strong value ≤ hi] but
          the true committed value (the omniscient shadow replica's)
          escaped the interval — the local-escrow bound derivation is
          unsound *)
  | Stale_read of { at : float; replica : string; served_by : string }
      (** a bounded-staleness read was served by a replica whose clock
          does not cover the resolved bound — the cover rule admitted a
          reader staler than the budget promised *)
  | Strong_read_lag of { at : float; replica : string; got : int; want : int }
      (** a strong read returned a value different from the true
          committed value — the catch-up to the cut let an update slip
          by *)
  | Rights_leak of { at : float; replica : string; detail : string }
      (** an escrow conservation identity broke in [replica]'s
          causally-consistent view ({!Ipa_crdt.Bcounter.audit}): rights
          or headroom leaked, a replica overdrew its ledger, or the
          value escaped [0, granted].  Audited after every escrow commit
          at the committing replica and at quiescence everywhere —
          escrowed rights must always satisfy
          {e remaining + spent = bound}, no matter how Transfer / Grant
          / Hmove / migration ops interleave *)

type outcome = {
  failures : failure list;  (** empty = the trace passed both oracles *)
  digest : string;  (** replica 0's state digest after healing *)
  committed : int;  (** operations that committed a batch *)
  aborted : int;  (** operations whose precondition failed (or reads) *)
  healing_rounds : int;
}

let pp_failure ppf = function
  | Diverged ds ->
      Fmt.pf ppf "diverged: %a"
        Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string string))
        ds
  | Healing_exhausted { rounds; pending; divergent } ->
      Fmt.pf ppf
        "healing exhausted after %d rounds without quiescence (%d batches \
         still pending; %d divergent keys%s%a)"
        rounds pending (List.length divergent)
        (if divergent = [] then "" else ": ")
        Fmt.(list ~sep:(any ", ") string)
        divergent
  | Violation { inv; replica } ->
      Fmt.pf ppf "invariant %s violated at %s" inv replica
  | Recovery_diverged { expected; got } ->
      Fmt.pf ppf
        "crash recovery diverged: cluster converged to %s but the \
         crash-free reference converges to %s"
        got expected
  | Interval_escape { at; replica; lo; hi; truth } ->
      Fmt.pf ppf
        "interval read at %s (t=%g) escaped: true committed value %d \
         outside [%d, %s]"
        replica at truth lo
        (match hi with Some h -> string_of_int h | None -> "∞")
  | Stale_read { at; replica; served_by } ->
      Fmt.pf ppf
        "bounded read at %s (t=%g) served by %s, whose clock does not \
         cover the resolved bound"
        replica at served_by
  | Strong_read_lag { at; replica; got; want } ->
      Fmt.pf ppf "strong read at %s (t=%g) returned %d, truth is %d"
        replica at got want
  | Rights_leak { at; replica; detail } ->
      Fmt.pf ppf "escrow conservation broke at %s (t=%g): %s" replica at
        detail

let replica_specs =
  [ ("dc-east", "us-east"); ("dc-west", "us-west"); ("dc-eu", "eu-west") ]

(** The fuzzer-owned escrow counter key, seeded in every environment
    regardless of app: its grants/rights partition is what the interval
    and staleness oracles exercise. *)
let escrow_key = "__escrow"

(** A reusable execution environment: the harness, its ground checked
    invariants, a snapshot of the freshly seeded cluster, and the
    omniscient {e shadow} replica — a replica outside the cluster that
    receives every committed batch instantly, so its state is the true
    committed ("strongly consistent") value the read oracles judge
    against. *)
type env = {
  harness : Harness.t;
  ground : (string * Ipa_logic.Ground.gformula) list;
  cluster : Cluster.t;
  seeded : Cluster.snapshot;
  shadow : Replica.t;
  shadow_seeded : Replica.snapshot;
}

let exec_exn (h : Harness.t) ~(name : string) ~(args : string list) :
    Ipa_runtime.Config.op_exec =
  match h.Harness.exec ~name ~args with
  | Some op -> op
  | None ->
      invalid_arg
        (Fmt.str "Oracle: unknown operation %s(%s) for app %s" name
           (String.concat ", " args) h.Harness.app_name)

let make_env (h : Harness.t) : env =
  let cluster = Cluster.create replica_specs in
  let r0 = List.hd cluster.Cluster.replicas in
  let ids = List.map fst replica_specs in
  let shadow = Replica.create ~region:"shadow" "shadow" in
  shadow.Replica.peers <- ids;
  let commit_everywhere b =
    Cluster.broadcast_now cluster b;
    Replica.receive shadow b
  in
  List.iter
    (fun (name, args) ->
      let op = exec_exn h ~name ~args in
      let o = op.Ipa_runtime.Config.run r0 in
      match o.Ipa_runtime.Config.batch with
      | Some b -> commit_everywhere b
      | None -> ())
    h.Harness.seed_ops;
  (* seed the fuzzer-owned escrow counter: grants are seed-only (the
     interval upper bound is only sound against observers that applied
     every grant), so cap it here and spread both rights and headroom
     across the replicas before the faulty schedule runs *)
  (let tx = Txn.begin_ r0 in
   let open Ipa_crdt in
   let bc () = Obj.as_bcounter (Txn.get tx escrow_key Obj.T_bcounter) in
   let upd op = Txn.update tx escrow_key (Obj.Op_bcounter op) in
   let id i = List.nth ids i in
   upd (Bcounter.prepare_grant (bc ()) ~rep:(id 0) 30);
   upd (Bcounter.prepare_hmove (bc ()) ~from_:(id 0) ~to_:(id 1) 10);
   upd (Bcounter.prepare_hmove (bc ()) ~from_:(id 0) ~to_:(id 2) 10);
   upd (Bcounter.prepare_inc (bc ()) ~rep:(id 0) 6);
   upd (Bcounter.prepare_transfer (bc ()) ~from_:(id 0) ~to_:(id 1) 2);
   upd (Bcounter.prepare_transfer (bc ()) ~from_:(id 0) ~to_:(id 2) 2);
   match Txn.commit tx with
   | Some b -> commit_everywhere b
   | None -> assert false);
  { harness = h; ground = Harness.ground_checked h; cluster;
    seeded = Cluster.snapshot cluster; shadow;
    shadow_seeded = Replica.snapshot shadow }

let max_healing_rounds = 500

(* distinct on-disk WAL directory per crash run: never reuses a stale
   directory (mkdir fails on an existing one and the counter moves on),
   so leftover logs from a killed process cannot leak into replay *)
let wal_dir_seq = Atomic.make 0

let fresh_wal_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go () =
    let n = Atomic.fetch_and_add wal_dir_seq 1 in
    let d = Filename.concat base (Printf.sprintf "ipa-oracle-wal-%d" n) in
    match Sys.mkdir d 0o755 with () -> d | exception Sys_error _ -> go ()
  in
  go ()

let rec run ?(heal_budget = max_healing_rounds) (env : env) (tr : Trace.t) :
    outcome =
  let h = env.harness in
  let cluster = env.cluster in
  (* recovery oracle, part 1: a trace with crash events is first
     executed with them stripped.  Crashes are generated after the last
     operation (see {!Gen.generate}), so the committed-batch sets of
     the two runs coincide and confluence demands identical converged
     digests — recursion depth is at most one *)
  let reference =
    if Trace.n_crashes tr = 0 then None
    else
      Some
        (run ~heal_budget env
           {
             tr with
             Trace.events =
               List.filter
                 (function Trace.Ev_crash _ -> false | _ -> true)
                 tr.Trace.events;
           })
  in
  Cluster.restore cluster env.seeded;
  Replica.restore env.shadow env.shadow_seeded;
  let engine = Engine.create () in
  let net =
    Net.create
      ~plan:{ Net.faults = tr.Trace.faults; partitions = tr.Trace.partitions }
      ~phases:tr.Trace.phases ~seed:tr.Trace.seed ()
  in
  let reps = Array.of_list cluster.Cluster.replicas in
  let committed = ref 0 and aborted = ref 0 in
  (* replicate a batch through the faulty path *)
  let send_faulty ~(src : Replica.t) ~(dst : Replica.t) (b : Replica.batch) =
    let now = Engine.now engine in
    List.iter
      (fun delay ->
        Engine.schedule engine ~delay (fun () -> Replica.receive dst b))
      (Net.deliveries net ~now ~src:src.Replica.region
         ~dst:dst.Replica.region)
  in
  let sync = Sync.create cluster in
  (* the commit-clock history a bounded read's staleness budget
     resolves against, starting from the seeded clock every replica
     covers *)
  let history = Read.history () in
  Read.push history ~now:0.0 (List.hd cluster.Cluster.replicas).Replica.vv;
  (* the true committed value of the escrow counter: the shadow replica
     receives every committed batch the instant it commits *)
  let shadow_value () =
    match Replica.peek env.shadow escrow_key with
    | Some o -> Ipa_crdt.Bcounter.quick_value (Obj.as_bcounter o)
    | None -> 0
  in
  let read_failures = ref [] in
  (* recovery oracle, part 2: rig per-replica WALs.  The baseline
     checkpoint captures the seeded state (which predates the log);
     afterwards every local commit is flushed synchronously and remote
     applies are group-committed, exactly the durability contract the
     crash events then attack.  Hooks are restored and the directory
     removed before returning, so the environment stays reusable. *)
  let wal_rig =
    if Trace.n_crashes tr = 0 then None
    else begin
      let dir = fresh_wal_dir () in
      let saved =
        Array.map
          (fun (r : Replica.t) -> (r.Replica.on_commit, r.Replica.on_apply))
          reps
      in
      let ws =
        Array.map
          (fun (r : Replica.t) ->
            let w = Wal.create ~dir ~id:r.Replica.id () in
            Wal.attach w r;
            Wal.checkpoint ~gc:false w r;
            w)
          reps
      in
      Some (dir, ws, saved)
    end
  in
  (* a committed batch goes everywhere: the faulty path to the cluster
     peers, instantly to the shadow, and into the commit-clock history *)
  let commit_batch (rep : Replica.t) (b : Replica.batch) =
    incr committed;
    Replica.receive env.shadow b;
    Read.push history ~now:(Engine.now engine) b.Replica.b_after;
    List.iter
      (fun dst -> send_faulty ~src:rep ~dst b)
      (Cluster.others cluster rep.Replica.id)
  in
  let syncs_run = ref 0 in
  List.iter
    (fun ev ->
      Engine.schedule engine ~delay:(Trace.event_time ev) (fun () ->
          match ev with
          | Trace.Ev_sync _ ->
              ignore (Sync.round sync ~now:(Engine.now engine) ~send:send_faulty);
              (match wal_rig with
              | Some (_, ws, _) ->
                  (* periodic checkpoints exercise snapshot + replay
                     from mid-workload cuts, not just the seed baseline *)
                  incr syncs_run;
                  if !syncs_run mod 3 = 0 then
                    Array.iteri
                      (fun i (r : Replica.t) -> Wal.checkpoint ws.(i) r)
                      reps
              | None -> ())
          | Trace.Ev_crash { replica; _ } -> (
              match wal_rig with
              | Some (_, ws, _) ->
                  let i = replica mod Array.length reps in
                  Wal.crash ws.(i);
                  ignore (Wal.recover ws.(i) reps.(i))
              | None -> ())
          | Trace.Ev_op { replica; name; args; _ } ->
              let rep = reps.(replica mod Array.length reps) in
              let op = exec_exn h ~name ~args in
              let o = op.Ipa_runtime.Config.run rep in
              (match o.Ipa_runtime.Config.batch with
              | Some b -> commit_batch rep b
              | None -> incr aborted)
          | Trace.Ev_escrow { at; replica; eop } -> (
              let rep = reps.(replica mod Array.length reps) in
              let tx = Txn.begin_ rep in
              let c () =
                Obj.as_bcounter (Txn.get tx escrow_key Obj.T_bcounter)
              in
              let me = rep.Replica.id in
              let dst_id d = reps.(d mod Array.length reps).Replica.id in
              let open Ipa_crdt in
              match
                match eop with
                | Trace.Es_inc n -> Some (Bcounter.prepare_inc (c ()) ~rep:me n)
                | Trace.Es_dec n -> Some (Bcounter.prepare_dec (c ()) ~rep:me n)
                | Trace.Es_transfer { dst; n } ->
                    let to_ = dst_id dst in
                    if to_ = me then None
                    else Some (Bcounter.prepare_transfer (c ()) ~from_:me ~to_ n)
                | Trace.Es_hmove { dst; n } ->
                    let to_ = dst_id dst in
                    if to_ = me then None
                    else Some (Bcounter.prepare_hmove (c ()) ~from_:me ~to_ n)
                | Trace.Es_demand n ->
                    Some (Bcounter.prepare_demand (c ()) ~rep:me n)
                | Trace.Es_hdemand n ->
                    Some (Bcounter.prepare_hdemand (c ()) ~rep:me n)
              with
              | exception
                  ( Bcounter.Insufficient_rights _
                  | Bcounter.Insufficient_headroom _ ) ->
                  (* out of escrow at this replica: the precondition
                     fails locally, like any aborted app operation *)
                  Txn.abort tx;
                  incr aborted
              | None ->
                  Txn.abort tx;
                  incr aborted
              | Some op -> (
                  Txn.update tx escrow_key (Obj.Op_bcounter op);
                  match Txn.commit tx with
                  | Some b ->
                      commit_batch rep b;
                      (* conservation oracle, mid-run: the committing
                         replica's view is causally consistent, so every
                         ledger identity must already hold in it *)
                      (match Replica.peek rep escrow_key with
                      | Some o -> (
                          match Bcounter.audit (Obj.as_bcounter o) with
                          | Some detail ->
                              read_failures :=
                                Rights_leak
                                  { at; replica = rep.Replica.id; detail }
                                :: !read_failures
                          | None -> ())
                      | None -> ())
                  | None -> incr aborted))
          | Trace.Ev_read { at; replica; level } -> (
              let rep = reps.(replica mod Array.length reps) in
              let fail f = read_failures := f :: !read_failures in
              incr aborted (* reads never commit a batch *);
              match level with
              | Trace.R_weak ->
                  (* no guarantee to judge — exercises the weak path *)
                  ignore
                    (Read.read cluster Read.Weak ~prefer:rep.Replica.id
                       escrow_key)
              | Trace.R_interval ->
                  let iv = Read.interval_at rep escrow_key in
                  let truth = shadow_value () in
                  let contained =
                    iv.Read.lo <= truth
                    && (match iv.Read.hi with
                       | None -> true
                       | Some h -> truth <= h)
                  in
                  if not contained then
                    fail
                      (Interval_escape
                         { at; replica = rep.Replica.id; lo = iv.Read.lo;
                           hi = iv.Read.hi; truth })
              | Trace.R_bounded delta ->
                  let bound =
                    Read.bound_at history ~now:(Engine.now engine)
                      ~staleness_ms:delta
                  in
                  let res =
                    Read.read cluster (Read.Bounded bound)
                      ~prefer:rep.Replica.id escrow_key
                  in
                  if not (Ipa_crdt.Vclock.leq bound res.Read.at) then
                    fail
                      (Stale_read
                         { at; replica = rep.Replica.id;
                           served_by = res.Read.served_by })
              | Trace.R_strong ->
                  let res =
                    Read.read cluster Read.Strong ~prefer:rep.Replica.id
                      escrow_key
                  in
                  let got =
                    match Read.value res with
                    | Some o ->
                        Ipa_crdt.Bcounter.quick_value (Obj.as_bcounter o)
                    | None -> 0
                  in
                  let want = shadow_value () in
                  if got <> want then
                    fail
                      (Strong_read_lag
                         { at; replica = rep.Replica.id; got; want }))))
    tr.Trace.events;
  Engine.run_until engine tr.Trace.horizon_ms;
  (* flush in-flight deliveries scheduled past the horizon *)
  Engine.run engine;
  (* healing: reliable direct anti-entropy until quiescent ({!Read.quiesce}
     starts a fresh Sync, so no multi-second backoff from the faulty
     phase carries over) *)
  let heal_start = Float.max (Engine.now engine) tr.Trace.horizon_ms in
  let rounds = Read.quiesce ~max_rounds:heal_budget cluster in
  (* dismantle the WAL rig before judging: restore the replicas' hooks
     (the env outlives this run) and remove the on-disk files *)
  (match wal_rig with
  | Some (dir, ws, saved) ->
      Array.iteri
        (fun i (r : Replica.t) ->
          let pc, pa = saved.(i) in
          r.Replica.on_commit <- pc;
          r.Replica.on_apply <- pa;
          Wal.remove_files ws.(i))
        reps;
      (try Sys.rmdir dir with Sys_error _ -> ())
  | None -> ());
  (* oracle 1: convergence to bit-identical digests *)
  let digests =
    List.map
      (fun (r : Replica.t) -> (r.Replica.id, Replica.state_digest r))
      cluster.Cluster.replicas
  in
  let digest = snd (List.hd digests) in
  let div =
    if not (Cluster.quiescent cluster) then begin
      (* the healing loop gave up — report that loudly and distinctly,
         never as a silent pass or a generic divergence *)
      let r0 = List.hd cluster.Cluster.replicas in
      let divergent =
        List.concat_map
          (fun (r : Replica.t) ->
            (Sync.divergent_keys ~a:r0 ~b:r).Sync.divergent)
          (Cluster.others cluster r0.Replica.id)
      in
      let divergent =
        List.filteri (fun i _ -> i < 16) (List.sort_uniq compare divergent)
      in
      let pending =
        List.fold_left
          (fun acc (r : Replica.t) -> acc + Replica.pending_count r)
          0 cluster.Cluster.replicas
      in
      [ Healing_exhausted { rounds; pending; divergent } ]
    end
    else if List.for_all (fun (_, d) -> d = digest) digests then []
    else [ Diverged digests ]
  in
  (* recovery oracle, part 3: a converged crash run must land on the
     crash-free reference digest (judged only when both runs otherwise
     pass — a trace that fails without crashes indicts something else) *)
  let recovery =
    match reference with
    | Some ref_o
      when div = []
           && ref_o.failures = []
           && not (String.equal ref_o.digest digest) ->
        [ Recovery_diverged { expected = ref_o.digest; got = digest } ]
    | _ -> []
  in
  (* oracle 2: every checked invariant holds in each replica's
     observable state *)
  let violations =
    List.concat_map
      (fun (r : Replica.t) ->
        let batom, bnum = h.Harness.valuation r in
        List.filter_map
          (fun (inv, gf) ->
            if Ipa_logic.Ground.eval ~batom ~bnum gf then None
            else Some (Violation { inv; replica = r.Replica.id }))
          env.ground)
      cluster.Cluster.replicas
  in
  (* oracle 3: escrow conservation at quiescence — after healing, every
     replica's view of the fuzzer-owned counter must satisfy all the
     ledger identities (rights remaining + spent = bound, no overdrawn
     replica, value within [0, granted]) *)
  let leaks =
    List.filter_map
      (fun (r : Replica.t) ->
        match Replica.peek r escrow_key with
        | Some o -> (
            match Ipa_crdt.Bcounter.audit (Obj.as_bcounter o) with
            | Some detail ->
                Some
                  (Rights_leak
                     { at = heal_start; replica = r.Replica.id; detail })
            | None -> None)
        | None -> None)
      cluster.Cluster.replicas
  in
  {
    failures = div @ recovery @ violations @ leaks @ List.rev !read_failures;
    digest;
    committed = !committed;
    aborted = !aborted;
    healing_rounds = rounds;
  }

(** One-shot convenience: build an environment and run the trace. *)
let check ?heal_budget (h : Harness.t) (tr : Trace.t) : outcome =
  run ?heal_budget (make_env h) tr
