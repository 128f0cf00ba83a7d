(** Fuzzing campaigns: generate → execute → (on failure) shrink →
    save a replay file; plus replay of saved counterexamples.

    A campaign over [(app, repaired, seed, runs)] executes the traces
    generated from seeds [seed, seed+1, ..., seed+runs-1].  On the
    first oracle failure the trace is shrunk to a minimal
    counterexample, normalized through the text codec (so the saved
    file and the in-memory trace are byte-equivalent), re-executed to
    record the failing digest, and returned for saving.  Repaired
    catalog apps are expected to survive every schedule; the causal
    baselines are expected to fail — the fuzzer {e finding} their
    anomalies is the oracle-has-teeth check. *)

type counterexample = {
  trace : Trace.t;  (** shrunk, normalized, [expect_failure = true] *)
  failures : Oracle.failure list;  (** of the shrunk trace *)
  outcome : Oracle.outcome;
}

type report = {
  app : string;
  repaired : bool;
  seed : int;
  runs : int;  (** traces executed (≤ requested when stopping early) *)
  failed_runs : int;
  failed_seeds : int list;  (** seeds of the failing runs, in run order *)
  first : counterexample option;  (** first failure, shrunk *)
}

(* round-trip through the codec: the trace we report is byte-for-byte
   the trace a replay of the saved file will execute *)
let normalize (tr : Trace.t) : Trace.t = Trace.of_string (Trace.to_string tr)

let counterexample_of (env : Oracle.env) (tr : Trace.t)
    (failures : Oracle.failure list) : counterexample =
  let shrunk = Shrink.shrink env tr failures in
  let shrunk = normalize { shrunk with Trace.expect_failure = true } in
  let outcome = Oracle.run env shrunk in
  let shrunk = { shrunk with Trace.expect_digest = Some outcome.Oracle.digest } in
  { trace = shrunk; failures = outcome.Oracle.failures; outcome }

(** Run a campaign.  [stop_on_failure] (default true) stops at the
    first counterexample.

    Runs go through a domain pool of [jobs] workers (at [jobs = 1] the
    pool spawns no domain and runs them in order on the caller).  Each
    worker owns a private harness/cluster environment (the substrate is
    not domain-safe beyond the interner) and executes complete runs;
    since every run is a pure function of [(app, repaired, seed + i,
    n_ops)], the sharding cannot change any outcome.  Under
    [stop_on_failure] the runs go in chunks of [jobs] and the loop stops
    after the first chunk holding a failure; the report covers the
    prefix up to and including the earliest failing run index (later
    runs of that chunk are discarded) and the counterexample is shrunk
    for that earliest failure on worker 0's environment. *)
let campaign ~(app : string) ~(repaired : bool) ~(seed : int) ~(runs : int)
    ?(n_ops = 40) ?(crashes = 0) ?(reads = 0) ?(escrow_skew = 0)
    ?(stop_on_failure = true) ?jobs () : report =
  Ipa_par.Pool.with_pool ?jobs @@ fun pool ->
  let jobs = Ipa_par.Pool.jobs pool in
  (* worker → its lazily created private environment.  Only the owning
     worker index touches its slot during a batch; the caller reads
     them afterwards (the pool's completion barrier orders both). *)
  let envs : Oracle.env option array = Array.make jobs None in
  let env_for w =
    match envs.(w) with
    | Some e -> e
    | None ->
        let e = Oracle.make_env (Harness.make ~app ~repaired) in
        envs.(w) <- Some e;
        e
  in
  let trace i =
    Gen.generate ~app ~repaired ~seed:(seed + i) ~n_ops ~crashes ~reads
      ~escrow_skew ()
  in
  let chunk = if stop_on_failure then jobs else max 1 runs in
  (* the failing runs, as (index, failures), newest first *)
  let rec loop lo failing =
    if lo >= runs then failing
    else
      let hi = min runs (lo + chunk) in
      let failed =
        Ipa_par.Pool.filter_map_worker pool
          ~f:(fun ~worker i ->
            match (Oracle.run (env_for worker) (trace i)).Oracle.failures with
            | [] -> None
            | fs -> Some (i, fs))
          (List.init (hi - lo) (fun k -> lo + k))
      in
      let failing = List.rev_append failed failing in
      if stop_on_failure && failed <> [] then failing else loop hi failing
  in
  let failing, executed =
    match List.rev (loop 0 []) with
    | (m, fs) :: _ when stop_on_failure -> ([ (m, fs) ], m + 1)
    | l -> (l, runs)
  in
  {
    app;
    repaired;
    seed;
    runs = executed;
    failed_runs = List.length failing;
    failed_seeds = List.map (fun (i, _) -> seed + i) failing;
    first =
      (match failing with
      | [] -> None
      | (m, fs) :: _ -> Some (counterexample_of (env_for 0) (trace m) fs));
  }

(** Result of replaying a saved trace. *)
type replay_result = {
  r_outcome : Oracle.outcome;
  r_failed : bool;
  r_as_expected : bool;
      (** failure status matches [expect_failure] and, when the file
          records a digest, the digest reproduced bit-identically *)
}

(** Re-execute a saved trace and compare against its recorded
    expectations. *)
let replay (tr : Trace.t) : replay_result =
  let h = Harness.make ~app:tr.Trace.app ~repaired:tr.Trace.repaired in
  let o = Oracle.check h tr in
  let failed = o.Oracle.failures <> [] in
  let digest_ok =
    match tr.Trace.expect_digest with
    | Some d -> d = o.Oracle.digest
    | None -> true
  in
  {
    r_outcome = o;
    r_failed = failed;
    r_as_expected = failed = tr.Trace.expect_failure && digest_ok;
  }
