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

    [jobs > 1] shards the run range across a domain pool.  Each worker
    owns a private harness/cluster environment (the substrate is not
    domain-safe beyond the interner) and executes complete runs; since
    every run is a pure function of [(app, repaired, seed + i, n_ops)],
    the sharding cannot change any outcome.  The sequential early-stop
    semantics are reconstructed exactly: the report covers the prefix up
    to and including the earliest failing run index (later speculative
    runs are discarded) and the counterexample is shrunk for that
    earliest failure on the caller's environment. *)
let campaign ~(app : string) ~(repaired : bool) ~(seed : int) ~(runs : int)
    ?(n_ops = 40) ?(crashes = 0) ?(reads = 0) ?(escrow_skew = 0)
    ?(stop_on_failure = true) ?jobs () : report =
  let jobs =
    match jobs with
    | Some j -> max 1 (min Ipa_par.Pool.cap j)
    | None -> Ipa_par.Pool.env_jobs ()
  in
  if jobs <= 1 || runs <= 1 then begin
    let h = Harness.make ~app ~repaired in
    let env = Oracle.make_env h in
    let failed = ref 0 and first = ref None and executed = ref 0 in
    let failed_seeds = ref [] in
    (try
       for i = 0 to runs - 1 do
         let tr =
           Gen.generate ~app ~repaired ~seed:(seed + i) ~n_ops ~crashes ~reads
             ~escrow_skew ()
         in
         let o = Oracle.run env tr in
         incr executed;
         if o.Oracle.failures <> [] then begin
           incr failed;
           failed_seeds := (seed + i) :: !failed_seeds;
           if !first = None then
             first := Some (counterexample_of env tr o.Oracle.failures);
           if stop_on_failure then raise Exit
         end
       done
     with Exit -> ());
    { app; repaired; seed; runs = !executed; failed_runs = !failed;
      failed_seeds = List.rev !failed_seeds; first = !first }
  end
  else
    Ipa_par.Pool.with_pool ~jobs @@ fun pool ->
    (* worker → its lazily created private environment.  Only the owning
       worker index touches its slot during the batch; the caller reads
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
    let outcomes =
      Array.of_list
        (Ipa_par.Pool.map_worker pool
           ~f:(fun ~worker i ->
             let tr =
               Gen.generate ~app ~repaired ~seed:(seed + i) ~n_ops ~crashes
                 ~reads ~escrow_skew ()
             in
             Oracle.run (env_for worker) tr)
           (List.init runs Fun.id))
    in
    let failing_ix =
      List.filter
        (fun i -> outcomes.(i).Oracle.failures <> [])
        (List.init runs Fun.id)
    in
    let executed =
      match failing_ix with
      | m :: _ when stop_on_failure -> m + 1
      | _ -> runs
    in
    let failing_ix = List.filter (fun i -> i < executed) failing_ix in
    let first =
      match failing_ix with
      | [] -> None
      | m :: _ ->
          let tr =
            Gen.generate ~app ~repaired ~seed:(seed + m) ~n_ops ~crashes
              ~reads ~escrow_skew ()
          in
          Some (counterexample_of (env_for 0) tr outcomes.(m).Oracle.failures)
    in
    {
      app;
      repaired;
      seed;
      runs = executed;
      failed_runs = List.length failing_ix;
      failed_seeds = List.map (fun i -> seed + i) failing_ix;
      first;
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
