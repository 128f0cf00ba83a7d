(** Multicore engine tests: the domain pool itself, domain-safety of
    the global interner, stats folding for per-worker analysis
    contexts, and the headline determinism properties — [Ipa.run] and
    [Fuzz.campaign] must be bit-identical at every [jobs] level. *)

open Ipa_par

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_order () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  Alcotest.(check (list int))
    "map preserves input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map p (fun x -> x * x) xs)

let test_filter_map_order () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  let f x = if x mod 3 = 0 then Some (x * 2) else None in
  Alcotest.(check (list int))
    "filter_map preserves input order" (List.filter_map f xs)
    (Pool.filter_map p f xs)

let test_uneven_work () =
  (* expensive items must not strand the rest of the batch (the claim
     counter hands items out one by one) nor scramble the result order *)
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 64 Fun.id in
  let spin x =
    let n = if x mod 16 = 0 then 20_000 else 10 in
    let acc = ref x in
    for _ = 1 to n do
      acc := (!acc * 7) mod 1009
    done;
    !acc
  in
  Alcotest.(check (list int))
    "uneven batches keep order" (List.map spin xs) (Pool.map p spin xs)

let test_sequential_fallback () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  Alcotest.(check int) "jobs=1 spawns a single-worker pool" 1 (Pool.jobs p);
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "sequential fallback maps correctly"
    (List.map succ xs) (Pool.map p succ xs)

let test_jobs_clamped () =
  Pool.with_pool ~jobs:0 (fun p ->
      Alcotest.(check int) "jobs=0 clamps to 1" 1 (Pool.jobs p));
  Pool.with_pool ~jobs:999 (fun p ->
      Alcotest.(check int) "jobs=999 clamps to cap" Pool.cap (Pool.jobs p))

let test_worker_indices () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let seen =
    Pool.map_worker p ~f:(fun ~worker _ -> worker) (List.init 256 Fun.id)
  in
  List.iter
    (fun w ->
      if w < 0 || w >= Pool.jobs p then
        Alcotest.failf "worker index %d out of range [0,%d)" w (Pool.jobs p))
    seen

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  (match
     Pool.map p
       (fun x -> if x = 57 then raise (Boom x) else x)
       (List.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected the item exception to re-raise"
  | exception Boom 57 -> ());
  (* the pool survives a failed batch *)
  Alcotest.(check (list int))
    "pool usable after a failed batch" [ 2; 4 ]
    (Pool.map p (fun x -> x * 2) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Intern under concurrent interning                                   *)
(* ------------------------------------------------------------------ *)

let test_intern_hammer () =
  let open Ipa_crdt in
  let n_domains = 4 and n_strings = 400 in
  let key i = Fmt.str "par-hammer-%d" i in
  (* each domain interns the full (overlapping) string set in its own
     order, racing first-sight interning of every key *)
  let doms =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            Array.init n_strings (fun i ->
                let i = (i + (d * 97)) mod n_strings in
                (i, Intern.id (key i)))))
  in
  let per_domain = List.map Domain.join doms in
  (* every domain resolved every string to the same id *)
  List.iter
    (Array.iter (fun (i, id) ->
         Alcotest.(check int)
           (Fmt.str "stable id for %s" (key i))
           (Intern.id (key i)) id;
         Alcotest.(check string)
           (Fmt.str "name round-trip for %s" (key i))
           (key i) (Intern.name id)))
    per_domain;
  (* distinct strings got distinct ids *)
  let ids = List.sort_uniq compare (List.init n_strings (fun i -> Intern.id (key i))) in
  Alcotest.(check int) "no id collisions" n_strings (List.length ids)

(* ------------------------------------------------------------------ *)
(* Anactx stats folding                                                *)
(* ------------------------------------------------------------------ *)

let counters (s : Ipa_core.Anactx.stats) =
  let open Ipa_core.Anactx in
  [
    s.sat_calls; s.sat_conflicts; s.sat_decisions; s.sat_propagations;
    s.sat_learnts; s.sat_removed; s.ground_hits; s.ground_misses;
    s.verdict_hits; s.verdict_misses; s.cands_generated; s.cands_pruned;
    s.cands_checked; s.pairs_checked;
  ]

(* partitioning the catalog across per-worker contexts and folding the
   counters back must equal the per-app sums a sequential run observes.
   Both sides pin [~jobs:1]: a parallel scan's speculative solves make
   the counters vary from run to run *)
let test_merge_stats_partition () =
  let open Ipa_core in
  let apps =
    [
      Ipa_spec.Catalog.ticket; Ipa_spec.Catalog.tournament;
      Ipa_spec.Catalog.twitter; Ipa_spec.Catalog.tpcw;
    ]
  in
  (* sequential reference: one fresh context per app, counters summed *)
  let seq_sum =
    List.fold_left
      (fun acc mk ->
        let ctx = Anactx.create () in
        ignore (Ipa.run ~jobs:1 ~ctx (mk ()));
        List.map2 ( + ) acc (counters (Anactx.stats ctx)))
      (List.map (fun _ -> 0) (counters (Anactx.stats (Anactx.create ()))))
      apps
  in
  (* parallel shape: children forked from one parent, folded back *)
  let parent = Anactx.create () in
  List.iter
    (fun mk ->
      let child = Anactx.fresh ~like:parent in
      ignore (Ipa.run ~jobs:1 ~ctx:child (mk ()));
      Anactx.merge_stats ~into:parent child)
    apps;
  Alcotest.(check (list int))
    "merged worker counters equal the sequential sums" seq_sum
    (counters (Anactx.stats parent))

(* ------------------------------------------------------------------ *)
(* jobs-level determinism: Ipa.run                                     *)
(* ------------------------------------------------------------------ *)

(* everything an analysis run reports except wall-time statistics *)
let report_summary (r : Ipa_core.Ipa.report) =
  let open Ipa_core in
  ( r.Ipa.iterations,
    List.sort compare r.Ipa.final_rules,
    List.map
      (fun (res : Ipa.resolution) ->
        ( res.Ipa.r_op1,
          res.Ipa.r_op2,
          res.Ipa.r_witness.Detect.violated,
          match res.Ipa.r_outcome with
          | Ipa.Repaired s -> "repaired:" ^ s.Repair.s_op
          | Ipa.Compensated cs ->
              Fmt.str "compensated:%d" (List.length cs)
          | Ipa.Flagged -> "flagged" ))
      r.Ipa.resolutions,
    Ipa_spec.Render.to_string (Ipa.patched_spec r) )

let check_run_identical name (spec : Ipa_spec.Types.t) =
  let open Ipa_core in
  let at jobs = report_summary (Ipa.run ~jobs ~ctx:(Anactx.create ()) spec) in
  let base = at 1 in
  List.iter
    (fun jobs ->
      if at jobs <> base then
        Alcotest.failf "%s: Ipa.run ~jobs:%d diverged from ~jobs:1" name jobs)
    [ 2; 4 ]

let test_run_jobs_identical_catalog () =
  List.iter
    (fun (name, mk) -> check_run_identical name (mk ()))
    [
      ("ticket", Ipa_spec.Catalog.ticket);
      ("tournament", Ipa_spec.Catalog.tournament);
      ("twitter", Ipa_spec.Catalog.twitter);
      ("tpcw", Ipa_spec.Catalog.tpcw);
    ]

let test_run_jobs_identical_mutants seed =
  let rng = Ipa_sim.Rng.create seed in
  List.iter
    (fun (name, mk) ->
      for i = 1 to 3 do
        let m = Ipa_check.Specmut.mutations rng (mk ()) (1 + (i mod 2)) in
        check_run_identical (Fmt.str "%s/mutant-%d" name i) m
      done)
    [ ("ticket", Ipa_spec.Catalog.ticket); ("twitter", Ipa_spec.Catalog.twitter) ]

(* ------------------------------------------------------------------ *)
(* solver recycling                                                    *)
(* ------------------------------------------------------------------ *)

let test_solver_recycling_runs () =
  (* the analysis loop releases each obligation's solver back to the
     per-worker free list; across a whole run the recycle counters must
     grow — allocations are actually being reused, and (per the
     determinism suites around this one) without changing any verdict *)
  let open Ipa_core in
  let released0, reused0 = Ipa_solver.Sat.recycle_stats () in
  let spec = Ipa_spec.Catalog.ticket () in
  let _ = Ipa.run ~jobs:1 ~ctx:(Anactx.create ()) spec in
  let released1, reused1 = Ipa_solver.Sat.recycle_stats () in
  Alcotest.(check bool) "solvers released" true (released1 > released0);
  Alcotest.(check bool) "solvers reused" true (reused1 > reused0)

(* ------------------------------------------------------------------ *)
(* jobs-level determinism: Fuzz.campaign                               *)
(* ------------------------------------------------------------------ *)

let campaign_summary (r : Ipa_check.Fuzz.report) =
  let open Ipa_check in
  ( r.Fuzz.runs,
    r.Fuzz.failed_runs,
    r.Fuzz.failed_seeds,
    Option.map (fun c -> Trace.to_string c.Fuzz.trace) r.Fuzz.first )

let check_campaign_identical ~app ~repaired ~runs ~stop_on_failure seed =
  let open Ipa_check in
  let at jobs =
    campaign_summary
      (Fuzz.campaign ~app ~repaired ~seed ~runs ~stop_on_failure ~jobs ())
  in
  let base = at 1 in
  List.iter
    (fun jobs ->
      if at jobs <> base then
        Alcotest.failf
          "%s (repaired=%b, stop=%b): campaign ~jobs:%d diverged from ~jobs:1"
          app repaired stop_on_failure jobs)
    [ 2; 4 ]

let test_campaign_jobs_identical_repaired seed =
  List.iter
    (fun app ->
      check_campaign_identical ~app ~repaired:true ~runs:30
        ~stop_on_failure:false seed)
    [ "ticket"; "twitter" ]

let test_campaign_jobs_identical_failing seed =
  (* the unrepaired tournament fails: the failing-seed set, counts and
     the shrunk first counterexample must agree at every jobs level *)
  check_campaign_identical ~app:"tournament" ~repaired:false ~runs:30
    ~stop_on_failure:false seed;
  (* and the sequential early-stop semantics must be reconstructed *)
  check_campaign_identical ~app:"tournament" ~repaired:false ~runs:30
    ~stop_on_failure:true seed

let () =
  Alcotest.run "ipa_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "filter_map order" `Quick test_filter_map_order;
          Alcotest.test_case "uneven work" `Quick test_uneven_work;
          Alcotest.test_case "jobs=1 fallback" `Quick test_sequential_fallback;
          Alcotest.test_case "jobs clamped" `Quick test_jobs_clamped;
          Alcotest.test_case "worker indices" `Quick test_worker_indices;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
        ] );
      ( "intern",
        [ Alcotest.test_case "multi-domain hammer" `Quick test_intern_hammer ] );
      ( "anactx",
        [
          Alcotest.test_case "merge_stats partition" `Slow
            test_merge_stats_partition;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "solver free list exercised" `Quick
            test_solver_recycling_runs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "Ipa.run jobs-identical (catalog)" `Slow
            test_run_jobs_identical_catalog;
          Testutil.seeded_case "Ipa.run jobs-identical (mutants)" `Slow
            ~default:2026 test_run_jobs_identical_mutants;
          Testutil.seeded_case "campaign jobs-identical (repaired)" `Slow
            ~default:1 test_campaign_jobs_identical_repaired;
          Testutil.seeded_case "campaign jobs-identical (failing)" `Slow
            ~default:1 test_campaign_jobs_identical_failing;
        ] );
    ]
