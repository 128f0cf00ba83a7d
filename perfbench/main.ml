(* The repo benchmark: one command, four named workloads.

     perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 it measures the workload for about --seconds seconds
   with tracing off and prints the end-to-end metrics; with --trace 1 it
   runs a fixed amount of the same work twice, untraced then traced, and
   prints the per-layer metrics plus the tracing overhead.  Human-readable
   lines (every metric with its unit and sample count) come first; the
   last line of standard output is one JSON object.

   Deliberately unmeasured: lib/sim (Engine, Net) and Runtime.Driver /
   Config only produce modelled time; lib/check is the test harness
   (used here only for specification growth and invariant checks);
   lib/par needs a host with more cores than the 2-core reference host,
   so every run is single-threaded with jobs=1. *)

open Perfbench_lib
module Rng = Ipa_sim.Rng

let workloads = [ "analyze-catalog"; "reanalyze-edits"; "replicate-zipf"; "replicate-wide" ]
let out_dir = "_perfbench"

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; n : int }

let m ?(n = 1) name unit_ value = { name; value; unit_; n }
let mi ?n name unit_ v = m ?n name unit_ (float_of_int v)

let print_metric (x : metric) =
  Printf.printf "  %-28s %18.6f %-6s n=%d\n" x.name x.value x.unit_ x.n

let json_num (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_json ~correct ~attempted ~failed (ms : metric list) =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_num x.value) x.unit_)
          ms))

(* A percentile in the given unit, or a refusal line when too few
   samples lie beyond it. *)
let pct name unit_ (xs : float array) (p : float) : metric option =
  let n = Array.length xs in
  match Stats.percentile xs p with
  | Some v -> Some (m ~n name unit_ v)
  | None ->
      Printf.printf "  %-28s refused: %d samples, %d beyond p%g (need %d)\n" name n
        (if n = 0 then 0 else Stats.beyond ~n p)
        p Stats.min_beyond;
      None

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Run [f] [k] times; keep the last result, discard the others
   (compacting the heap after each, when [discard] is given, so that
   discarded state does not pile up); return it with the median seconds
   per set-up. *)
let setups ?discard (k : int) (f : unit -> 'a) : 'a * float =
  let times = Array.make k 0.0 in
  let last = ref None in
  for i = 0 to k - 1 do
    (match (discard, !last) with
    | Some d, Some x ->
        d x;
        Gc.compact ()
    | _ -> ());
    let t0 = Span.now_ns () in
    last := Some (f ());
    times.(i) <- float_of_int (Span.now_ns () - t0) /. 1e9
  done;
  (Option.get !last, Stats.median times)

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** the JSON metrics *)
  extra : metric list;  (** printed only: workload-specific end-to-end figures *)
}

let checks_failed checks =
  List.iter (fun (what, ok) -> if not ok then Printf.printf "  CHECK FAILED: %s\n" what) checks;
  List.length (List.filter (fun (_, ok) -> not ok) checks)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let self name = Span.self_ms name

let analysis_layers (c : Analysis.counts) : metric list =
  let open Analysis in
  [
    m "logic.ground_ms" "ms" (self "logic.ground") ~n:(Span.calls "logic.ground");
    m "logic.ground_hit_ratio" "ratio" (ratio c.ground_hits c.ground_misses);
    mi "solver.sat_calls" "count" c.sat_calls;
    mi "solver.conflicts" "count" c.conflicts;
    mi "solver.decisions" "count" c.decisions;
    mi "solver.propagations" "count" c.propagations;
    mi "solver.learnts_removed" "count" c.learnts_removed;
    m "core.ipa_run_ms" "ms" (self "core.ipa_run") ~n:(Span.calls "core.ipa_run");
    m "core.detect_scan_ms" "ms" (self "core.detect_scan") ~n:(Span.calls "core.detect_scan");
    m "core.obligation_ms" "ms" (self "core.obligation") ~n:(Span.calls "core.obligation");
    mi "core.obligations" "count" c.obligations;
    mi "core.iterations" "count" c.iterations;
    mi "core.pairs_checked" "count" c.pairs_checked;
    mi "core.cands_checked" "count" c.cands_checked;
    m "core.prune_ratio" "ratio" (ratio c.cands_pruned c.cands_checked);
    m "core.oblig_hit_ratio" "ratio" (ratio c.oblig_hits c.oblig_misses);
    m "core.case_hit_ratio" "ratio" (ratio c.case_hits c.case_misses);
    m "core.reuse_ratio" "ratio"
      (ratio (c.oblig_hits + c.case_hits) (c.oblig_misses + c.case_misses));
    m "serve.spec_ms" "ms" (self "serve.spec") ~n:(Span.calls "serve.spec");
    m "serve.analyze_ms" "ms" (self "serve.analyze") ~n:(Span.calls "serve.analyze");
  ]

let store_layers (r : Replicate.result) : metric list =
  let st = r.Replicate.st in
  let c = st.Replicate.c in
  let reps = Array.to_list st.reps in
  let sum f = List.fold_left (fun a x -> a + f x) 0 reps in
  let mx f = List.fold_left (fun a x -> max a (f x)) 0 reps in
  let open Ipa_store in
  let span name metric = m metric "ms" (self name) ~n:(Span.calls name) in
  [
    span "apps.exec" "apps.exec_ms";
    mi "apps.aborts" "count" c.aborts;
    span "store.receive" "store.receive_ms";
    mi "store.receives" "count" (Span.calls "store.receive");
    mi "store.pending_hwm" "count" (mx (fun x -> x.Replica.pending_hwm));
    mi "store.drain_scans" "count" (sum (fun x -> x.Replica.drain_scans));
    mi "store.duplicates_dropped" "count" (sum (fun x -> x.Replica.duplicates_dropped));
    span "store.digest" "store.digest_ms";
    mi "store.dirty_entries" "count" c.dirty;
    span "store.gc" "store.gc_ms";
    mi "store.gc_reclaimed" "count" c.gc_reclaimed;
    mi "store.log_truncated" "count" (sum (fun x -> x.Replica.log_truncated));
    mi "store.log_hwm" "count" (mx (fun x -> x.Replica.log_hwm));
    span "read.quiesce" "read.quiesce_ms";
    mi "read.quiesce_rounds" "count" c.strong_rounds;
    span "wal.append" "wal.append_ms";
    mi "wal.flushes" "count" (Array.fold_left (fun a w -> a + w.Wal.flushes) 0 st.wals);
    m "wal.bytes_per_update" "B" (float_of_int c.wal_bytes /. float_of_int (max 1 c.updates));
    span "wal.checkpoint" "wal.checkpoint_ms";
    span "wal.recover" "wal.recover_ms";
    mi "wal.replayed" "count" r.recovery.Wal.rec_replayed;
    mi "wal.valid_bytes" "B" r.recovery.Wal.rec_valid_bytes;
    span "sync.round" "sync.round_ms";
    mi "sync.retransmitted" "count" c.retransmitted;
    mi "sync.delta_buf_hits" "count" st.sync.Sync.delta_buf_hits;
    span "sync.descent" "sync.descent_ms";
    mi "sync.nodes_visited" "count" c.nodes_visited;
    span "sync.repair" "sync.repair_ms";
    mi "sync.repair_bytes" "B" c.repair_bytes;
    span "escrow.tick" "escrow.tick_ms";
    mi "escrow.migrations" "count"
      (Array.fold_left
         (fun a e -> a + e.Ipa_runtime.Escrow.stats.Ipa_runtime.Escrow.migrations)
         0 st.mgrs);
    mi "escrow.blocking_fetches" "count" c.fetches;
    m "escrow.hit_ratio" "ratio" (Analysis.ratio c.dec_hits (c.dec_attempts - c.dec_hits));
  ]

let traced (f : unit -> 'a) : 'a =
  Span.enabled := true;
  Fun.protect ~finally:(fun () -> Span.enabled := false) f

(* A small fixed run of the other family's layers, so that every layer
   metric is measured on every workload's traced run; set-up untraced. *)
let store_slice (seed : int) : Replicate.result =
  let dir = Filename.concat out_dir (Printf.sprintf "slice-%d" (Unix.getpid ())) in
  let st = Replicate.setup ~dir Replicate.slice in
  Fun.protect ~finally:(fun () -> Replicate.close st) (fun () ->
      traced (fun () -> Replicate.run ~epochs:4 st (Rng.create seed)))

(* A short warm session: three edits of slightly grown Twitter. *)
let serve_slice (seed : int) : unit =
  let s = Analysis.session_setup ~grow:4 ~edits:3 seed in
  Array.iteri (fun i _ -> ignore (Analysis.edit s i)) s.Analysis.texts

let analysis_slice (seed : int) : Analysis.counts =
  let c = Analysis.counts () in
  List.iter
    (fun name ->
      let r, _ = Analysis.cold c (Ipa_core.Serve.load_spec name) in
      Analysis.probe c r)
    [ "ticket"; "twitter"; "tpcw" ];
  serve_slice seed;
  c

type gc_delta = { minor_words : float; major : int }

let gc_delta (f : unit -> 'a) : 'a * gc_delta =
  let g0 = Gc.quick_stat () in
  let x = f () in
  let g1 = Gc.quick_stat () in
  ( x,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let common_layers ~(ops : int) ~(gc : gc_delta) ~(untraced_s : float) ~(traced_s : float) =
  [
    m "ocaml.minor_words_per_op" "words" (gc.minor_words /. float_of_int (max 1 ops)) ~n:ops;
    mi "ocaml.major_collections" "count" gc.major;
    m "ocaml.heap_peak_mb" "MB" (heap_peak_mb ());
    m "trace.overhead_pct" "%" (100.0 *. (traced_s -. untraced_s) /. untraced_s);
    mi "trace.spans" "count" (Span.recorded ());
  ]

let e2e ~setup_s ~setups ~ops_per_s ~ops ~p50_ms ~n =
  [
    m "setup_s" "s" setup_s ~n:setups;
    m "ops_per_s" "1/s" ops_per_s ~n:ops;
    m "latency_ms_p50" "ms" p50_ms ~n;
  ]

(* ------------------------------------------------------------------ *)
(* Workloads.  --seconds sizes a fixed amount of work at the reference *)
(* host's rate, so that both sides of a comparison run the same inputs. *)
(* ------------------------------------------------------------------ *)

let catalog_pass_s = 8.0

let analyze_catalog ~seed ~seconds ~trace : outcome =
  let cat, setup_s = setups 5 Analysis.catalog_setup in
  let passes = max 1 (int_of_float (Float.round (seconds /. catalog_pass_s))) in
  let measure c =
    let rng = Rng.create seed in
    List.init passes (fun _ -> Analysis.catalog_pass c cat rng)
  in
  let seconds_of ps = List.fold_left (fun a p -> a +. p.Analysis.seconds) 0.0 ps in
  let mismatches ps = List.fold_left (fun a p -> a + p.Analysis.mismatches) 0 ps in
  if not trace then begin
    let ps = measure (Analysis.counts ()) in
    let times = Array.of_list (List.map (fun p -> p.Analysis.seconds) ps) in
    {
      attempted = 4 * passes;
      failed = mismatches ps;
      metrics =
        e2e ~setup_s ~setups:5 ~ops:(4 * passes)
          ~ops_per_s:(float_of_int (4 * passes) /. seconds_of ps)
          ~p50_ms:(1000.0 *. Stats.median times) ~n:passes;
      extra = [ m "analyze_s" "s" (Stats.median times) ~n:passes; m "heap_peak_mb" "MB" (heap_peak_mb ()) ];
    }
  end
  else begin
    let u, gc = gc_delta (fun () -> measure (Analysis.counts ())) in
    let c = Analysis.counts () in
    let t =
      traced (fun () ->
          let ps = measure c in
          List.iter (fun (_, r) -> Analysis.probe c r) (List.hd ps).Analysis.reports;
          serve_slice seed;
          ps)
    in
    let store = store_slice seed in
    {
      attempted = (8 * passes) + List.length store.Replicate.checks;
      failed = mismatches u + mismatches t + checks_failed store.checks;
      metrics =
        analysis_layers c @ store_layers store
        @ common_layers ~ops:(4 * passes) ~gc ~untraced_s:(seconds_of u)
            ~traced_s:(seconds_of t);
      extra = [];
    }
  end

let edits_per_s = 12.0

let reanalyze_edits ~seed ~seconds ~trace : outcome =
  let n_edits = max 100 (int_of_float (Float.round (seconds *. edits_per_s))) in
  let setup () = Analysis.session_setup ~edits:n_edits seed in
  let sess, setup_s = setups 3 setup in
  (* a fixed sample of edits re-checked against cold analyses, outside
     the timed region *)
  let sample = List.filter (fun i -> i < n_edits) [ 0; 13; 37; 101 ] in
  let measure (s : Analysis.session) =
    let lat = Array.make n_edits 0.0 and failed = ref 0 and warm = ref [] in
    let iterations = ref 0 in
    for i = 0 to n_edits - 1 do
      let ms, reply, bad = Analysis.edit s i in
      lat.(i) <- ms;
      iterations := !iterations + Analysis.iterations_of reply;
      if bad then incr failed;
      if List.mem i sample then warm := (i, reply) :: !warm
    done;
    (lat, !failed, List.rev !warm, !iterations)
  in
  let cold_checks (s : Analysis.session) (c_cold : Analysis.counts) warm =
    List.map
      (fun (i, reply) ->
        let ok, r = Analysis.warm_equals_cold c_cold s i reply in
        ((Printf.sprintf "edit %d: warm report = cold report" i, ok), r))
      warm
  in
  let sum = Array.fold_left ( +. ) 0.0 in
  if not trace then begin
    let lat, failed, warm, _ = measure sess in
    let checks = List.map fst (cold_checks sess (Analysis.counts ()) warm) in
    {
      attempted = n_edits + List.length checks;
      failed = failed + checks_failed checks;
      metrics =
        e2e ~setup_s ~setups:3 ~ops:n_edits
          ~ops_per_s:(float_of_int n_edits /. (sum lat /. 1000.0))
          ~p50_ms:(Stats.median lat) ~n:n_edits;
      extra =
        List.filter_map Fun.id
          [
            pct "reanalyze_ms_p50" "ms" lat 50.0;
            pct "reanalyze_ms_p90" "ms" lat 90.0;
            Some (m "heap_peak_mb" "MB" (heap_peak_mb ()));
          ];
    }
  end
  else begin
    let (u_lat, u_failed, u_warm, _), gc = gc_delta (fun () -> measure sess) in
    let u_checks = cold_checks sess (Analysis.counts ()) u_warm in
    let s = setup () in
    let before = Analysis.session_counts s in
    let c_cold = Analysis.counts () in
    let t_lat, t_failed, t_checks, iterations =
      traced (fun () ->
          let lat, failed, warm, iterations = measure s in
          let checks = cold_checks s c_cold warm in
          (match List.rev checks with (_, rep) :: _ -> Analysis.probe c_cold rep | [] -> ());
          (lat, failed, checks, iterations))
    in
    (* warm-session counters for the edits, from the session's own
       stats; the probe's obligation count from the cold runs *)
    let c = Analysis.diff (Analysis.session_counts s) before in
    c.Analysis.iterations <- iterations;
    c.obligations <- c_cold.Analysis.obligations;
    let store = store_slice seed in
    let checks = List.map fst (u_checks @ t_checks) @ store.Replicate.checks in
    {
      attempted = (2 * n_edits) + List.length checks;
      failed = u_failed + t_failed + checks_failed checks;
      metrics =
        analysis_layers c @ store_layers store
        @ common_layers ~ops:n_edits ~gc ~untraced_s:(sum u_lat) ~traced_s:(sum t_lat);
      extra = [];
    }
  end

let replicate (p : Replicate.params) ~seed ~seconds ~trace : outcome =
  let dir = Filename.concat out_dir (Printf.sprintf "wal-%d" (Unix.getpid ())) in
  let setup () = Replicate.setup ~dir p in
  let epochs = Replicate.epochs p ~seconds in
  let run st = Replicate.run ~epochs st (Rng.create seed) in
  let closing st f = Fun.protect ~finally:(fun () -> Replicate.close st) f in
  if not trace then begin
    let k = if p.Replicate.counter_keys > 0 then 3 else 7 in
    let st, setup_s = setups ~discard:Replicate.close k setup in
    let r = closing st (fun () -> run st) in
    let c = st.Replicate.c in
    let lat = r.Replicate.lat in
    let us name xs p = pct name "us" (Stats.contents xs) p in
    let failed = c.failed + checks_failed r.checks in
    let attempted = c.ops + List.length r.checks in
    {
      attempted;
      failed;
      (* medians over the epochs, so that a burst of load from another
         process on the host moves a few epochs, not the result.  The
         latency is each epoch's mean over all operations: reads are
         about half of zipf's operations, so the median single operation
         falls on the step between read and update latencies. *)
      metrics =
        e2e ~setup_s ~setups:k ~ops:c.ops
          ~ops_per_s:
            (Stats.median
               (Array.map (fun s -> float_of_int p.Replicate.epoch_ops /. s) r.epoch_s))
          ~p50_ms:(Stats.median r.epoch_us /. 1000.0)
          ~n:(Array.length r.epoch_us);
      extra =
        List.filter_map Fun.id
          [
            us "update_us_p50" lat.update 50.0;
            us "update_us_p99" lat.update 99.0;
            us "read_us_p50" lat.read 50.0;
            us "read_us_p99" lat.read 99.0;
            us "strong_read_us_p50" lat.strong 50.0;
            us "strong_read_us_p99" lat.strong 99.0;
          ]
        @ [
            m "converge_ms" "ms" (Stats.median (Array.of_list r.converge_ms))
              ~n:(List.length r.converge_ms);
            m "recover_ms" "ms" r.recover_ms;
            m "heap_peak_mb" "MB" (heap_peak_mb ());
            m "fail_ratio" "ratio" (float_of_int failed /. float_of_int attempted) ~n:attempted;
          ];
    }
  end
  else begin
    (* keep only a summary of the untraced run, so that its cluster is
       garbage before the traced run builds another; its GC counts cover
       the measured epochs only *)
    let u_ops, u_failed, u_checks, u_s, gc =
      let st = setup () in
      let u = closing st (fun () -> run st) in
      ( st.Replicate.c.ops, st.c.failed, u.Replicate.checks, u.loop_s,
        { minor_words = u.minor_words; major = u.major_collections } )
    in
    Gc.compact ();
    let t =
      let st = setup () in
      closing st (fun () -> traced (fun () -> run st))
    in
    let layers = store_layers t in
    let c = traced (fun () -> analysis_slice seed) in
    let checks = u_checks @ t.checks in
    {
      attempted = (2 * u_ops) + List.length checks;
      failed = u_failed + t.st.c.failed + checks_failed checks;
      metrics =
        analysis_layers c @ layers
        @ common_layers ~ops:u_ops ~gc ~untraced_s:u_s ~traced_s:t.loop_s;
      extra = [];
    }
  end

let write_golden () =
  let cat =
    {
      Analysis.specs = List.map (fun n -> (n, Ipa_core.Serve.load_spec n)) Analysis.catalog;
      golden = [];
    }
  in
  let p = Analysis.catalog_pass (Analysis.counts ()) cat (Rng.create 0) in
  let oc = open_out Analysis.golden_path in
  output_string oc "# Cold Ipa.run summary per catalog spec (perfbench/run.sh --write-golden)\n";
  List.iter
    (fun name -> output_string oc (Analysis.summary name (List.assoc name p.reports) ^ "\n"))
    Analysis.catalog;
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let golden = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--write-golden", Arg.Set golden, " regenerate the catalog golden summaries");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
    "perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>";
  if !golden then (write_golden (); exit 0);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists Analysis.golden_path) then begin
    prerr_endline "run from the repository root (perfbench/golden missing)";
    exit 2
  end;
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" !workload seed seconds trace;
  let o =
    match !workload with
    | "analyze-catalog" -> analyze_catalog ~seed ~seconds ~trace
    | "reanalyze-edits" -> reanalyze_edits ~seed ~seconds ~trace
    | "replicate-zipf" -> replicate Replicate.zipf ~seed ~seconds ~trace
    | _ -> replicate Replicate.wide ~seed ~seconds ~trace
  in
  List.iter print_metric (o.metrics @ o.extra);
  if trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" !workload seed) in
    Span.write path;
    Printf.printf "  spans written to %s\n" path
  end;
  print_json ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed o.metrics
