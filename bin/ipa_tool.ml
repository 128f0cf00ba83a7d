(** The IPA command-line tool (paper §4.1).

    Runs the static analysis on an application specification and reports
    conflicting operation pairs, proposed modifications, synthesized
    compensations, and flagged (coordination-requiring) pairs.

    {v
    ipa_tool analyze <spec.ipa>        run the full IPA loop
    ipa_tool diagnose <spec.ipa>       only list conflicting pairs
    ipa_tool wp <spec.ipa> [op]        print weakest preconditions
    ipa_tool classify <spec.ipa>       classify the invariants (Table 1)
    ipa_tool compose <a.ipa> <b.ipa>…  merge specs and list conflicts
    ipa_tool table1                    print the invariant-class matrix
    v}

    Spec arguments also accept the built-in catalog names
    (tournament|twitter|ticket|tpcw|tpcc).

    Options: [--search-rules] lets the repair search propose convergence
    rules beyond the specification's; [--policy fewest|prefer:<op>]
    selects among repair solutions; [--jobs N] (on [analyze] and
    [fuzz]) spreads the pair checks / fuzz runs over a domain pool —
    defaulting to the machine's recommended domain count (capped), with
    the [IPA_JOBS] environment variable overriding.  Results are
    bit-identical at every jobs level. *)

open Cmdliner
open Ipa_spec
open Ipa_core

(* a spec fault ends the command: [Spec_parser.error_lines] on stderr,
   exit 1 *)
let exit_on_fault ~file e =
  match Spec_parser.error_lines ~file e with
  | Some lines ->
      List.iter prerr_endline lines;
      exit 1
  | None -> raise e

(* a request the loaded specs cannot serve ends the same way *)
let exit_invalid ~file ~where what =
  exit_on_fault ~file (Validate.Invalid [ { where; what } ])

let load_spec path =
  try Serve.load_spec path with e -> exit_on_fault ~file:path e

(* the shared [--jobs N] option: CLI flag beats IPA_JOBS beats the
   machine's recommended domain count; the pool clamps it to its cap *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel phases (default: \
           $(b,IPA_JOBS) if set, else the machine's recommended domain \
           count, capped).  Results are bit-identical at every level.")

let resolve_jobs jobs =
  Option.value jobs ~default:(Ipa_par.Pool.default_jobs ())

let policy_of_string s =
  if s = "fewest" then Repair.Fewest_effects
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "prefer" ->
        Repair.Prefer_op (String.sub s (i + 1) (String.length s - i - 1))
    | _ -> Repair.Fewest_effects

let analyze_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Path to a .ipa file or a catalog name.")
  in
  let search_rules =
    Arg.(
      value & flag
      & info [ "search-rules" ]
          ~doc:"Allow the repair search to propose convergence rules.")
  in
  let policy =
    Arg.(
      value
      & opt string "fewest"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"Resolution policy: fewest | prefer:<operation>.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print solver and cache statistics (SAT calls, conflicts, \
             cache hit rates, pruning rates, per-pair wall time).")
  in
  let run spec_path search_rules policy stats jobs =
    let spec = load_spec spec_path in
    let report =
      Ipa.run ~policy:(policy_of_string policy) ~search_rules
        ~jobs:(resolve_jobs jobs) spec
    in
    Fmt.pr "%a@." Report.pp_report report;
    if stats then Fmt.pr "@.%a@." Report.pp_stats report
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the full IPA analysis loop.")
    Term.(const run $ spec_arg $ search_rules $ policy $ stats $ jobs_arg)

let diagnose_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Path to a .ipa file or a catalog name.")
  in
  let run spec_path =
    let spec = load_spec spec_path in
    let conflicts = Ipa.diagnose spec in
    if conflicts = [] then Fmt.pr "no conflicting pairs@."
    else
      List.iter
        (fun (o1, o2, w) ->
          Fmt.pr "%a@.@." (Report.pp_witness ~op1:o1 ~op2:o2) w)
        conflicts;
    Fmt.pr "%d conflicting pair(s)@." (List.length conflicts)
  in
  Cmd.v
    (Cmd.info "diagnose" ~doc:"List conflicting operation pairs.")
    Term.(const run $ spec_arg)

let table1_cmd =
  let run () = Fmt.pr "%a@." Report.pp_table1 (Catalog.all ()) in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the Table 1 invariant-class matrix.")
    Term.(const run $ const ())

let wp_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Path to a .ipa file or a catalog name.")
  in
  let op_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"OP" ~doc:"Operation to explain (default: all).")
  in
  let run spec_path op_name =
    let spec = load_spec spec_path in
    let ops =
      match op_name with
      | Some n -> (
          match Ipa_spec.Types.find_op spec n with
          | Some o -> [ o ]
          | None ->
              exit_invalid ~file:spec_path ~where:("operation " ^ n)
                "not declared")
      | None -> spec.Ipa_spec.Types.operations
    in
    let noop = Ipa_spec.Types.operation "__noop" [] [] in
    let sg = Ipa_spec.Types.signature spec in
    List.iter
      (fun (o : Ipa_spec.Types.operation) ->
        Fmt.pr "@[<v 2>%s(%a):@,"
          o.oname
          Fmt.(list ~sep:(any ", ") Ipa_logic.Pp.pp_tvar)
          o.oparams;
        let invs = Detect.relevant_invariants spec o noop in
        if invs = [] then Fmt.pr "no invariant constrains this operation@,"
        else
          List.iter
            (fun (u : Pairctx.unification) ->
              Fmt.pr "case %s:@," (Pairctx.describe u);
              List.iter
                (fun (i : Ipa_spec.Types.invariant) ->
                  let g =
                    Ipa_logic.Ground.ground ~sg
                      ~consts:spec.Ipa_spec.Types.consts ~dom:u.dom
                      i.iformula
                  in
                  let w =
                    Effects.ground_writes spec u.dom o u.binding1
                  in
                  let wp = Effects.apply_writes w g in
                  if wp <> g then
                    Fmt.pr "  wp[%s]: %a@," i.iname
                      Ipa_logic.Ground.pp_gformula wp)
                invs)
            (Pairctx.unifications spec o noop);
        Fmt.pr "@]@.")
      ops
  in
  Cmd.v
    (Cmd.info "wp"
       ~doc:
         "Print the weakest precondition of each operation with respect           to the invariants it can affect (per parameter-unification           case).")
    Term.(const run $ spec_arg $ op_arg)

let classify_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPEC" ~doc:"Path to a .ipa file or a catalog name.")
  in
  let run spec_path =
    let spec = load_spec spec_path in
    List.iter
      (fun (i : Ipa_spec.Types.invariant) ->
        let classes = Classify.classify_invariant i in
        Fmt.pr "%-20s %a@." i.iname
          Fmt.(
            list ~sep:(any ", ") (fun ppf c ->
                pf ppf "%s (I-Conf: %s, IPA: %s)" (Classify.class_name c)
                  (if Classify.i_confluent c then "Yes" else "No")
                  (Classify.support_name (Classify.ipa_support c))))
          classes)
      spec.Ipa_spec.Types.invariants;
    Fmt.pr "@.application classes: %a@."
      Fmt.(list ~sep:(any ", ") (fun ppf c -> string ppf (Classify.class_name c)))
      (Classify.app_classes spec)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify the invariants (Table 1 classes).")
    Term.(const run $ spec_arg)

let compose_cmd =
  let specs_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"SPECS" ~doc:"Two or more .ipa files / catalog names.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ] ~doc:"Run the full IPA loop on the merged spec.")
  in
  let run spec_paths analyze_flag =
    let specs = List.map load_spec spec_paths in
    let merged =
      try Ipa_spec.Compose.merge specs
      with Ipa_spec.Compose.Incompatible msg ->
        exit_invalid ~file:(String.concat " + " spec_paths) ~where:"compose"
          msg
    in
    Fmt.pr "merged %d specification(s): %d operations, %d invariants@.@."
      (List.length specs)
      (List.length merged.Ipa_spec.Types.operations)
      (List.length merged.Ipa_spec.Types.invariants);
    if analyze_flag then
      Fmt.pr "%a@." Report.pp_report (Ipa.run merged)
    else begin
      let conflicts = Ipa.diagnose merged in
      List.iter
        (fun (o1, o2, w) ->
          Fmt.pr "%s || %s  (violates: %s)@." o1 o2
            (String.concat ", " w.Detect.violated))
        conflicts;
      Fmt.pr "%d conflicting pair(s)@." (List.length conflicts)
    end
  in
  Cmd.v
    (Cmd.info "compose"
       ~doc:
         "Merge several application specifications sharing one database           (§5.1.4) and report cross-application conflicts.")
    Term.(const run $ specs_arg $ analyze)

(* ------------------------------------------------------------------ *)
(* fuzz: deterministic simulation fuzzing                              *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let open Ipa_check in
  let app_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "app" ] ~docv:"APP"
          ~doc:
            "Catalog app to fuzz (tournament|twitter|ticket|tpcw) or $(b,all).")
  in
  let unrepaired =
    Arg.(
      value & flag
      & info [ "unrepaired" ]
          ~doc:
            "Fuzz the causal baseline instead of the IPA-repaired variant; \
             the campaign then $(i,expects) to find an invariant violation \
             (oracle-has-teeth mode) and fails if it cannot.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Base seed; run $(i,i) uses seed N+i.")
  in
  let runs_arg =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~docv:"K" ~doc:"Schedules to execute per app.")
  in
  let ops_arg =
    Arg.(
      value & opt int 40
      & info [ "ops" ] ~docv:"N" ~doc:"Operation events per schedule.")
  in
  let crashes_arg =
    Arg.(
      value
      & opt ~vopt:2 int 0
      & info [ "crashes" ] ~docv:"N"
          ~doc:
            "Inject N crash-recover events per schedule (plain \
             $(b,--crashes) means 2; use $(b,--crashes=N) for another \
             count).  Every replica runs a checksummed write-ahead log; \
             crashed replicas lose their unflushed tail, recover from \
             snapshot + WAL replay, and the healed cluster must converge \
             bit-identically to the same schedule without crashes.")
  in
  let reads_arg =
    Arg.(
      value
      & opt ~vopt:12 int 0
      & info [ "reads" ] ~docv:"N"
          ~doc:
            "Inject N read/escrow events per schedule (plain $(b,--reads) \
             means 12; use $(b,--reads=N) for another count): weak, \
             bounded-staleness, strong and interval reads of the \
             fuzzer-owned escrow counter, plus escrow mutations.  The \
             oracle judges that every interval read contains the true \
             committed value, every bounded read is served by a replica \
             covering the resolved staleness bound, and every strong \
             read returns the true committed value.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "CI smoke mode: 10 schedules of 25 operations per app \
             (overrides $(b,--runs) and $(b,--ops)).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a saved counterexample trace instead of fuzzing; exits \
             0 iff the recorded verdict (and digest) reproduce.")
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk counterexample trace files.")
  in
  let pp_counterexample app (c : Fuzz.counterexample) out =
    let file =
      Filename.concat out
        (Fmt.str "fuzz-%s-%s-seed%d.trace" app
           (if c.Fuzz.trace.Trace.repaired then "ipa" else "causal")
           c.Fuzz.trace.Trace.seed)
    in
    Trace.save file c.Fuzz.trace;
    Fmt.pr "  counterexample: %d events (%d ops), seed %d@."
      (Trace.n_events c.Fuzz.trace)
      (Trace.n_ops c.Fuzz.trace)
      c.Fuzz.trace.Trace.seed;
    List.iter (fun f -> Fmt.pr "    %a@." Oracle.pp_failure f) c.Fuzz.failures;
    Fmt.pr "  digest %s@." c.Fuzz.outcome.Oracle.digest;
    Fmt.pr "  replay file: %s@." file;
    file
  in
  let run app_sel unrepaired seed runs ops crashes reads quick replay out jobs =
    let runs = if quick then 10 else runs in
    let ops = if quick then 25 else ops in
    match replay with
    | Some file ->
        let tr = Trace.load file in
        let r = Fuzz.replay tr in
        Fmt.pr "replay %s: app=%s %s seed=%d events=%d@." file tr.Trace.app
          (if tr.Trace.repaired then "ipa" else "causal")
          tr.Trace.seed (Trace.n_events tr);
        List.iter
          (fun f -> Fmt.pr "  %a@." Oracle.pp_failure f)
          r.Fuzz.r_outcome.Oracle.failures;
        Fmt.pr "  digest %s@." r.Fuzz.r_outcome.Oracle.digest;
        if r.Fuzz.r_as_expected then begin
          Fmt.pr "reproduced: verdict and digest match the trace file@.";
          0
        end
        else begin
          Fmt.pr "NOT reproduced: verdict or digest differs@.";
          1
        end
    | None ->
        let apps =
          if app_sel = "all" then Harness.app_names
          else if List.mem app_sel Harness.app_names then [ app_sel ]
          else begin
            Fmt.epr "unknown app %s (expected %s|all)@." app_sel
              (String.concat "|" Harness.app_names);
            exit 2
          end
        in
        let repaired = not unrepaired in
        let ok = ref true in
        List.iter
          (fun app ->
            let r =
              Fuzz.campaign ~app ~repaired ~seed ~runs ~n_ops:ops ~crashes
                ~reads ~jobs:(resolve_jobs jobs) ()
            in
            if repaired then begin
              Fmt.pr "%-10s [ipa%s%s]    %d/%d schedules passed@." app
                (if crashes > 0 then "+crash" else "")
                (if reads > 0 then "+read" else "")
                (r.Fuzz.runs - r.Fuzz.failed_runs)
                r.Fuzz.runs;
              match r.Fuzz.first with
              | None -> ()
              | Some c ->
                  ok := false;
                  ignore (pp_counterexample app c out)
            end
            else begin
              match r.Fuzz.first with
              | Some c ->
                  Fmt.pr
                    "%-10s [causal] anomaly found after %d schedule(s)@." app
                    r.Fuzz.runs;
                  ignore (pp_counterexample app c out)
              | None ->
                  ok := false;
                  Fmt.pr
                    "%-10s [causal] no invariant violation in %d schedules \
                     (oracle has no teeth?)@."
                    app r.Fuzz.runs
            end)
          apps;
        if !ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministic simulation fuzzing of the catalog apps on the \
          replicated runtime (random schedules + injected faults, \
          convergence and invariant oracles, trace shrinking).")
    Term.(
      const (fun a u s r o c rd q rp out j ->
          match run a u s r o c rd q rp out j with
          | 0 -> ()
          | code -> Stdlib.exit code)
      $ app_arg $ unrepaired $ seed_arg $ runs_arg $ ops_arg $ crashes_arg
      $ reads_arg $ quick_arg $ replay_arg $ out_arg $ jobs_arg)

let serve_cmd =
  let run jobs =
    Serve.serve ~jobs:(resolve_jobs jobs) stdin stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Incremental analysis server on stdin/stdout.  Load a \
          specification, re-send it after each edit, and re-analyze: \
          the analysis context persists across requests, so a \
          re-analysis re-solves only the proof obligations the edit \
          invalidated and answers the rest from cache.  Send $(b,help) \
          for the protocol.")
    Term.(const run $ jobs_arg)

let main =
  Cmd.group
    (Cmd.info "ipa_tool" ~version:"1.0.0"
       ~doc:"Invariant-preserving application analysis (IPA).")
    [
      analyze_cmd;
      diagnose_cmd;
      wp_cmd;
      classify_cmd;
      compose_cmd;
      table1_cmd;
      fuzz_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval main)
