(** The IPA main loop (Algorithm 1, function [ipa]).

    Iteratively finds a conflicting pair, searches for repairs, applies
    the resolution chosen by the policy, and continues until no
    unhandled conflicts remain.  Pairs whose conflicts cannot be repaired
    by extra effects are handed to the compensation synthesizer (§3.4);
    if that fails too, the pair is flagged for the programmer to protect
    with coordination (§3, step 3). *)

open Ipa_spec

(** How a conflicting pair was handled. *)
type resolution = {
  r_op1 : string;
  r_op2 : string;
  r_witness : Detect.witness;  (** the conflict that triggered the repair *)
  r_outcome : outcome_kind;
}

and outcome_kind =
  | Repaired of Repair.solution
  | Compensated of Compensation.t list
  | Flagged  (** unsolvable: requires coordination *)

type report = {
  spec : Types.t;  (** input specification *)
  final_ops : Detect.aop list;  (** operations after modification *)
  final_rules : (string * Types.conv_rule) list;
  resolutions : resolution list;
  iterations : int;
  stats : Anactx.stats;  (** solver/cache statistics of the run *)
}

(** The patched specification: modified operations and final rules. *)
let patched_spec (r : report) : Types.t =
  {
    r.spec with
    operations = List.map (fun (o : Detect.aop) -> o.Detect.cur) r.final_ops;
    rules = r.final_rules;
  }

let flagged_pairs (r : report) : (string * string) list =
  List.filter_map
    (fun res ->
      match res.r_outcome with
      | Flagged -> Some (res.r_op1, res.r_op2)
      | _ -> None)
    r.resolutions

let compensations (r : report) : Compensation.t list =
  List.concat_map
    (fun res ->
      match res.r_outcome with Compensated cs -> cs | _ -> [])
    r.resolutions

(** Per-worker analysis state of a parallel run: the pool plus one
    context per worker (index 0 is the caller's — the parent context
    itself, so its caches keep warming across iterations). *)
type workers = { pool : Ipa_par.Pool.t; wctxs : Anactx.t array }

(** Run [f] with the domain pool and per-worker contexts for [jobs]
    workers ([None] when sequential); fold worker counters back into
    [ctx] afterwards, also on exceptions. *)
let with_workers ~(jobs : int) (ctx : Anactx.t) (f : workers option -> 'a) :
    'a =
  if jobs <= 1 then f None
  else
    Ipa_par.Pool.with_pool ~jobs (fun pool ->
        let wctxs =
          Array.init jobs (fun i ->
              if i = 0 then ctx else Anactx.fresh ~like:ctx)
        in
        Fun.protect
          ~finally:(fun () ->
            for i = 1 to jobs - 1 do
              Anactx.merge_stats ~into:ctx wctxs.(i)
            done)
          (fun () -> f (Some { pool; wctxs })))

(** Run the IPA analysis.

    [policy] selects among repair solutions (default: fewest extra
    effects).  [search_rules] lets the repair search propose convergence
    rules different from the specification's (the interactive tool mode).
    [max_iterations] bounds the outer loop.  [ctx] carries the
    grounding/verdict caches and instrumentation; a fresh one (caching
    and pruning enabled) is created when absent.

    [jobs] spreads each iteration's pair checks over a domain pool; the
    first conflicting pair in specification order is selected, so the
    analysis outcome is identical at every [jobs] level (the verdict of
    a pair is a deterministic function of the current spec — the caches
    and pruning are exact — so checking {e more} pairs per iteration
    than the sequential early-exit scan, and remembering their safe
    verdicts, can never change which conflict is found next). *)
let run ?(policy = Repair.Fewest_effects) ?(search_rules = false)
    ?(max_size = 3) ?(max_iterations = 64) ?ctx ?jobs (spec : Types.t) :
    report =
  let jobs =
    match jobs with
    | Some j -> max 1 (min Ipa_par.Pool.cap j)
    | None -> Ipa_par.Pool.env_jobs ()
  in
  let ctx = match ctx with Some c -> c | None -> Anactx.create () in
  with_workers ~jobs ctx @@ fun workers ->
  let ops = ref (List.map Detect.aop_of spec.operations) in
  let rules = ref spec.rules in
  let resolutions = ref [] in
  let ignored : (string * string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* pairs already proven safe; invalidated when an operation of the pair
     is modified or the convergence rules change *)
  let known_safe : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let invalidate name =
    (* modifying an operation stales every cached verdict about it: the
       safe cache, but also the [ignored] table and any compensation or
       flag recorded for a pair involving it — the conflict that
       motivated them may no longer exist (or may now be repairable). *)
    let drop tbl =
      Hashtbl.iter
        (fun (a, b) () -> if a = name || b = name then Hashtbl.remove tbl (a, b))
        (Hashtbl.copy tbl)
    in
    drop known_safe;
    drop ignored;
    resolutions :=
      List.filter
        (fun r ->
          match r.r_outcome with
          | Repaired _ -> true
          | Compensated _ | Flagged -> r.r_op1 <> name && r.r_op2 <> name)
        !resolutions
  in
  let iterations = ref 0 in
  let continue_ = ref true in
  while !continue_ && !iterations < max_iterations do
    incr iterations;
    let spec_now = { spec with rules = !rules } in
    (* find the first conflicting pair that is not already handled *)
    let rec pairs = function
      | [] -> []
      | o :: rest -> List.map (fun o' -> (o, o')) (o :: rest) @ pairs rest
    in
    let unhandled (o1 : Detect.aop) (o2 : Detect.aop) =
      let key = (o1.Detect.cur.oname, o2.Detect.cur.oname) in
      (not (Hashtbl.mem ignored key)) && not (Hashtbl.mem known_safe key)
    in
    let conflict =
      match workers with
      | None ->
          (* sequential: scan lazily, stop at the first conflict *)
          List.find_map
            (fun ((o1 : Detect.aop), (o2 : Detect.aop)) ->
              if not (unhandled o1 o2) then None
              else
                let key = (o1.Detect.cur.oname, o2.Detect.cur.oname) in
                match
                  Anactx.time (Some ctx) key (fun () ->
                      Detect.check_pair ~ctx spec_now o1 o2)
                with
                | Detect.Conflict w -> Some (o1, o2, w)
                | Detect.Safe ->
                    Hashtbl.replace known_safe key ();
                    None)
            (pairs !ops)
      | Some { pool; wctxs } ->
          (* parallel: fan out per-clause proof obligations, not whole
             pairs.  A block of candidate pairs is sized by its
             obligation count (pairs differ wildly in unification cases
             × relevant clauses, so pair-granular blocks load-balance
             poorly); the block's obligations are discharged
             concurrently into the worker contexts, absorbed into the
             parent, and the pairs are then concluded on the parent in
             deterministic specification order — every obligation lookup
             a cache hit, only a conflicting case's witness extraction
             still solving.  The block bounds speculation: at most one
             block's tail beyond the first conflict is solved, and those
             verdicts are valid under the current spec/rules, so caching
             them is sound — [invalidate] and the rules-change reset
             below stale them exactly as the sequential ones.

             Each block shares a fresh frozen snapshot of the parent's
             caches with workers 1.. (worker 0 is the parent and reads
             its live tables directly), so obligation and grounding work
             any worker paid for in block [i] is a hit for every worker
             in block [i+1].  Blocks whose obligation count cannot keep
             the pool busy skip the fork/join barrier entirely and run
             on the parent — this is what post-repair re-scans (a
             handful of invalidated pairs, everything else cached) hit,
             where the barrier used to cost more than the work. *)
          let candidates =
            List.filter (fun (o1, o2) -> unhandled o1 o2) (pairs !ops)
          in
          let jobs_n = Ipa_par.Pool.jobs pool in
          let target_obls = 16 * jobs_n in
          (* only *fresh* obligations (verdict not already cached on the
             parent) count toward the block size and enter the fan-out:
             cached ones cost a barrier round-trip just to hit in the
             shared snapshot.  On a warm re-scan this collapses the whole
             iteration into one barrier-free block. *)
          let rec take_block nobls acc = function
            | [] -> (List.rev acc, [])
            | (((o1, o2) : Detect.aop * Detect.aop) :: rest) as l ->
                if nobls >= target_obls && acc <> [] then (List.rev acc, l)
                else
                  let obls =
                    List.filter
                      (fun (ob : Detect.oblig) ->
                        not (Anactx.oblig_cached (Some ctx) ob.Detect.ob_key))
                      (Detect.obligations spec_now o1 o2)
                  in
                  take_block
                    (nobls + List.length obls)
                    (((o1, o2), obls) :: acc)
                    rest
          in
          (* snapshot the parent's caches at most once per iteration,
             lazily — the copy is linear in the cache size, so paying
             it per block would dominate warm re-scans.  Workers keep
             their private discoveries for the whole iteration; block
             verdicts flow back to the parent by value (oblig_put), and
             the tables merge once in the iteration-end absorb. *)
          let shared = ref false in
          let ensure_shared () =
            if not !shared then begin
              shared := true;
              let ro = Anactx.freeze ctx in
              Array.iteri (fun i c -> if i > 0 then Anactx.share c ro) wctxs
            end
          in
          let solve_block items =
            if List.length items < 2 * jobs_n then
              (* not enough work to pay for the barrier: the parent
                 discharges the obligations itself *)
              List.iter
                (fun (ob : Detect.oblig) ->
                  let key =
                    ( ob.Detect.ob_o1.Detect.cur.oname,
                      ob.Detect.ob_o2.Detect.cur.oname )
                  in
                  ignore
                    (Anactx.time (Some ctx) key (fun () ->
                         Detect.solve_obligation ~ctx spec_now ob)))
                items
            else begin
              ensure_shared ();
              let verdicts =
                Ipa_par.Pool.map_worker pool
                  ~f:(fun ~worker (ob : Detect.oblig) ->
                    let c = wctxs.(worker) in
                    let key =
                      ( ob.Detect.ob_o1.Detect.cur.oname,
                        ob.Detect.ob_o2.Detect.cur.oname )
                    in
                    ( ob.Detect.ob_key,
                      Anactx.time (Some c) key (fun () ->
                          Detect.solve_obligation ~ctx:c spec_now ob) ))
                  items
              in
              List.iter
                (fun (key, v) -> Anactx.oblig_put (Some ctx) key v)
                verdicts
            end
          in
          let rec scan = function
            | [] -> None
            | cands ->
                let blk, rest = take_block 0 [] cands in
                solve_block (List.concat_map snd blk);
                (* conclude in specification order on the parent *)
                let rec conclude = function
                  | [] -> scan rest
                  | (((o1 : Detect.aop), (o2 : Detect.aop)), _) :: more -> (
                      let key = (o1.Detect.cur.oname, o2.Detect.cur.oname) in
                      match
                        Anactx.time (Some ctx) key (fun () ->
                            Detect.check_pair ~ctx spec_now o1 o2)
                      with
                      | Detect.Conflict w -> Some (o1, o2, w)
                      | Detect.Safe ->
                          Hashtbl.replace known_safe key ();
                          conclude more)
                in
                conclude blk
          in
          let found = scan candidates in
          (* merge every worker's private discoveries (grounding,
             obligations solved for its blocks, witness cases) into the
             parent so the next iteration's snapshot carries them *)
          Array.iteri
            (fun i c -> if i > 0 then Anactx.absorb ~into:ctx c)
            wctxs;
          found
    in
    match conflict with
    | None -> continue_ := false
    | Some (o1, o2, w) -> (
        let name1 = o1.Detect.cur.oname and name2 = o2.Detect.cur.oname in
        let sols =
          Anactx.time (Some ctx) (name1, name2) (fun () ->
              Repair.repair_conflicts ~max_size ~search_rules ~ctx ~witness:w
                spec_now (o1, o2))
        in
        match Repair.pick policy sols with
        | Some sol ->
            (* install the modified operation and any rule changes *)
            let p1, p2 = sol.Repair.s_pair in
            ops :=
              List.map
                (fun (o : Detect.aop) ->
                  if o.Detect.cur.oname = name1 then p1
                  else if o.Detect.cur.oname = name2 then p2
                  else o)
                !ops;
            invalidate name1;
            invalidate name2;
            (* compare rule assignments as sets: enumeration order must
               not force a spurious full invalidation *)
            if not (Types.rules_equal sol.Repair.s_rules !rules) then
              Hashtbl.reset known_safe;
            rules := sol.Repair.s_rules;
            resolutions :=
              {
                r_op1 = name1;
                r_op2 = name2;
                r_witness = w;
                r_outcome = Repaired sol;
              }
              :: !resolutions
        | None -> (
            (* no effect-based repair: try compensations for the violated
               invariants *)
            let comps = Compensation.synthesize spec_now w.Detect.violated in
            Hashtbl.replace ignored (name1, name2) ();
            if Compensation.covers comps w.Detect.violated then
              resolutions :=
                {
                  r_op1 = name1;
                  r_op2 = name2;
                  r_witness = w;
                  r_outcome = Compensated comps;
                }
                :: !resolutions
            else
              resolutions :=
                {
                  r_op1 = name1;
                  r_op2 = name2;
                  r_witness = w;
                  r_outcome = Flagged;
                }
                :: !resolutions))
  done;
  {
    spec;
    final_ops = !ops;
    final_rules = !rules;
    resolutions = List.rev !resolutions;
    iterations = !iterations;
    stats = Anactx.stats ctx;
  }

(** All conflicting pairs of the unmodified specification — the
    diagnosis step, useful on its own.  Pair checks are independent, so
    [jobs > 1] simply fans them out; the result list is in pair order
    at every level. *)
let diagnose ?jobs (spec : Types.t) :
    (string * string * Detect.witness) list =
  let jobs =
    match jobs with
    | Some j -> max 1 (min Ipa_par.Pool.cap j)
    | None -> Ipa_par.Pool.env_jobs ()
  in
  let ops = List.map Detect.aop_of spec.operations in
  let rec pairs = function
    | [] -> []
    | o :: rest -> List.map (fun o' -> (o, o')) (o :: rest) @ pairs rest
  in
  let check ?ctx ((o1 : Detect.aop), (o2 : Detect.aop)) =
    match Detect.check_pair ?ctx spec o1 o2 with
    | Detect.Conflict w -> Some (o1.Detect.cur.oname, o2.Detect.cur.oname, w)
    | Detect.Safe -> None
  in
  if jobs <= 1 then List.filter_map check (pairs ops)
  else
    Ipa_par.Pool.with_pool ~jobs (fun pool ->
        let wctxs = Array.init jobs (fun _ -> Anactx.create ()) in
        Ipa_par.Pool.filter_map_worker pool
          ~f:(fun ~worker pair -> check ~ctx:wctxs.(worker) pair)
          (pairs ops))
