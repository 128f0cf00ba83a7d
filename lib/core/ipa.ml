(** The IPA main loop (Algorithm 1, function [ipa]).

    Iteratively finds a conflicting pair, searches for repairs, applies
    the resolution chosen by the policy, and continues until no
    unhandled conflicts remain.  Pairs whose conflicts cannot be repaired
    by extra effects are handed to the compensation synthesizer (§3.4);
    if that fails too, the pair is flagged for the programmer to protect
    with coordination (§3, step 3).

    The conflict search is one function, {!verdicts}: {!run} takes its
    first conflict each iteration and {!diagnose} reads it to the end.
    With [jobs > 1] it fans per-clause proof obligations out over a
    domain pool whose workers each own one context for the whole call;
    the pairs are concluded in order on the caller's context, so the
    outcome is identical at every [jobs] level. *)

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
    context per worker, owned by that worker for the whole call (index
    0 is the caller's — the parent context itself). *)
type workers = { pool : Ipa_par.Pool.t; wctxs : Anactx.t array }

(** Run [f] with the domain pool and per-worker contexts ([None] when
    the pool has one worker); fold worker counters into [ctx] once, at
    teardown, also on exceptions. *)
let with_workers ?jobs (ctx : Anactx.t) (f : workers option -> 'a) : 'a =
  Ipa_par.Pool.with_pool ?jobs @@ fun pool ->
  let jobs = Ipa_par.Pool.jobs pool in
  if jobs = 1 then f None
  else
    let wctxs =
      Array.init jobs (fun i -> if i = 0 then ctx else Anactx.fresh ~like:ctx)
    in
    Fun.protect
      ~finally:(fun () ->
        for i = 1 to jobs - 1 do
          Anactx.merge_stats ~into:ctx wctxs.(i)
        done)
      (fun () -> f (Some { pool; wctxs }))

let rec pairs = function
  | [] -> []
  | o :: rest -> List.map (fun o' -> (o, o')) (o :: rest) @ pairs rest

let names ((o1, o2) : Detect.aop * Detect.aop) =
  (o1.Detect.cur.oname, o2.Detect.cur.oname)

(** The conflict search of Algorithm 1 ([isConflicting] over [cands]):
    each pair's verdict, in order, concluded by [Detect.check_pair] on
    [ctx].  The sequence is lazy: a consumer that stops at the first
    [Conflict] ({!run}) checks nothing past it, one that reads to the
    end ({!diagnose}) checks every pair.

    Without workers nothing is prefetched.  With workers, the search
    fans out per-clause proof obligations, not whole pairs (pairs
    differ wildly in unification cases × relevant clauses, so
    pair-granular blocks load-balance poorly).  A leading pair whose
    obligations are all cached on [ctx] is concluded at once; a pair
    with a fresh obligation starts a block, which takes the following
    pairs until it holds ~16·jobs fresh obligations.  The block's fresh
    obligations are discharged concurrently, each worker in its own
    context and one work item per analysis frame (so a frame is built
    once per block, on the worker that takes it), and their verdicts
    put into [ctx]; the block's pairs are
    then concluded in order on [ctx], where every obligation lookup
    hits and only a conflicting case's witness extraction still solves.
    A block too small to keep the pool busy is discharged on [ctx]
    without crossing the barrier.

    An obligation's verdict is a function of its content-addressed key,
    so solving a block's tail past the first conflict changes no
    verdict, only cost, and caching it is sound.  Speculation is bounded
    by one block; a warm re-scan whose pairs are all cached forms no
    block and solves nothing. *)
let verdicts ~(ctx : Anactx.t) (workers : workers option) (spec : Types.t)
    (cands : (Detect.aop * Detect.aop) list) :
    ((Detect.aop * Detect.aop) * Detect.verdict) Seq.t =
  let conclude ((o1, o2) as p) =
    ( p,
      Anactx.time ctx (names p) (fun () -> Detect.check_pair ~ctx spec o1 o2)
    )
  in
  match workers with
  | None -> Seq.map conclude (List.to_seq cands)
  | Some { pool; wctxs } ->
      let jobs = Ipa_par.Pool.jobs pool in
      let fresh (o1, o2) =
        List.filter
          (fun (ob : Detect.oblig) ->
            not (Anactx.oblig_cached ctx ob.Detect.ob_key))
          (Detect.obligations spec o1 o2)
      in
      let solve c (ob : Detect.oblig) =
        Anactx.time c
          (names (ob.Detect.ob_o1, ob.Detect.ob_o2))
          (fun () -> Detect.solve_obligation ~ctx:c spec ob)
      in
      (* the block's obligations grouped by analysis frame, in order of
         first appearance *)
      let by_frame obls =
        let groups = Hashtbl.create 16 in
        List.filter_map
          (fun (ob : Detect.oblig) ->
            let k = Oblig.frame_of ob.Detect.ob_key in
            match Hashtbl.find_opt groups k with
            | Some g ->
                g := ob :: !g;
                None
            | None ->
                let g = ref [ ob ] in
                Hashtbl.add groups k g;
                Some g)
          obls
        |> List.map (fun g -> List.rev !g)
      in
      let solve_block obls =
        if List.length obls < 2 * jobs then
          List.iter (fun ob -> ignore (solve ctx ob)) obls
        else
          Ipa_par.Pool.map_worker pool
            ~f:(fun ~worker group ->
              List.map
                (fun (ob : Detect.oblig) ->
                  (ob.Detect.ob_key, solve wctxs.(worker) ob))
                group)
            (by_frame obls)
          |> List.iter
               (List.iter (fun (key, v) -> Anactx.oblig_put ctx key v))
      in
      (* extend a block (pairs and their fresh obligations, newest
         first) until it holds [16 * jobs] fresh obligations *)
      let rec take n blk obls = function
        | p :: rest when n < 16 * jobs ->
            let f = fresh p in
            take (n + List.length f) (p :: blk) (f :: obls) rest
        | rest -> (List.rev blk, List.concat (List.rev obls), rest)
      in
      let rec scan cands () =
        match cands with
        | [] -> Seq.Nil
        | p :: rest -> (
            match fresh p with
            | [] -> Seq.Cons (conclude p, scan rest)
            | f ->
                let blk, obls, rest =
                  take (List.length f) [ p ] [ f ] rest
                in
                solve_block obls;
                Seq.append
                  (Seq.map conclude (List.to_seq blk))
                  (scan rest) ())
      in
      scan cands

(** Run the IPA analysis.

    [policy] selects among repair solutions (default: fewest extra
    effects).  [search_rules] lets the repair search propose convergence
    rules different from the specification's (the interactive tool mode).
    [max_iterations] bounds the outer loop.  [ctx] carries the
    grounding cache, the obligation table and instrumentation; a fresh
    one (caching and pruning enabled) is created when absent.

    [jobs] spreads each iteration's search over a domain pool
    ({!verdicts}); the first conflicting pair in specification order is
    selected, so the analysis outcome is identical at every [jobs] level
    (the verdict of a pair is a deterministic function of the current
    spec — the caches and pruning are exact — so checking {e more} pairs
    per iteration than the [jobs = 1] early-exit scan, and remembering
    their safe verdicts, can never change which conflict is found
    next). *)
let run ?(policy = Repair.Fewest_effects) ?(search_rules = false)
    ?(max_size = 3) ?(max_iterations = 64) ?ctx ?jobs (spec : Types.t) :
    report =
  let ctx = match ctx with Some c -> c | None -> Anactx.create () in
  with_workers ?jobs ctx @@ fun workers ->
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
    (* the first conflicting pair that is not already handled *)
    let unhandled p =
      (not (Hashtbl.mem ignored (names p)))
      && not (Hashtbl.mem known_safe (names p))
    in
    let conflict =
      verdicts ~ctx workers spec_now (List.filter unhandled (pairs !ops))
      |> Seq.find_map (fun (((o1, o2) as p), v) ->
             match v with
             | Detect.Conflict w -> Some (o1, o2, w)
             | Detect.Safe ->
                 Hashtbl.replace known_safe (names p) ();
                 None)
    in
    match conflict with
    | None -> continue_ := false
    | Some (o1, o2, w) -> (
        let name1 = o1.Detect.cur.oname and name2 = o2.Detect.cur.oname in
        let sols =
          Anactx.time ctx (name1, name2) (fun () ->
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
    diagnosis step, useful on its own: {!verdicts} read to the end, so
    the result list is in pair order at every [jobs] level. *)
let diagnose ?jobs (spec : Types.t) :
    (string * string * Detect.witness) list =
  let ctx = Anactx.create () in
  with_workers ?jobs ctx @@ fun workers ->
  verdicts ~ctx workers spec (pairs (List.map Detect.aop_of spec.operations))
  |> Seq.filter_map (fun (p, v) ->
         match v with
         | Detect.Conflict w ->
             let n1, n2 = names p in
             Some (n1, n2, w)
         | Detect.Safe -> None)
  |> List.of_seq
