(** The IPA main loop (Algorithm 1): find a conflicting pair, repair it
    (or synthesize compensations, or flag it for coordination), repeat
    until no unhandled conflicts remain. *)

open Ipa_spec

type resolution = {
  r_op1 : string;
  r_op2 : string;
  r_witness : Detect.witness;
  r_outcome : outcome_kind;
}

and outcome_kind =
  | Repaired of Repair.solution
  | Compensated of Compensation.t list
  | Flagged  (** unsolvable: requires coordination (§3, step 3) *)

type report = {
  spec : Types.t;
  final_ops : Detect.aop list;
  final_rules : (string * Types.conv_rule) list;
  resolutions : resolution list;
  iterations : int;
  stats : Anactx.stats;  (** solver/cache statistics of the run *)
}

(** The patched specification: modified operations + final rules. *)
val patched_spec : report -> Types.t

val flagged_pairs : report -> (string * string) list
val compensations : report -> Compensation.t list

(** Run the analysis.  [policy] picks among repair solutions;
    [search_rules] lets repairs propose convergence rules;
    [max_iterations] bounds the loop.  [ctx] supplies the analysis
    caches and instrumentation (a fresh one with caching and pruning
    enabled is created when absent).

    [jobs] (default: the [IPA_JOBS] environment override, else 1)
    spreads each iteration's per-clause proof obligations over a domain
    pool: every worker owns a fresh context for the whole call, the
    verdicts are put into [ctx], the pairs are concluded on [ctx] and
    the first conflict {e in specification pair order} is selected, and
    worker counters are folded into [ctx] when the call ends — so the
    report's resolutions, operations, rules and iteration count are
    bit-identical at every [jobs] level, while wall time scales with
    cores.  A re-run on a warm [ctx] solves nothing at any level. *)
val run :
  ?policy:Repair.policy ->
  ?search_rules:bool ->
  ?max_size:int ->
  ?max_iterations:int ->
  ?ctx:Anactx.t ->
  ?jobs:int ->
  Types.t ->
  report

(** All conflicting pairs of the unmodified specification, each with
    the witness {!run} would report.  The same search as {!run}'s, read
    to the end; [jobs] as in {!run}, and the list is in pair order and
    identical at every level. *)
val diagnose : ?jobs:int -> Types.t -> (string * string * Detect.witness) list
