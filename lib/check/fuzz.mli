(** Fuzzing campaigns (generate → execute → shrink → replay file) and
    replay of saved counterexamples. *)

type counterexample = {
  trace : Trace.t;
  failures : Oracle.failure list;
  outcome : Oracle.outcome;
}

type report = {
  app : string;
  repaired : bool;
  seed : int;
  runs : int;
  failed_runs : int;
  failed_seeds : int list;  (** seeds of the failing runs, in run order *)
  first : counterexample option;
}

(** Run a campaign.  [crashes] (default 0) injects that many tail-window
    crash–recover events per trace, arming the WAL recovery oracle
    ({!Oracle.Recovery_diverged}).  [reads] (default 0) injects that
    many read/escrow events per trace, arming the consistency-read
    oracles ({!Oracle.Interval_escape}, {!Oracle.Stale_read},
    {!Oracle.Strong_read_lag}).  [escrow_skew] (default 0) injects that
    many demand-skewed escrow events per trace (one hot replica,
    decrement-heavy mix, advisory demand publications), arming the
    conservation oracle ({!Oracle.Rights_leak}).  [jobs] (default: the
    [IPA_JOBS] environment override, else 1) is the width of the domain
    pool the runs go through, each worker executing complete runs
    against its own private harness/cluster environment.  Every run is
    a pure function of its seed ([seed + i]), so every [jobs] level
    reports the identical [failed_seeds] set, counterexample and counts
    — including the early stop of [stop_on_failure], which runs chunks
    of [jobs] runs and keeps the prefix up to the earliest failing run
    index. *)
val campaign :
  app:string ->
  repaired:bool ->
  seed:int ->
  runs:int ->
  ?n_ops:int ->
  ?crashes:int ->
  ?reads:int ->
  ?escrow_skew:int ->
  ?stop_on_failure:bool ->
  ?jobs:int ->
  unit ->
  report

type replay_result = {
  r_outcome : Oracle.outcome;
  r_failed : bool;
  r_as_expected : bool;
}

val replay : Trace.t -> replay_result
