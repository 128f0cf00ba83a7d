(** Synthetic workload generation: Zipfian key popularity plus open- and
    closed-loop arrival processes, all deterministic from an {!Rng}
    seed.

    The sampler is the standard bounded-Zipf generator (Gray et al.'s
    algorithm, as used by YCSB): O(n) precomputation of the harmonic
    normalizer, then O(1) per draw — million-key populations sample as
    fast as small ones.  Arrival generators model the two canonical load
    shapes: {e open loop} (Poisson arrivals at a fixed offered rate,
    independent of completions) and {e closed loop} (a fixed client
    population, each issuing its next request a think time after its
    previous issue).  Both are precomputed schedules: neither reacts to
    how long a request takes to complete. *)

(** A prepared Zipfian distribution over ranks [0 .. n-1]
    (0 = most popular). *)
type zipf

(** [zipf ?theta n] prepares a bounded-Zipf sampler over [n] keys.
    [theta] is the skew exponent in [\[0, 1)]: 0 is uniform, 0.99 the
    YCSB default.  O(n) one-time cost. *)
val zipf : ?theta:float -> int -> zipf

(** [draw rng z] samples a key rank in O(1).  Rank 0 is the hottest
    key. *)
val draw : Rng.t -> zipf -> int

type event = {
  at_ms : float;  (** issue time *)
  client : int;  (** issuing client (0-based) *)
  rank : int;  (** sampled key rank (0 = most popular) *)
}

(** Poisson arrivals at [rate_per_s] until [horizon_ms]; clients are
    assigned round-robin across [clients] (default 1).  Time-ordered. *)
val open_loop :
  rng:Rng.t ->
  rate_per_s:float ->
  horizon_ms:float ->
  ?clients:int ->
  zipf ->
  event list

(** [clients] independent sessions, each issuing its next request an
    exponential think time (mean [think_ms]) after the previous one was
    {e issued}, until [horizon_ms].  Arrivals never wait for
    completions: replayed through [Driver.run_stream], the schedule is
    open-loop with a think-time arrival pattern, offering about
    [clients / think_ms] requests per ms whatever the latency.
    Per-client streams are {!Rng.split} forks, so adding a client never
    perturbs the others.  Time-ordered. *)
val closed_loop :
  rng:Rng.t ->
  clients:int ->
  think_ms:float ->
  horizon_ms:float ->
  zipf ->
  event list
