(** Synthetic workload generation: Zipfian key popularity plus open- and
    closed-loop arrival processes.

    Real key-value workloads are heavily skewed — a few hot keys absorb
    most updates while a long tail is touched rarely — and the store's
    scaling behaviour (digest refresh cost, anti-entropy localization)
    depends on that skew, not on uniform access.  The sampler is the
    standard bounded-Zipf generator (Gray et al.'s algorithm, as used by
    YCSB): after an O(n) precomputation of the harmonic normalizer, each
    draw is O(1), so million-key populations sample as fast as small
    ones.

    Arrival processes produce deterministic, timestamped event streams
    from an {!Rng} seed:

    - {b open loop}: a Poisson process at a fixed offered rate —
      arrivals are independent of completions, the usual model for
      aggregate external demand.
    - {b closed loop}: a fixed population of clients, each issuing its
      next request a think time after the previous one's issue (not its
      completion: the schedule is precomputed, so replaying it does not
      slow the clients down when the system does) — the offered rate is
      about [clients / think].

    Every event carries the issuing client and the sampled key {e rank}
    (0 = most popular); mapping ranks to key names is the caller's
    choice (e.g. a permutation, or [Fmt.str "obj-%d"]). *)

type zipf = {
  z_n : int;  (** population size *)
  z_theta : float;  (** skew; 0 = uniform, 0.99 = YCSB default *)
  z_alpha : float;
  z_zetan : float;
  z_eta : float;
  z_half_pow : float;  (** 1 + 0.5^theta *)
}

(* zeta(n, theta) = Σ_{i=1..n} 1/i^theta *)
let zeta (n : int) (theta : float) : float =
  let acc = ref 0.0 in
  for i = 1 to n do
    acc := !acc +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !acc

let zipf ?(theta = 0.99) (n : int) : zipf =
  if n <= 0 then invalid_arg "Workload.zipf: population must be positive";
  if theta < 0.0 || theta >= 1.0 then
    invalid_arg "Workload.zipf: theta must be in [0, 1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  {
    z_n = n;
    z_theta = theta;
    z_alpha = alpha;
    z_zetan = zetan;
    z_eta = eta;
    z_half_pow = 1.0 +. Float.pow 0.5 theta;
  }

(** One draw: the rank of the sampled key, 0-based (0 = hottest). *)
let draw (rng : Rng.t) (z : zipf) : int =
  let u = Rng.float rng in
  let uz = u *. z.z_zetan in
  if uz < 1.0 then 0
  else if uz < z.z_half_pow then 1
  else
    let r =
      float_of_int z.z_n
      *. Float.pow ((z.z_eta *. u) -. z.z_eta +. 1.0) z.z_alpha
    in
    min (z.z_n - 1) (int_of_float r)

type event = {
  at_ms : float;  (** issue time *)
  client : int;  (** issuing client (0-based) *)
  rank : int;  (** sampled key rank (0 = most popular) *)
}

(** Open-loop stream: Poisson arrivals at [rate_per_s] until
    [horizon_ms], each picking a Zipfian key.  Clients are assigned
    round-robin.  Events are returned in time order. *)
let open_loop ~(rng : Rng.t) ~(rate_per_s : float) ~(horizon_ms : float)
    ?(clients = 1) (z : zipf) : event list =
  if rate_per_s <= 0.0 then
    invalid_arg "Workload.open_loop: rate must be positive";
  let mean_gap_ms = 1000.0 /. rate_per_s in
  let rec go now i acc =
    let now = now +. Rng.exponential rng mean_gap_ms in
    if now >= horizon_ms then List.rev acc
    else
      go now (i + 1)
        ({ at_ms = now; client = i mod clients; rank = draw rng z } :: acc)
  in
  go 0.0 0 []

(** Closed-loop stream: [clients] independent sessions, each issuing its
    next request an exponential think time (mean [think_ms]) after the
    previous one, until [horizon_ms].  Per-client streams draw from
    {!Rng.split} forks, so adding a client never perturbs the others.
    Events are merged in time order. *)
let closed_loop ~(rng : Rng.t) ~(clients : int) ~(think_ms : float)
    ~(horizon_ms : float) (z : zipf) : event list =
  if clients <= 0 then
    invalid_arg "Workload.closed_loop: need at least one client";
  if think_ms <= 0.0 then
    invalid_arg "Workload.closed_loop: think time must be positive";
  let per_client c =
    let crng = Rng.split rng in
    let rec go now acc =
      let now = now +. Rng.exponential crng think_ms in
      if now >= horizon_ms then acc
      else go now ({ at_ms = now; client = c; rank = draw crng z } :: acc)
    in
    go 0.0 []
  in
  let all = List.concat_map per_client (List.init clients (fun c -> c)) in
  List.sort (fun a b -> Float.compare a.at_ms b.at_ms) all
