(** Wide-area network model: the paper's three-region EC2 deployment,
    plus seeded fault injection.

    Mean round-trip latencies (§5.2.1): 80 ms between us-east ↔ us-west
    and us-east ↔ eu-west, 160 ms between eu-west ↔ us-west.  Within a
    region (client ↔ co-located server) we model a sub-millisecond LAN.
    Sampled latencies get ±[jitter] relative uniform noise.

    The fault model stresses the weak-consistency story: every message
    can independently be dropped, duplicated, or hit a heavy-tail delay
    (reordering), and scheduled partition windows cut all links between
    two region groups until they heal.  All decisions are drawn from the
    network's seeded RNG, so a faulty run is exactly reproducible. *)

(** Per-link fault probabilities, applied to every message copy. *)
type faults = {
  loss : float;  (** probability a transmission is dropped *)
  duplication : float;  (** probability a message is sent twice *)
  tail : float;  (** probability of a heavy-tail (reordering) delay *)
  tail_factor : float;  (** delay multiplier on a tail event *)
}

(** A scheduled partition: all links between a region of [parts]'s first
    group and one of its second group are cut during
    [[from_ms, until_ms)]; the partition heals at [until_ms]. *)
type partition = {
  parts : string list * string list;
  from_ms : float;
  until_ms : float;
}

type plan = { faults : faults; partitions : partition list }

(** A scripted fault phase: during [[p_from, p_until)] the phase's fault
    probabilities replace the plan's baseline (first matching phase
    wins).  Used by the simulation fuzzer to replay time-varying fault
    schedules, e.g. a lossy burst in the middle of a run. *)
type phase = { p_from : float; p_until : float; p_faults : faults }

let no_faults : plan =
  {
    faults = { loss = 0.0; duplication = 0.0; tail = 0.0; tail_factor = 10.0 };
    partitions = [];
  }

(** Delivery counters, for the benchmark's observability report. *)
type stats = {
  mutable sent : int;  (** messages handed to the network *)
  mutable dropped : int;  (** transmissions lost (loss or partition) *)
  mutable duplicated : int;  (** extra copies injected *)
}

type t = {
  jitter : float;  (** relative, e.g. 0.1 = ±10% *)
  rng : Rng.t;
  plan : plan;
  phases : phase list;
  stats : stats;
}

let paper_regions = [ "us-east"; "us-west"; "eu-west" ]

let paper_rtts =
  [
    (("us-east", "us-west"), 80.0);
    (("us-east", "eu-west"), 80.0);
    (("us-west", "eu-west"), 160.0);
  ]

(* client ↔ co-located server round trip (ms) *)
let lan_rtt = 0.5

let create ?(jitter = 0.1) ?(plan = no_faults) ?(phases = [])
    ~(seed : int) () : t =
  {
    jitter;
    rng = Rng.create seed;
    plan;
    phases;
    stats = { sent = 0; dropped = 0; duplicated = 0 };
  }

(** Fault probabilities in force at [now]: the first phase whose window
    contains [now], else the plan's baseline. *)
let faults_at (n : t) ~(now : float) : faults =
  match
    List.find_opt (fun p -> now >= p.p_from && now < p.p_until) n.phases
  with
  | Some p -> p.p_faults
  | None -> n.plan.faults

let stats (n : t) : stats = n.stats

let mean_rtt (_ : t) (a : string) (b : string) : float =
  if a = b then lan_rtt
  else
    match
      (List.assoc_opt (a, b) paper_rtts, List.assoc_opt (b, a) paper_rtts)
    with
    | Some r, _ | _, Some r -> r
    | None, None -> invalid_arg (Fmt.str "Net: no RTT between %s and %s" a b)

let with_jitter (n : t) (v : float) : float =
  v *. Rng.uniform n.rng (1.0 -. n.jitter) (1.0 +. n.jitter)

(** Sampled round-trip time between two regions (ms). *)
let rtt (n : t) (a : string) (b : string) : float =
  with_jitter n (mean_rtt n a b)

(** Sampled one-way delay. *)
let one_way (n : t) (a : string) (b : string) : float =
  with_jitter n (mean_rtt n a b /. 2.0)

(** Is the [a]↔[b] link cut by a partition window at time [now]? *)
let partitioned (n : t) ~(now : float) (a : string) (b : string) : bool =
  a <> b
  && List.exists
       (fun p ->
         now >= p.from_ms && now < p.until_ms
         &&
         let g1, g2 = p.parts in
         (List.mem a g1 && List.mem b g2) || (List.mem a g2 && List.mem b g1))
       n.plan.partitions

(* one transmission attempt: None if lost, Some delay otherwise *)
let transmit (n : t) (fl : faults) (src : string) (dst : string) :
    float option =
  if Rng.flip n.rng fl.loss then begin
    n.stats.dropped <- n.stats.dropped + 1;
    None
  end
  else
    let d = one_way n src dst in
    let d = if Rng.flip n.rng fl.tail then d *. fl.tail_factor else d in
    Some d

(** Send one message from [src] to [dst] at time [now] through the fault
    plan.  Returns the delivery delays of the copies that survive: [[]]
    when the message is lost (or the link is partitioned), one delay in
    the common case, two when duplication struck.  Copies fate
    independently, so a duplicated message can still lose one copy. *)
let deliveries (n : t) ~(now : float) ~(src : string) ~(dst : string) :
    float list =
  n.stats.sent <- n.stats.sent + 1;
  if partitioned n ~now src dst then begin
    n.stats.dropped <- n.stats.dropped + 1;
    []
  end
  else begin
    let fl = faults_at n ~now in
    let copies =
      if Rng.flip n.rng fl.duplication then begin
        n.stats.duplicated <- n.stats.duplicated + 1;
        2
      end
      else 1
    in
    List.filter_map (fun _ -> transmit n fl src dst) (List.init copies Fun.id)
  end
