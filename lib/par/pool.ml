(** Fixed-size domain pool with order-preserving parallel iteration.

    Scheduling: a batch is an array of indexed tasks plus one shared
    {!Atomic} claim counter.  Every participant — the caller and each
    worker domain — repeatedly [fetch_and_add]s the counter and executes
    the item it claimed, so load balances itself at item granularity
    (work-stealing behaviour without per-worker deques: the "stealable"
    unit is the next unclaimed index).  Results land in per-index slots;
    order is restored for free.

    Synchronization: the claim and completion counters are [Atomic]
    (sequentially consistent, so a slot write by a worker happens-before
    the caller's read of the completion count that covers it); the
    mutex/condition pair only parks idle workers between batches and the
    caller while a batch drains.

    Determinism: the pool runs {e which} item {e where} and {e when}
    nondeterministically, but [map_worker]/[filter_map_worker] return
    results in input order, so any caller whose per-item function is a
    pure function of the item (per-worker caches may memoize but must
    not change results) gets output independent of the schedule.  That
    is the contract the parallel analysis and fuzzing layers build
    their bit-identical guarantees on. *)

(* ------------------------------------------------------------------ *)
(* Job-count policy                                                    *)
(* ------------------------------------------------------------------ *)

let cap = 8
let clamp n = max 1 (min cap n)
let recommended () = clamp (Domain.recommended_domain_count ())

let env_override () =
  match Sys.getenv_opt "IPA_JOBS" with
  | Some s -> Option.map clamp (int_of_string_opt (String.trim s))
  | None -> None

let env_jobs () = Option.value ~default:1 (env_override ())

let default_jobs () =
  match env_override () with Some n -> n | None -> recommended ()

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type job = {
  total : int;
  next : int Atomic.t;  (** next unclaimed index *)
  completed : int Atomic.t;
  run1 : worker:int -> int -> unit;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (** first exception of the batch; losers of the race are dropped *)
}

type t = {
  n_jobs : int;
  m : Mutex.t;
  work : Condition.t;  (** a batch was published (or the pool is closing) *)
  done_ : Condition.t;  (** the last item of a batch completed *)
  mutable job : job option;
  mutable epoch : int;  (** bumped per published batch *)
  mutable closing : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_jobs

(* execute items of [j] until the claim counter runs off the end.  An
   item's exception is recorded (first wins) rather than raised: the
   batch must drain normally or the caller would deadlock waiting for
   completions. *)
let drain t (j : job) ~(worker : int) : unit =
  let rec claim () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then begin
      (try j.run1 ~worker i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set j.failed None (Some (e, bt))));
      if Atomic.fetch_and_add j.completed 1 + 1 = j.total then begin
        Mutex.lock t.m;
        Condition.broadcast t.done_;
        Mutex.unlock t.m
      end;
      claim ()
    end
  in
  claim ()

let worker_loop (t : t) ~(worker : int) : unit =
  let rec loop last_epoch =
    Mutex.lock t.m;
    while (not t.closing) && t.epoch = last_epoch do
      Condition.wait t.work t.m
    done;
    let j = t.job and epoch = t.epoch and closing = t.closing in
    Mutex.unlock t.m;
    if not closing then begin
      (* [j] may already be fully claimed (or cleared: [None]) by the
         time we wake — [drain] then finds nothing and we re-park *)
      (match j with Some job -> drain t job ~worker | None -> ());
      loop epoch
    end
  in
  loop 0

let create ?jobs () : t =
  let n_jobs = match jobs with Some j -> clamp j | None -> env_jobs () in
  let t =
    {
      n_jobs;
      m = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      job = None;
      epoch = 0;
      closing = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (n_jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~worker:(i + 1)));
  t

let shutdown (t : t) : unit =
  Mutex.lock t.m;
  t.closing <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs (f : t -> 'a) : 'a =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(** Run [total] indexed tasks to completion across the pool, caller
    participating as worker 0; re-raises the batch's first exception. *)
let run_batch (t : t) ~(total : int) ~(run1 : worker:int -> int -> unit) :
    unit =
  if total > 0 then
    if t.n_jobs = 1 || total = 1 then
      (* sequential fallback: no publication, no atomics, exceptions
         propagate from the failing item directly *)
      for i = 0 to total - 1 do
        run1 ~worker:0 i
      done
    else begin
      let j =
        {
          total;
          next = Atomic.make 0;
          completed = Atomic.make 0;
          run1;
          failed = Atomic.make None;
        }
      in
      Mutex.lock t.m;
      t.job <- Some j;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      drain t j ~worker:0;
      Mutex.lock t.m;
      while Atomic.get j.completed < total do
        Condition.wait t.done_ t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      match Atomic.get j.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

(* ------------------------------------------------------------------ *)
(* Order-preserving iteration                                          *)
(* ------------------------------------------------------------------ *)

let map_worker (t : t) ~(f : worker:int -> 'a -> 'b) (xs : 'a list) : 'b list
    =
  match xs with
  | [] -> []
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let res : 'b option array = Array.make n None in
      run_batch t ~total:n ~run1:(fun ~worker i ->
          res.(i) <- Some (f ~worker arr.(i)));
      List.init n (fun i ->
          match res.(i) with Some v -> v | None -> assert false)

let filter_map_worker (t : t) ~(f : worker:int -> 'a -> 'b option)
    (xs : 'a list) : 'b list =
  List.filter_map Fun.id (map_worker t ~f xs)
