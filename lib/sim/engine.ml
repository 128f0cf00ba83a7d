(** Discrete-event simulation engine: a time-ordered event queue of
    closures.  Time is in milliseconds. *)

type event = { at : float; seq : int; action : unit -> unit }

(* binary min-heap on (at, seq) *)
type t = {
  mutable heap : event array;
  mutable len : int;
  mutable now : float;
  mutable seq : int;
  mutable executed : int;
}

let create () =
  {
    heap = Array.make 1024 { at = 0.0; seq = 0; action = ignore };
    len = 0;
    now = 0.0;
    seq = 0;
    executed = 0;
  }

(** Current simulation time (ms). *)
let now (e : t) : float = e.now

let before (a : event) (b : event) =
  a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap (e : t) i j =
  let tmp = e.heap.(i) in
  e.heap.(i) <- e.heap.(j);
  e.heap.(j) <- tmp

let rec sift_up (e : t) i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before e.heap.(i) e.heap.(parent) then begin
      swap e i parent;
      sift_up e parent
    end
  end

let rec sift_down (e : t) i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < e.len && before e.heap.(l) e.heap.(!smallest) then smallest := l;
  if r < e.len && before e.heap.(r) e.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap e i !smallest;
    sift_down e !smallest
  end

(** Schedule [action] to run [delay] ms from now (delays clamp to 0). *)
let schedule (e : t) ~(delay : float) (action : unit -> unit) : unit =
  let at = e.now +. max 0.0 delay in
  if e.len = Array.length e.heap then begin
    let bigger = Array.make (2 * e.len) e.heap.(0) in
    Array.blit e.heap 0 bigger 0 e.len;
    e.heap <- bigger
  end;
  e.seq <- e.seq + 1;
  e.heap.(e.len) <- { at; seq = e.seq; action };
  e.len <- e.len + 1;
  sift_up e (e.len - 1)

let pop (e : t) : event option =
  if e.len = 0 then None
  else begin
    let top = e.heap.(0) in
    e.len <- e.len - 1;
    if e.len > 0 then begin
      e.heap.(0) <- e.heap.(e.len);
      sift_down e 0
    end;
    Some top
  end

(** Run events until simulated time [t_end]; events scheduled at or
    before [t_end] execute, later ones stay queued. *)
let run_until (e : t) (t_end : float) : unit =
  let continue_ = ref true in
  while !continue_ do
    match pop e with
    | Some ev when ev.at <= t_end ->
        e.now <- ev.at;
        e.executed <- e.executed + 1;
        ev.action ()
    | Some ev ->
        (* beyond the horizon: put it back (capacity is guaranteed — pop
           just freed a slot) *)
        e.heap.(e.len) <- ev;
        e.len <- e.len + 1;
        sift_up e (e.len - 1);
        e.now <- t_end;
        continue_ := false
    | None ->
        e.now <- t_end;
        continue_ := false
  done

(** Drain the queue completely. *)
let run (e : t) : unit =
  let continue_ = ref true in
  while !continue_ do
    match pop e with
    | Some ev ->
        e.now <- ev.at;
        e.executed <- e.executed + 1;
        ev.action ()
    | None -> continue_ := false
  done

let events_executed (e : t) : int = e.executed
