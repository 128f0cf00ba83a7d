(* In-memory span tracer for the benchmark's own calls into the library.

   A span is (name, start, end, parent, operation id), timed with the
   monotonic clock in nanoseconds.  Spans nest (the benchmark is single
   threaded), so a span's self time is its duration minus the durations
   of its direct children, which lie inside it and do not overlap.  Self
   and total times are aggregated per name as spans close; the raw spans
   stay in memory until {!write} dumps them.

   When tracing is off, {!with_} is a direct call: no clock read and no
   record. *)

let enabled = ref false
let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

(* growable int column *)
type col = { mutable a : int array }

let col () = { a = Array.make 4096 0 }

let set (c : col) (i : int) (v : int) : unit =
  if i >= Array.length c.a then begin
    let a = Array.make (2 * Array.length c.a) 0 in
    Array.blit c.a 0 a 0 (Array.length c.a);
    c.a <- a
  end;
  c.a.(i) <- v

type agg = { mutable total_ns : int; mutable self_ns : int; mutable calls : int }

let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string list ref = ref [] (* reverse id order *)
let aggs : agg array ref = ref [||]

(* Intern a span name; call once per name, outside hot loops. *)
let id (name : string) : int =
  match Hashtbl.find_opt name_ids name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length name_ids in
      Hashtbl.replace name_ids name i;
      names := name :: !names;
      aggs := Array.append !aggs [| { total_ns = 0; self_ns = 0; calls = 0 } |];
      i

(* the span log *)
let n = ref 0
let l_name = col ()
let l_start = col ()
let l_end = col ()
let l_parent = col ()
let l_op = col ()

(* open spans: log index and child time accumulated so far *)
let stack = col ()
let child = col ()
let depth = ref 0

(* The client operation the next spans belong to (-1: none). *)
let op = ref (-1)

let enter (nid : int) : unit =
  let i = !n in
  incr n;
  set l_name i nid;
  set l_parent i (if !depth = 0 then -1 else stack.a.(!depth - 1));
  set l_op i !op;
  set stack !depth i;
  set child !depth 0;
  incr depth;
  set l_start i (now_ns ())

let leave () : unit =
  let t = now_ns () in
  decr depth;
  let i = stack.a.(!depth) in
  set l_end i t;
  let dur = t - l_start.a.(i) in
  let g = !aggs.(l_name.a.(i)) in
  g.total_ns <- g.total_ns + dur;
  g.self_ns <- g.self_ns + dur - child.a.(!depth);
  g.calls <- g.calls + 1;
  if !depth > 0 then child.a.(!depth - 1) <- child.a.(!depth - 1) + dur

let with_ (nid : int) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    enter nid;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let agg (name : string) : agg = !aggs.(id name)
let self_ms (name : string) : float = float_of_int (agg name).self_ns /. 1e6
let calls (name : string) : int = (agg name).calls
let recorded () : int = !n

(* Forget every span and aggregate (names stay interned). *)
let reset () : unit =
  n := 0;
  depth := 0;
  op := -1;
  Array.iter
    (fun g ->
      g.total_ns <- 0;
      g.self_ns <- 0;
      g.calls <- 0)
    !aggs

(* Dump the span log as TSV: index, name, start, end (ns), parent index,
   operation id. *)
let write (path : string) : unit =
  let name_arr = Array.of_list (List.rev !names) in
  let oc = open_out path in
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\top\n";
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i
      name_arr.(l_name.a.(i))
      l_start.a.(i) l_end.a.(i) l_parent.a.(i) l_op.a.(i)
  done;
  close_out oc
