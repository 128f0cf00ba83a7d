(* Order statistics for benchmark samples.

   Percentiles use the nearest-rank definition: the p-th percentile of
   n sorted samples is the sample at rank ceil(p/100 * n) (1-based), so
   every reported value is one that was actually measured.  A tail
   percentile is only reported when at least [min_beyond] samples lie
   strictly beyond its rank; otherwise it is refused ([None]). *)

let min_beyond = 10

let sorted (xs : float array) : float array =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] among [n] samples *)
let rank ~(n : int) (p : float) : int =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Stats.rank: p outside (0, 100]";
  max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n -. 1e-9))))

(* nearest-rank percentile of already-sorted samples *)
let nearest_rank (s : float array) (p : float) : float =
  s.(rank ~n:(Array.length s) p - 1)

(* Samples lying strictly beyond percentile [p]'s rank. *)
let beyond ~(n : int) (p : float) : int = n - rank ~n p

(* Can [p] be reported from [n] samples?  The median is always
   reportable from one sample; tail percentiles need [min_beyond]
   samples beyond them. *)
let supported ~(n : int) (p : float) : bool =
  n > 0 && (p <= 50.0 || beyond ~n p >= min_beyond)

let percentile (xs : float array) (p : float) : float option =
  let n = Array.length xs in
  if supported ~n p then Some (nearest_rank (sorted xs) p) else None

let median (xs : float array) : float =
  match percentile xs 50.0 with
  | Some m -> m
  | None -> invalid_arg "Stats.median: no samples"

(* (first quartile, median, third quartile), nearest rank *)
let quartiles (xs : float array) : float * float * float =
  if Array.length xs = 0 then invalid_arg "Stats.quartiles: no samples";
  let s = sorted xs in
  (nearest_rank s 25.0, nearest_rank s 50.0, nearest_rank s 75.0)

(* A growable float sample buffer: amortized O(1) push, no boxing. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let push (b : buf) (x : float) : unit =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents (b : buf) : float array = Array.sub b.data 0 b.len
let count (b : buf) : int = b.len
