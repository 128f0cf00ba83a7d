(* Tests of the benchmark's statistics helpers and span tracer. *)

open Perfbench_lib

let feq = Alcotest.float 1e-12
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  let xs = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.check (Alcotest.option feq) "p30" (Some 20.) (Stats.percentile xs 30.);
  Alcotest.check (Alcotest.option feq) "p40" (Some 20.) (Stats.percentile xs 40.);
  Alcotest.check (Alcotest.option feq) "p50" (Some 35.) (Stats.percentile xs 50.);
  Alcotest.check feq "median of one" 7. (Stats.median [| 7. |]);
  Alcotest.check feq "median of two is the lower" 1. (Stats.median [| 2.; 1. |]);
  (* unsorted input, every value reported is a sample *)
  Alcotest.check feq "median unsorted" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |])

let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (ints 8) in
  Alcotest.check feq "q1" 2. q1;
  Alcotest.check feq "q2" 4. q2;
  Alcotest.check feq "q3" 6. q3

let test_refusal () =
  (* p99 needs ten samples beyond its rank: 1000 samples, not 999 *)
  Alcotest.(check bool) "p99 of 999 refused" false (Stats.supported ~n:999 99.);
  Alcotest.(check bool) "p99 of 1000 allowed" true (Stats.supported ~n:1000 99.);
  Alcotest.check (Alcotest.option feq) "p99 of 1000" (Some 990.)
    (Stats.percentile (ints 1000) 99.);
  Alcotest.check (Alcotest.option feq) "p90 of 99 refused" None
    (Stats.percentile (ints 99) 90.);
  Alcotest.check (Alcotest.option feq) "p90 of 100" (Some 90.)
    (Stats.percentile (ints 100) 90.);
  Alcotest.(check int) "beyond" 10 (Stats.beyond ~n:100 90.)

let test_buf () =
  let b = Stats.buf () in
  for i = 1 to 5000 do
    Stats.push b (float_of_int i)
  done;
  Alcotest.(check int) "count" 5000 (Stats.count b);
  Alcotest.check feq "last" 5000. (Stats.contents b).(4999)

let spin () =
  let t = Span.now_ns () in
  while Span.now_ns () - t < 200_000 do
    ()
  done

let test_self_time () =
  Span.enabled := true;
  Span.reset ();
  let outer = Span.id "t.outer" and inner = Span.id "t.inner" in
  Span.with_ outer (fun () ->
      spin ();
      Span.with_ inner spin;
      Span.with_ inner spin);
  Span.enabled := false;
  Alcotest.(check int) "spans" 3 (Span.recorded ());
  Alcotest.(check int) "inner calls" 2 (Span.calls "t.inner");
  let o = Span.agg "t.outer" and i = Span.agg "t.inner" in
  Alcotest.(check int) "self = total - children" o.Span.self_ns
    (o.Span.total_ns - i.Span.total_ns);
  Alcotest.(check bool) "inner nonzero" true (i.Span.total_ns >= 400_000);
  (* disabled: no record *)
  Span.with_ outer spin;
  Alcotest.(check int) "off records nothing" 3 (Span.recorded ())

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail refusal" `Quick test_refusal;
          Alcotest.test_case "sample buffer" `Quick test_buf;
        ] );
      ("span", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]
