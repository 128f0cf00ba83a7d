(** Benchmark entry point: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md §4 for the experiment index).

    {v
    dune exec bench/main.exe            # run everything
    dune exec bench/main.exe -- fig4    # run a single experiment
    dune exec bench/main.exe -- runtime --quick  # its reduced sweep
    dune exec bench/main.exe -- quick   # reduced sweeps (CI-sized)
    v} *)

(** How an experiment runs: at its one size, or at a full or reduced
    ([--quick]) size. *)
type run = Fixed of (unit -> unit) | Sized of (quick:bool -> unit)

(** Every experiment, in the order [all] runs them. *)
let experiments : (string * run) list =
  let sized (f : ?quick:bool -> unit -> unit) =
    Sized (fun ~quick -> f ~quick ())
  in
  [
    ("table1", Fixed Experiments.table1);
    ("fig2", Fixed Experiments.fig2);
    ("fig4", Fixed (fun () -> Experiments.fig4 ()));
    ("fig5", Fixed (fun () -> Experiments.fig5 ()));
    ("fig6", Fixed (fun () -> Experiments.fig6 ()));
    ("fig7", Fixed (fun () -> Experiments.fig7 ()));
    ("fig8", Fixed Experiments.fig8);
    ("fig9", Fixed Experiments.fig9);
    ("micro", Fixed Experiments.micro);
    ("analysis", Fixed Experiments.analysis);
    ("ablations", Fixed Experiments.ablations);
    ("fault", Fixed Experiments.fault);
    ("faultnet", Fixed Experiments.faultnet);
    ("runtime", sized Experiments.runtime);
    ("scale", sized Experiments.scale);
    ("durability", sized Experiments.durability);
    ("fuzz", sized Experiments.fuzz);
    ("parallel", sized Experiments.parallel);
    ("incr", sized Experiments.incr);
    ("consistency", sized Experiments.consistency);
    ("escrow", sized Experiments.escrow);
  ]

let exec ~quick = function Fixed f -> f () | Sized f -> f ~quick

let quick () =
  (* reduced sweeps for fast end-to-end validation *)
  Experiments.table1 ();
  Fmt.pr "@.";
  Experiments.fig4 ~client_counts:[ 2; 8 ] ();
  Fmt.pr "@.";
  Experiments.fig5 ~clients:4 ();
  Fmt.pr "@.";
  Experiments.fig6 ~clients:2 ();
  Fmt.pr "@.";
  Experiments.fig7 ~client_counts:[ 2; 8 ] ();
  Fmt.pr "@.";
  Experiments.fig9 ();
  Fmt.pr "@.";
  Experiments.fuzz ~quick:true ()

let all () =
  List.iteri
    (fun i (_, run) ->
      if i > 0 then Fmt.pr "@.";
      exec ~quick:false run)
    experiments

let commands : (string * run) list =
  experiments @ [ ("quick", Fixed quick); ("all", Fixed all) ]

let usage () =
  Fmt.pr "usage: main.exe [%s]@."
    (String.concat "|"
       (List.map
          (function
            | name, Fixed _ -> name | name, Sized _ -> name ^ " [--quick]")
          commands))

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let quick = Array.length Sys.argv > 2 && Sys.argv.(2) = "--quick" in
  match List.assoc_opt name commands with
  | Some run -> exec ~quick run
  | None -> usage ()
