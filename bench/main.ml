(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (plus a Bechamel micro suite).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table3 fig4  # selected experiments
     dune exec bench/main.exe -- --quick all  # reduced sizes
     dune exec bench/main.exe -- -j 4 table3  # fan cells over 4 domains

   -j N (or --jobs N) fans each experiment's independent cells over N
   domains; -j 0 picks a host-derived default.  Outputs are
   byte-identical at any -j — parallelism only changes wall-clock.

   Output shapes are compared against the paper in EXPERIMENTS.md. *)

let experiments : (string * (unit -> unit)) list =
  [
    ("table1", Bench_tables.table1);
    ("table2", Bench_tables.table2);
    ("table3", Bench_tables.table3);
    ("table4", Bench_tables.table4);
    ("table5", Bench_tables.table5);
    ("table6", Bench_tables.table6);
    ("table7", Bench_tables.table7);
    ("fig4", Bench_figures.fig4);
    ("fig5", Bench_figures.fig5);
    ("fig6", Bench_figures.fig6);
    ("fig7", Bench_figures.fig7);
    ("fig8", Bench_figures.fig8);
    ("ablations", Bench_ablations.all);
    ("micro", Bench_micro.all);
    ("obs", Bench_obs.all);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  (* Extract "-j N" / "--jobs N" and return the remaining args. *)
  let jobs, args =
    let rec go acc = function
      | [] -> (None, List.rev acc)
      | ("-j" | "--jobs") :: v :: rest -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> (Some n, List.rev_append acc rest)
          | _ -> failwith (Printf.sprintf "-j %s: want a non-negative integer" v))
      | ("-j" | "--jobs") :: [] -> failwith "-j needs a value"
      | a :: rest -> go (a :: acc) rest
    in
    go [] args
  in
  Bench_options.quick := quick;
  Option.iter
    (fun n ->
      Bench_options.jobs := if n = 0 then Util.Dpool.default_jobs () else n)
    jobs;
  let selected =
    List.filter (fun a -> a <> "--quick" && a <> "all") args
  in
  let to_run =
    if selected = [] then experiments
    else
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
              failwith
                (Printf.sprintf "unknown experiment %s (have: %s)" name
                   (String.concat ", " (List.map fst experiments))))
        selected
  in
  Printf.printf
    "Jade reproduction benchmarks (%s mode): %d experiment group(s)\n\n%!"
    (if quick then "quick" else "full")
    (List.length to_run);
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      Printf.printf ">>> %s\n%!" name;
      f ();
      Printf.printf "<<< %s done in %.1fs (host)\n\n%!" name
        (Unix.gettimeofday () -. t0))
    to_run
