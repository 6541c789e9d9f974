(** Example: the paper's headline experiment in miniature (§2.2, Table 1).

    Runs the H2/TPC-C workload closed loop (each collector's peak
    throughput) on G1, ZGC, Shenandoah and Jade, and prints one
    throughput/latency/pause row per collector — the observation that
    motivates Jade: concurrent copying collectors lose throughput and
    still pause under heavy load, and Jade does not.

    Usage: [dune exec examples/latency_comparison.exe [-- <heap-mult>]]
    where <heap-mult> scales the heap as a multiple of the live set
    (default 4.0, the paper's generous configuration; try 2.0). *)

open Experiments

let () =
  let mult =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) /. 1.4
    else 4.0 /. 1.4
  in
  let app = Workload.Apps.h2_tpcc in
  let collectors =
    [ Registry.g1; Registry.zgc; Registry.shenandoah; Registry.jade ]
  in
  Printf.printf
    "H2/TPC-C at %.1fx the live set, closed loop (max throughput):\n\n%!"
    (mult *. 1.4);
  let rows =
    List.map
      (fun e ->
        Printf.printf "  running %s...\n%!" e.Registry.name;
        let s = Exp.run e app ~mult ~mode:Runtime.Driver.Closed in
        let gc_share =
          float_of_int s.Harness.cpu_gc
          /. float_of_int (max 1 (s.Harness.cpu_gc + s.Harness.cpu_mutator))
        in
        [
          e.Registry.name;
          Printf.sprintf "%.0f" s.Harness.throughput;
          Util.Units.pp_time_ns s.Harness.p99_latency;
          Util.Units.pp_time_ns s.Harness.cumulative_pause;
          Util.Units.pp_time_ns s.Harness.p99_pause;
          Printf.sprintf "%.1f%%" (100. *. gc_share);
        ])
      collectors
  in
  print_newline ();
  print_string @@ Util.Table.render ~title:"Collector comparison"
    ~headers:
      [ "Collector"; "Max thru (req/s)"; "p99 latency"; "Cum. pause";
        "p99 pause"; "GC CPU share" ]
    rows
