(** Quickstart: run one workload on one collector and print a summary.

    One call runs a simulation: [Exp.run e app ~mult ~mode] sizes the
    heap at [mult] times the workload's minimum and drives it in a
    {!Runtime.Driver.mode} — [Closed] here (peak throughput); [Open qps]
    offers a fixed load and [Fixed n] times [n] requests.

    Usage: [dune exec examples/quickstart.exe [-- <collector> <workload>]]
    Defaults to Jade on the H2/TPC-C workload of the paper's §2.2.
    Collectors: jade, g1, g1-10ms, zgc, shenandoah, lxr, genz, genshen. *)

open Experiments

let () =
  let collector = if Array.length Sys.argv > 1 then Sys.argv.(1) else "jade" in
  let workload = if Array.length Sys.argv > 2 then Sys.argv.(2) else "h2-tpcc" in
  let e = Registry.find collector in
  let app = Workload.Apps.find workload in
  Printf.printf "Running %s on %s (closed loop, 8 cores, 4x heap)...\n%!"
    workload collector;
  let s = Exp.run e app ~mult:4.0 ~mode:Runtime.Driver.Closed in
  Printf.printf "throughput      : %.0f req/s\n" s.Harness.throughput;
  Printf.printf "p50 / p99 / max : %s / %s / %s\n"
    (Util.Units.pp_time_ns s.Harness.p50_latency)
    (Util.Units.pp_time_ns s.Harness.p99_latency)
    (Util.Units.pp_time_ns s.Harness.max_latency);
  Printf.printf "pauses          : %d (cumulative %s, p99 %s, max %s)\n"
    s.Harness.pause_count
    (Util.Units.pp_time_ns s.Harness.cumulative_pause)
    (Util.Units.pp_time_ns s.Harness.p99_pause)
    (Util.Units.pp_time_ns s.Harness.max_pause);
  Printf.printf "cpu mutator/gc  : %s / %s (utilization %.0f%%)\n"
    (Util.Units.pp_time_ns s.Harness.cpu_mutator)
    (Util.Units.pp_time_ns s.Harness.cpu_gc)
    (100. *. s.Harness.cpu_utilization);
  match s.Harness.oom with
  | Some why -> Printf.printf "OOM: %s\n" why
  | None -> ()
