(** Example: how each collector degrades as the heap shrinks (the Table 3
    / Figure 4 phenomenon).

    Sweeps heap sizes from generous to tight on the Specjbb2015 workload
    and prints each collector's peak throughput and stall behaviour: the
    single-generation concurrent collectors fall off a cliff first, G1
    and LXR hold throughput but pause, and Jade holds both.

    Usage: [dune exec examples/heap_pressure.exe [-- <collector> ...]] *)

open Experiments

let () =
  let names =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "jade"; "g1"; "zgc"; "shenandoah"; "genz" ]
    | names -> names
  in
  let app = Workload.Apps.specjbb in
  let mults = [ 4.0; 2.0; 1.5 ] in
  let rows =
    List.map
      (fun name ->
        let e = Registry.find name in
        name
        :: List.map
             (fun mult ->
               Printf.printf "  running %s at %.1fx...\n%!" name mult;
               let s = Exp.run e app ~mult ~mode:Runtime.Driver.Closed in
               match s.Harness.oom with
               | Some _ -> "OOM"
               | None ->
                   (* Stall time is summed across all mutators: normalise
                      to a per-mutator share of the window. *)
                   let mutators =
                     app.Workload.Apps.spec.Workload.Spec.mutators
                   in
                   let stall_share =
                     Util.Units.to_sec s.Harness.cumulative_stall
                     /. (float_of_int mutators
                        *. Util.Units.to_sec (max 1 s.Harness.elapsed))
                   in
                   Printf.sprintf "%.0f (%.0f%% stalled)" s.Harness.throughput
                     (100. *. stall_share))
             mults)
      names
  in
  print_newline ();
  print_string @@ Util.Table.render
    ~title:"Peak throughput (req/s) and stall share as the heap shrinks"
    ~headers:
      ("Collector" :: List.map (fun m -> Printf.sprintf "%.1fx min heap" m) mults)
    rows
