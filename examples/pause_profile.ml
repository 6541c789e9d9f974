(** Example: the pause profile of a collector under load — where its
    stop-the-world time actually goes.

    Runs one collector on SPECjbb2015 at a fixed offered load and prints
    the pause distribution broken down by pause kind (init/final mark,
    young/mixed STW, degenerated, full GC, allocation stalls), plus the
    per-phase GC report.  A compact version of the analysis behind the
    paper's §2.2 tables.  Try the contrast at the same operating point:
    Shenandoah spends seconds in allocation stalls and degenerated
    cycles where Jade's entire pause budget is a few milliseconds of
    sub-100 µs mark pauses:

    {v
    dune exec examples/pause_profile.exe -- shenandoah 2.0 25000
    dune exec examples/pause_profile.exe -- jade 2.0 25000
    v}

    Usage:
    [dune exec examples/pause_profile.exe [-- <collector> <heap-mult> <qps>]] *)

open Experiments
module Metrics = Runtime.Metrics

let () =
  let collector = if Array.length Sys.argv > 1 then Sys.argv.(1) else "shenandoah" in
  let mult = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 2.0 in
  let qps = if Array.length Sys.argv > 3 then float_of_string Sys.argv.(3) else 25_000. in
  let e = Registry.find collector in
  let app = Workload.Apps.specjbb in
  Printf.printf "Running %s on specjbb2015 at %.1fx heap, %.0f qps...\n%!"
    collector mult qps;
  let s = Exp.run e app ~mult ~mode:(Runtime.Driver.Open qps) in
  (match s.Harness.oom with
  | Some why ->
      Printf.printf "OUT OF MEMORY: %s\n" why;
      exit 1
  | None -> ());
  Printf.printf "p99 latency %s; %d pauses, cumulative %s\n\n"
    (Util.Units.pp_time_ns s.Harness.p99_latency)
    s.Harness.pause_count
    (Util.Units.pp_time_ns s.Harness.cumulative_pause);
  (* Group the pause log by kind. *)
  let m = s.Harness.metrics in
  let by_kind = Hashtbl.create 8 in
  Util.Vec.iter
    (fun (p : Metrics.pause) ->
      let total, count, worst =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_kind p.Metrics.kind)
      in
      Hashtbl.replace by_kind p.Metrics.kind
        (total + p.Metrics.dur, count + 1, max worst p.Metrics.dur))
    m.Metrics.pauses;
  let cum = max 1 (Metrics.cumulative_pause m) in
  print_string @@ Util.Table.render ~title:"Pause breakdown by kind"
    ~headers:[ "Kind"; "Count"; "Total"; "Avg"; "Worst"; "Share" ]
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []
    |> List.sort (fun (_, (a, _, _)) (_, (b, _, _)) -> compare b a)
    |> List.map (fun (kind, (total, count, worst)) ->
           [
             Metrics.pause_kind_to_string kind;
             string_of_int count;
             Util.Units.pp_time_ns total;
             Util.Units.pp_time_ns (total / max 1 count);
             Util.Units.pp_time_ns worst;
             Printf.sprintf "%.0f%%"
               (100. *. float_of_int total /. float_of_int cum);
           ]));
  print_string (Harness.gc_report s)
