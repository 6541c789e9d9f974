(* Reproduction of the paper's Figures 4-8 (§5): latency/QPS series
   printed as text tables, one row per offered load. *)

open Experiments
module Metrics = Runtime.Metrics

let ms = Util.Units.ms
let pt = Util.Units.pp_time_ns

let quick = Bench_options.quick
let jobs = Bench_options.jobs

let duration () = if !quick then 400 * ms else 700 * ms
let warmup () = if !quick then 150 * ms else 250 * ms

(* QPS grid: fractions of a reference peak (measured once per config). *)
let fractions () = if !quick then [ 0.4; 0.8 ] else [ 0.2; 0.4; 0.6; 0.8; 0.95 ]

let run e app ~mult ~mode =
  Exp.run ~warmup:(warmup ()) ~duration:(duration ()) e app ~mult ~mode

(* A latency-vs-QPS figure for one workload/heap: rows = offered loads,
   columns = collectors.  [cell ~qps s] formats a run that did not OOM.
   Reference peak: the best of a fast probe across collectors would be
   expensive; G1's closed-loop peak anchors the grid as in §5.5. *)
let qps_figure ~title ~collectors ~app ~mult ~cell =
  let peak =
    (run Registry.g1 app ~mult ~mode:Runtime.Driver.Closed).Harness.throughput
  in
  let loads = List.map (fun f -> peak *. f) (fractions ()) in
  (* One task per collector: a full QPS series against the shared peak.
     Cells only compute; the table renders after the sweep returns. *)
  let columns =
    Util.Dpool.map_list ~jobs:!jobs
      (fun e ->
        List.map
          (fun qps ->
            let s = run e app ~mult ~mode:(Runtime.Driver.Open qps) in
            match s.Harness.oom with Some _ -> "OOM" | None -> cell ~qps s)
          loads)
      collectors
  in
  print_string @@ Util.Table.render ~title
    ~headers:("QPS" :: List.map (fun e -> e.Registry.name) collectors)
    (List.mapi
       (fun i qps ->
         Printf.sprintf "%.0f" qps :: List.map (fun c -> List.nth c i) columns)
       loads)

(* p99 latency, marked saturated when the run completed under 70% of
   the offered requests. *)
let p99_cell ~qps (s : Harness.summary) =
  if
    float_of_int s.Harness.completed
    < 0.7 *. qps *. Util.Units.to_sec (duration ())
  then Printf.sprintf "sat(%s)" (pt s.Harness.p99_latency)
  else pt s.Harness.p99_latency

(** Figure 4: p99 latency under increasing load, Specjbb2015, three heap
    sizes, all collectors. *)
let fig4 () =
  let heaps = if !quick then [ 2.0 ] else [ 1.5; 2.0; 4.0 ] in
  List.iter
    (fun mult ->
      qps_figure
        ~title:
          (Printf.sprintf "Figure 4: Specjbb2015 p99 latency vs QPS (%.1fx heap)"
             mult)
        ~collectors:Registry.all ~app:Workload.Apps.specjbb ~mult
        ~cell:p99_cell)
    heaps

(** Figure 5: p99 latency under increasing load, HBase insert and mixed. *)
let fig5 () =
  let heaps = if !quick then [ 2.0 ] else [ 1.5; 4.0 ] in
  let collectors =
    [
      Registry.jade; Registry.g1; Registry.g1_10ms; Registry.zgc;
      Registry.shenandoah; Registry.genz; Registry.genshen;
    ]
  in
  List.iter
    (fun (app : Workload.Apps.t) ->
      List.iter
        (fun mult ->
          qps_figure
            ~title:
              (Printf.sprintf "Figure 5: %s p99 latency vs QPS (%.1fx heap)"
                 app.Workload.Apps.name mult)
            ~collectors ~app ~mult ~cell:p99_cell)
        heaps)
    [ Workload.Apps.hbase_insert; Workload.Apps.hbase_mixed ]

(** Figure 6: Shop p99 latency and CPU utilization under increasing load. *)
let fig6 () =
  qps_figure
    ~title:"Figure 6: shop p99 latency / CPU utilization vs QPS (fixed heap)"
    ~collectors:[ Registry.jade; Registry.g1; Registry.zgc; Registry.shenandoah ]
    ~app:Workload.Apps.shop ~mult:4.0
    ~cell:(fun ~qps:_ s ->
      Printf.sprintf "%s / %.0f%%" (pt s.Harness.p99_latency)
        (100. *. s.Harness.cpu_utilization))

(** Figure 7: H2-throttle p99 latency under the normal and large H2
    configurations — Jade vs the STW-evacuation collectors, with their
    average pause times. *)
let fig7 () =
  List.iter
    (fun (app : Workload.Apps.t) ->
      qps_figure
        ~title:
          (Printf.sprintf "Figure 7: %s p99 latency (avg pause) vs QPS (2x heap)"
             app.Workload.Apps.name)
        ~collectors:[ Registry.jade; Registry.g1; Registry.lxr ]
        ~app ~mult:2.0
        ~cell:(fun ~qps:_ s ->
          Printf.sprintf "%s (%s)" (pt s.Harness.p99_latency)
            (pt s.Harness.avg_pause)))
    [ Workload.Apps.h2_tpcc; Workload.Apps.h2_large ]

(** Figure 8: Jade's sensitivity to the group cap and the region size
    (the paper finds only the single-group setting hurts). *)
let fig8 () =
  let app = Workload.Apps.specjbb in
  (* The paper's preset mode: a long fixed-rate run under enough pressure
     that old collections recur; a tight heap makes the single-group
     configuration's reclamation lag visible. *)
  let qps = 30_000. in
  let mult = 1.5 in
  let duration = if !quick then 1_500 * ms else 4_000 * ms in
  let group_counts = [ 1; 4; 16; 64 ] in
  let runs =
    Util.Dpool.map_list ~jobs:!jobs
      (fun g ->
        let e =
          Registry.jade_with
            ~name:(Printf.sprintf "jade-g%d" g)
            { Jade.Jade_config.default with Jade.Jade_config.max_groups = g }
        in
        Exp.run ~warmup:(warmup ()) ~duration e app ~mult
          ~mode:(Runtime.Driver.Open qps))
      group_counts
  in
  print_string @@ Util.Table.render
    ~title:"Figure 8a: p99 latency vs max group count (Specjbb, fixed QPS)"
    ~headers:
      ("Metric" :: List.map (fun g -> Printf.sprintf "%d groups" g) group_counts)
    (List.map
       (fun (name, f) -> name :: List.map f runs)
       [
         ("p99 latency", fun s -> pt s.Harness.p99_latency);
         ("cum. pause", fun s -> pt s.Harness.cumulative_pause);
         ( "old rounds",
           fun s ->
             string_of_int (Metrics.counter s.Harness.metrics "jade.rounds") );
       ]);
  let region_sizes = [ 256; 512; 1024 ] in
  let runs =
    Util.Dpool.map_list ~jobs:!jobs
      (fun kib ->
        let machine =
          {
            (Exp.machine_for app ~mult) with
            Harness.region_bytes = kib * Util.Units.kib;
          }
        in
        Harness.run ~machine ~warmup:(warmup ()) ~duration
          ~mode:(Runtime.Driver.Open qps)
          ~install:Registry.jade.Registry.install ~collector:"jade" app)
      region_sizes
  in
  print_string @@ Util.Table.render
    ~title:"Figure 8b: p99 latency vs region size (Specjbb, fixed QPS)"
    ~headers:
      ("Metric" :: List.map (fun k -> Printf.sprintf "%dKiB" k) region_sizes)
    [ "p99 latency" :: List.map (fun s -> pt s.Harness.p99_latency) runs ]

let all () =
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ()
