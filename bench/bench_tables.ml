(* Reproduction of the paper's Tables 1-7 (§2 and §5).

   Absolute magnitudes are simulator units (DESIGN.md §5 explains the
   scaling); the shapes — who wins, by what factor, where the crossovers
   fall — are the reproduction target, recorded against the paper in
   EXPERIMENTS.md. *)

open Experiments
module Metrics = Runtime.Metrics

let ms = Util.Units.ms
let pt = Util.Units.pp_time_ns
let f0 x = Printf.sprintf "%.0f" x

let quick = Bench_options.quick
let jobs = Bench_options.jobs

(* Run lengths scale down in --quick mode. *)
let duration () = if !quick then 400 * ms else 800 * ms
let warmup () = if !quick then 150 * ms else 250 * ms

let run e app ~mult ~mode =
  Exp.run ~warmup:(warmup ()) ~duration:(duration ()) e app ~mult ~mode

let run_max e app ~mult = run e app ~mult ~mode:Runtime.Driver.Closed

(* Tables 1/2 use the paper's H2 setup: an 8 GB heap against ~2 GB of
   live data = 4x the live set, i.e. 4/1.4 of our min-heap anchor. *)
let h2_mult = 4.0 /. 1.4

(* ------------------------------------------------------------------ *)

(** Table 1: application and pause statistics for mainstream collectors
    on H2/TPC-C at the paper's generous 4x heap. *)
let table1 () =
  let app = Workload.Apps.h2_tpcc in
  let mult = h2_mult in
  let entries = [ Registry.g1; Registry.zgc; Registry.shenandoah; Registry.jade ] in
  let summaries =
    Util.Dpool.map_list ~jobs:!jobs (fun e -> run_max e app ~mult) entries
  in
  print_string @@ Util.Table.render
    ~title:"Table 1: H2 max throughput and pauses (4x heap)"
    ~headers:
      [ "Collector"; "Max Thru (req/s)"; "p99 latency"; "Cum. pause";
        "p99 pause" ]
    (List.map2
       (fun e s ->
         [
           e.Registry.name;
           f0 s.Harness.throughput;
           pt s.Harness.p99_latency;
           pt s.Harness.cumulative_pause;
           pt s.Harness.p99_pause;
         ])
       entries summaries)

(** Table 2: phase breakdown for ZGC and Shenandoah on H2 near their own
    maximum throughput. *)
let table2 () =
  let app = Workload.Apps.h2_tpcc in
  let row e ~mark_phases ~other_phases =
    let peak = (run_max e app ~mult:h2_mult).Harness.throughput in
    let s = run e app ~mult:h2_mult ~mode:(Runtime.Driver.Open (0.9 *. peak)) in
    let m = s.Harness.metrics in
    let total names = List.fold_left (fun a n -> a + Metrics.phase_total m n) 0 names in
    let counts names =
      List.fold_left (fun a n -> max a (Metrics.phase_count m n)) 0 names
    in
    let mark = total mark_phases and other = total other_phases in
    let mark_n = counts mark_phases and other_n = counts other_phases in
    [
      e.Registry.name;
      pt s.Harness.elapsed;
      pt mark;
      (if other = 0 then "-" else pt other);
      pt (if mark_n = 0 then 0 else mark / mark_n);
      (if other_n = 0 then "-" else pt (other / other_n));
      pt s.Harness.cumulative_pause;
    ]
  in
  print_string @@ Util.Table.render
    ~title:"Table 2: concurrent-phase breakdown on H2 (near own max throughput)"
    ~headers:
      [ "Collector"; "Window"; "Marking"; "Other"; "Avg Mark"; "Avg Other";
        "Cum. pause" ]
    (List.map
       (fun (e, mark_phases, other_phases) -> row e ~mark_phases ~other_phases)
       [
         (Registry.zgc, [ "zgc.mark" ], []);
         ( Registry.shenandoah,
           [ "shen.mark" ],
           [ "shen.evac"; "shen.update_refs" ] );
       ])

(** Table 3: maximum (and for Specjbb critical) throughput across heap
    sizes for every collector. *)
let table3 () =
  let heaps = [ 1.5; 2.0; 4.0 ] in
  let collectors = Registry.all in
  let apps =
    [
      (Workload.Apps.specjbb, true);
      (Workload.Apps.hbase_insert, false);
      (Workload.Apps.hbase_mixed, false);
    ]
  in
  List.iter
    (fun ((app : Workload.Apps.t), with_critical) ->
      (* One (collector x heap) cell per task; the critical-throughput
         sweep stays inside its cell so each task is self-contained. *)
      let cell (e, mult) =
        let s = run_max e app ~mult in
        match s.Harness.oom with
        | Some _ -> "OOM"
        | None ->
            if with_critical then begin
              (* The SPECjbb critical-jops SLO band tops out at
                 100 ms; we use 50 ms against p99. *)
              let slo = 50 * Util.Units.ms in
              let crit =
                Exp.critical_throughput e app ~mult ~slo
                  ~peak:s.Harness.throughput
              in
              Printf.sprintf "%.0f/%.0f" crit s.Harness.throughput
            end
            else f0 s.Harness.throughput
      in
      let grid =
        List.concat_map
          (fun e -> List.map (fun mult -> (e, mult)) heaps)
          collectors
      in
      let rendered =
        Array.of_list (Util.Dpool.map_list ~jobs:!jobs cell grid)
      in
      let hn = List.length heaps in
      print_string @@ Util.Table.render
        ~title:
          (Printf.sprintf "Table 3: %s max%s throughput (req/s)"
             app.Workload.Apps.name
             (if with_critical then " (critical/max)" else ""))
        ~headers:
          ("Collector" :: List.map (fun h -> Printf.sprintf "%.1fx heap" h) heaps)
        (List.mapi
           (fun i (e : Registry.entry) ->
             e.Registry.name :: Array.to_list (Array.sub rendered (i * hn) hn))
           collectors))
    apps;
  (* Shop runs at its fixed production heap (~4x live). *)
  let entries = [ Registry.jade; Registry.g1; Registry.zgc; Registry.shenandoah ] in
  let summaries =
    Util.Dpool.map_list ~jobs:!jobs
      (fun e -> run_max e Workload.Apps.shop ~mult:4.0)
      entries
  in
  print_string @@ Util.Table.render
    ~title:"Table 3 (cont.): shop max throughput, fixed heap"
    ~headers:[ "Collector"; "Max Thru (req/s)"; "p99 latency" ]
    (List.map2
       (fun e s ->
         [
           e.Registry.name;
           (match s.Harness.oom with
           | Some _ -> "OOM"
           | None -> f0 s.Harness.throughput);
           pt s.Harness.p99_latency;
         ])
       entries summaries)

(** Table 4: DaCapo execution time normalized to G1 under tight heaps. *)
let table4 () =
  let heaps = [ 1.5; 2.0 ] in
  let collectors =
    [
      Registry.g1; Registry.g1_10ms; Registry.shenandoah; Registry.zgc;
      Registry.genshen; Registry.genz; Registry.lxr; Registry.jade;
    ]
  in
  let suite =
    if !quick then
      List.filteri (fun i _ -> i mod 4 = 0) Workload.Apps.dacapo
    else Workload.Apps.dacapo
  in
  List.iter
    (fun mult ->
      let row (app : Workload.Apps.t) =
        let requests =
          if !quick then app.Workload.Apps.fixed_requests / 4
          else app.Workload.Apps.fixed_requests
        in
        (* One fixed-work run per collector, fanned out; the G1 run
           doubles as the normalization base. *)
        let runs =
          Util.Dpool.map_list ~jobs:!jobs
            (fun e ->
              Exp.run ~cores:4 e app ~mult
                ~mode:(Runtime.Driver.Fixed requests))
            collectors
        in
        let base_ns =
          match
            List.find_opt
              (fun ((e : Registry.entry), _) -> e.Registry.name = "g1")
              (List.combine collectors runs)
          with
          | Some (_, s) -> s.Harness.elapsed
          | None -> 1
        in
        app.Workload.Apps.name
        :: List.map2
             (fun (e : Registry.entry) (s : Harness.summary) ->
               if e.Registry.name = "g1" then
                 Printf.sprintf "%.0fms" (Util.Units.to_ms base_ns)
               else
                 match s.Harness.oom with
                 | Some _ -> "OOM"
                 | None ->
                     Printf.sprintf "%.3f"
                       (float_of_int s.Harness.elapsed
                       /. float_of_int (max 1 base_ns)))
             collectors runs
      in
      print_string @@ Util.Table.render
        ~title:
          (Printf.sprintf
             "Table 4: DaCapo execution time normalized to G1 (%.1fx min heap)"
             mult)
        ~headers:("App" :: List.map (fun e -> e.Registry.name) collectors)
        (List.map row suite))
    heaps

(** Table 5: young/old GC phase breakdown and GC throughput, Jade vs
    GenZ, under the paper's controlled setup (2 GC threads, chasing off,
    compressed references off for Jade). *)
let table5 () =
  let app = Workload.Apps.specjbb in
  let duration = if !quick then 1_500 * ms else 3_000 * ms in
  let jade_cfg =
    {
      Jade.Jade_config.default with
      Jade.Jade_config.young_workers = 1;
      old_workers = 1;
      chasing_mode = false;
      compressed_oops = false;
    }
  in
  let jade = Registry.jade_with ~name:"jade" jade_cfg in
  let run e =
    Exp.run ~warmup:(warmup ()) ~duration e app ~mult:2.0
      ~mode:(Runtime.Driver.Open 42_000.)
  in
  let sj = run jade and sz = run Registry.genz in
  let mj = sj.Harness.metrics and mz = sz.Harness.metrics in
  (* Average of [phase] and, for a cycle total, GC throughput: the bytes
     [reclaimed] counter over the phase's total time, in MB/s. *)
  let row cycle collector name m phase ?reclaimed () =
    [
      cycle; collector; name; pt (Metrics.phase_avg m phase);
      (match reclaimed with
      | None -> ""
      | Some counter ->
          let ns = Metrics.phase_total m phase in
          f0
            (if ns = 0 then 0.
             else
               float_of_int (Metrics.counter m counter)
               /. 1048576. /. Util.Units.to_sec ns));
    ]
  in
  print_string @@ Util.Table.render
    ~title:"Table 5: GC phase breakdown, Jade vs GenZ (avg ms / MB/s)"
    ~headers:[ "Cycle"; "Collector"; "Phase"; "Avg"; "GC Thru (MB/s)" ]
    [
      row "Young" "jade" "Total (single-phase)" mj "jade.young"
        ~reclaimed:"jade.young_reclaimed_bytes" ();
      row "Young" "genz" "Mark" mz "young.mark" ();
      row "Young" "genz" "Evac" mz "young.evac" ();
      row "Young" "genz" "Total" mz "young.cycle"
        ~reclaimed:"young.reclaimed_bytes" ();
      row "Old" "jade" "Mark" mj "jade.mark" ();
      row "Old" "jade" "Build" mj "jade.build" ();
      row "Old" "jade" "Evac" mj "jade.old_evac" ();
      row "Old" "jade" "Total" mj "jade.old_cycle"
        ~reclaimed:"jade.old_bytes_reclaimed" ();
      row "Old" "genz" "Mark" mz "zgc.mark" ();
      row "Old" "genz" "Evac" mz "zgc.relocate" ();
      row "Old" "genz" "Total" mz "zgc.cycle" ~reclaimed:"zgc.reclaimed_bytes" ();
    ]

(** Table 6: Jade GC statistics on H2 under shrinking heaps. *)
let table6 () =
  let app = Workload.Apps.h2_tpcc in
  let mults = [ 1.0; 1.2; 1.5; 2.0 ] in
  let runs = List.map (fun mult -> run_max Registry.jade app ~mult) mults in
  let phase_t name (s : Harness.summary) =
    pt (Metrics.phase_total s.Harness.metrics name)
  in
  let phase_a name (s : Harness.summary) =
    pt (Metrics.phase_avg s.Harness.metrics name)
  in
  print_string @@ Util.Table.render
    ~title:"Table 6: Jade phase statistics on H2 by heap size"
    ~headers:("Metric" :: List.map (fun m -> Printf.sprintf "%.1fx" m) mults)
    (List.map
       (fun (name, f) -> name :: List.map f runs)
       [
         ("App window", fun s -> pt s.Harness.elapsed);
         ("Mark total", phase_t "jade.mark");
         ("Build total", phase_t "jade.build");
         ("Pause total", fun s -> pt s.Harness.cumulative_pause);
         ("Young GC total", phase_t "jade.young");
         ("Old evac total", phase_t "jade.old_evac");
         ("Avg mark", phase_a "jade.mark");
         ("Avg build", phase_a "jade.build");
         ("Avg pause", fun s -> pt s.Harness.avg_pause);
         ("p99 pause", fun s -> pt s.Harness.p99_pause);
         ("Max thru", fun s -> f0 s.Harness.throughput);
       ])

(** Table 7: remembered-set building, Jade's CRDT vs G1's dirty-card
    scan: concurrent mark + build time and cards scanned. *)
let table7 () =
  let app = Workload.Apps.specjbb in
  let duration = if !quick then 1_500 * ms else 3_000 * ms in
  let run e =
    Exp.run ~warmup:(warmup ()) ~duration e app ~mult:2.0
      ~mode:(Runtime.Driver.Open 30_000.)
  in
  (* Same number of concurrent marking threads as G1 for a fair
     mark-vs-mark comparison (the paper's Table 7 setup). *)
  let jade =
    Registry.jade_with ~name:"jade"
      { Jade.Jade_config.default with Jade.Jade_config.old_workers = 2 }
  in
  let sj = run jade and sg = run Registry.g1 in
  let mj = sj.Harness.metrics and mg = sg.Harness.metrics in
  let jn = max 1 (Metrics.phase_count mj "jade.build") in
  let gn = max 1 (Metrics.phase_count mg "g1.remset_build") in
  let jm = Metrics.phase_avg mj "jade.mark" in
  let jb = Metrics.phase_avg mj "jade.build" in
  let gm = Metrics.phase_avg mg "g1.conc_mark" in
  let gb = Metrics.phase_avg mg "g1.remset_build" in
  print_string @@ Util.Table.render
    ~title:"Table 7: remembered-set building per cycle (CRDT vs dirty-card scan)"
    ~headers:
      [ "Collector"; "Cycles"; "Avg Mark"; "Avg Build"; "Avg Total";
        "Cards scanned/cycle" ]
    [
      [
        "g1";
        string_of_int (Metrics.phase_count mg "g1.remset_build");
        pt gm; pt gb; pt (gm + gb);
        string_of_int (Metrics.counter mg "g1.cards_scanned" / gn);
      ];
      [
        "jade";
        string_of_int (Metrics.phase_count mj "jade.build");
        pt jm; pt jb; pt (jm + jb);
        (let scanned = Metrics.counter mj "jade.build_cards_scanned" / jn in
         let via = Metrics.counter mj "jade.build_cards_via_crdt" / jn in
         Printf.sprintf "%d of %d (%.0f%% skipped via CRDT)" scanned
           (scanned + via)
           (100. *. float_of_int via /. float_of_int (max 1 (scanned + via))));
      ];
    ]

let all () =
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  table6 ();
  table7 ()
