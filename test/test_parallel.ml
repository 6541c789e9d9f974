(* Parallel-exploration determinism fences: everything the -j flag
   touches must be byte-identical to the sequential run.  Three fences
   (explorer search, table sweep, explored-sim_ns accumulation) plus a
   domain-safety regression that runs two full harness simulations
   concurrently in raw domains and expects the sequential answers. *)

let mib = Util.Units.mib
let kib = Util.Units.kib

(* ------------------------------------------------------------------ *)
(* Fence 1: gcsim check.  The same search fanned over 4 domains must
   report the same explored/pruned counts, the same end-state digest,
   the same violation, the same minimized schedule, and a
   byte-identical report. *)

let explore ~cfg ~jobs ~plant =
  Analysis.Explore.run
    (Ptest_scenarios.window_scenario ~plant)
    { cfg with Analysis.Explore.jobs }

let check_results_equal name (a : Analysis.Explore.result)
    (b : Analysis.Explore.result) =
  Alcotest.(check int) (name ^ ": explored") a.Analysis.Explore.explored
    b.Analysis.Explore.explored;
  Alcotest.(check int) (name ^ ": shrink runs") a.Analysis.Explore.shrink_runs
    b.Analysis.Explore.shrink_runs;
  Alcotest.(check int) (name ^ ": pruned") a.Analysis.Explore.pruned
    b.Analysis.Explore.pruned;
  Alcotest.(check int)
    (name ^ ": baseline choice points")
    a.Analysis.Explore.baseline_choice_points
    b.Analysis.Explore.baseline_choice_points;
  Alcotest.(check string)
    (name ^ ": end-state digest")
    a.Analysis.Explore.end_digest b.Analysis.Explore.end_digest;
  match (a.Analysis.Explore.violation, b.Analysis.Explore.violation) with
  | None, None -> ()
  | Some va, Some vb ->
      Alcotest.(check (list (pair int int)))
        (name ^ ": minimized schedule")
        va.Analysis.Explore.schedule vb.Analysis.Explore.schedule;
      Alcotest.(check (list (pair int int)))
        (name ^ ": first schedule")
        va.Analysis.Explore.first_schedule vb.Analysis.Explore.first_schedule;
      Alcotest.(check string)
        (name ^ ": byte-identical report")
        (Analysis.Report.to_string va.Analysis.Explore.report)
        (Analysis.Report.to_string vb.Analysis.Explore.report);
      Alcotest.(check string)
        (name ^ ": byte-identical first report")
        (Analysis.Report.to_string va.Analysis.Explore.first_report)
        (Analysis.Report.to_string vb.Analysis.Explore.first_report)
  | Some v, None ->
      Alcotest.failf "%s: -j 1 found %s but -j 4 found nothing" name
        (Analysis.Report.to_string v.Analysis.Explore.report)
  | None, Some v ->
      Alcotest.failf "%s: -j 4 found %s but -j 1 found nothing" name
        (Analysis.Report.to_string v.Analysis.Explore.report)

let test_check_fence_clean () =
  let cfg = Ptest_scenarios.bounded_cfg in
  let a = explore ~cfg ~jobs:1 ~plant:false in
  let b = explore ~cfg ~jobs:4 ~plant:false in
  Alcotest.(check bool) "clean at -j 1" true (a.Analysis.Explore.violation = None);
  check_results_equal "clean bounded" a b

let test_check_fence_planted_bounded () =
  (* The planted window bug must fire at -j 4, shrink to the same
     minimized schedule, and count the same explored schedules: the
     parallel merge discards speculative batch-mates past the first
     violation exactly where the sequential loop stops. *)
  let cfg = Ptest_scenarios.bounded_cfg in
  let a = explore ~cfg ~jobs:1 ~plant:true in
  let b = explore ~cfg ~jobs:4 ~plant:true in
  (match a.Analysis.Explore.violation with
  | None -> Alcotest.fail "planted bug not found at -j 1"
  | Some v ->
      Alcotest.(check bool) "caught by the race detector" true
        (Ptest_scenarios.is_forwarding_race v.Analysis.Explore.report));
  check_results_equal "planted bounded" a b

let test_check_fence_planted_rand () =
  let cfg =
    {
      Analysis.Explore.strategy = Analysis.Explore.Rand;
      schedules = 256;
      depth = 4;
      seed = 3;
      jobs = 1;
    }
  in
  let a = explore ~cfg ~jobs:1 ~plant:true in
  let b = explore ~cfg ~jobs:4 ~plant:true in
  (match a.Analysis.Explore.violation with
  | None -> Alcotest.fail "planted bug not found at -j 1"
  | Some _ -> ());
  check_results_equal "planted rand" a b

(* ------------------------------------------------------------------ *)
(* Fence 2: a table sweep.  One (collector x heap) cell per task; the
   rendered table must be byte-identical at any -j. *)

let sweep_machine =
  {
    Experiments.Harness.cores = 4;
    heap_bytes = 24 * mib;
    region_bytes = 256 * kib;
    seed = 11;
    pooling = true;
  }

let render_sweep ~jobs =
  let app = Workload.Apps.find "avrora" in
  let entries = [ Experiments.Registry.jade; Experiments.Registry.g1 ] in
  let heaps = [ 16 * mib; 24 * mib ] in
  let cells =
    List.concat_map
      (fun e -> List.map (fun h -> (e, h)) heaps)
      entries
  in
  let summaries =
    Util.Dpool.map_list ~jobs
      (fun ((e : Experiments.Registry.entry), heap_bytes) ->
        Experiments.Harness.run
          ~machine:{ sweep_machine with Experiments.Harness.heap_bytes }
          ~mode:(Runtime.Driver.Fixed 1_000)
          ~install:e.Experiments.Registry.install
          ~collector:e.Experiments.Registry.name app)
      cells
  in
  Util.Table.render ~title:"parallel sweep fence"
    ~headers:[ "Collector"; "Heap"; "Completed"; "Elapsed"; "p99" ]
    (List.map2
       (fun ((e : Experiments.Registry.entry), h)
            (s : Experiments.Harness.summary) ->
         [
           e.Experiments.Registry.name;
           string_of_int (h / mib);
           string_of_int s.Experiments.Harness.completed;
           string_of_int s.Experiments.Harness.elapsed;
           string_of_int s.Experiments.Harness.p99_latency;
         ])
       cells summaries)

let test_table_sweep_fence () =
  Alcotest.(check string) "rendered table identical at -j 1 / -j 3"
    (render_sweep ~jobs:1) (render_sweep ~jobs:3)

(* ------------------------------------------------------------------ *)
(* Fence 3: explored-time accumulation.  The virtual ns explored by a
   check run, summed across schedules through the on_run hook, is
   -j-independent (same run multiset, integer addition commutes). *)

let check_sim_ns ~jobs =
  let entry = Experiments.Registry.jade in
  let app = Workload.Apps.find "avrora" in
  let sim_ns = Atomic.make 0 in
  let scenario =
    Experiments.Harness.check_scenario ~machine:sweep_machine ~requests:300
      ~on_run:(fun r ->
        ignore (Atomic.fetch_and_add sim_ns r.Runtime.Driver.elapsed_ns))
      ~install:entry.Experiments.Registry.install app
  in
  let r =
    Analysis.Explore.run scenario
      {
        Analysis.Explore.strategy = Analysis.Explore.Rand;
        schedules = 12;
        depth = 6;
        seed = 1;
        jobs;
      }
  in
  (match r.Analysis.Explore.violation with
  | Some v ->
      Alcotest.failf "unexpected violation in explored scenario: %s"
        (Analysis.Report.to_string v.Analysis.Explore.report)
  | None -> ());
  Atomic.get sim_ns

let test_explore_sim_ns_fence () =
  let a = check_sim_ns ~jobs:1 in
  let b = check_sim_ns ~jobs:4 in
  Alcotest.(check bool) "explored some virtual time" true (a > 0);
  Alcotest.(check int) "sim_ns identical at -j 1 / -j 4" a b

(* ------------------------------------------------------------------ *)
(* Domain-safety regression: two complete harness runs in two raw
   domains — different collectors, same process — must produce exactly
   the summaries the same runs produce back to back.  This is the test
   that catches a cross-run global (uid counters, engine registries,
   access hooks) leaking between domains. *)

let fixed_run which =
  let app = Workload.Apps.find "avrora" in
  let e =
    if which = 0 then Experiments.Registry.jade else Experiments.Registry.g1
  in
  Experiments.Harness.run ~machine:sweep_machine
    ~mode:(Runtime.Driver.Fixed 1_500) ~install:e.Experiments.Registry.install
    ~collector:e.Experiments.Registry.name app

let check_summaries_equal name (a : Experiments.Harness.summary)
    (b : Experiments.Harness.summary) =
  let open Experiments.Harness in
  Alcotest.(check int) (name ^ ": completed") a.completed b.completed;
  Alcotest.(check int) (name ^ ": elapsed") a.elapsed b.elapsed;
  Alcotest.(check int) (name ^ ": p99 latency") a.p99_latency b.p99_latency;
  Alcotest.(check int) (name ^ ": max latency") a.max_latency b.max_latency;
  Alcotest.(check int) (name ^ ": pause count") a.pause_count b.pause_count;
  Alcotest.(check int)
    (name ^ ": cumulative pause")
    a.cumulative_pause b.cumulative_pause;
  Alcotest.(check int) (name ^ ": gc cpu") a.cpu_gc b.cpu_gc;
  Alcotest.(check (option string)) (name ^ ": oom") a.oom b.oom

let test_concurrent_harness_runs () =
  let seq0 = fixed_run 0 in
  let seq1 = fixed_run 1 in
  let d0 = Domain.spawn (fun () -> fixed_run 0) in
  let d1 = Domain.spawn (fun () -> fixed_run 1) in
  let par0 = Domain.join d0 in
  let par1 = Domain.join d1 in
  check_summaries_equal "jade concurrent == sequential" seq0 par0;
  check_summaries_equal "g1 concurrent == sequential" seq1 par1

let () =
  Alcotest.run "parallel"
    [
      ( "check-fence",
        [
          Alcotest.test_case "clean scenario, -j 4 == -j 1" `Quick
            test_check_fence_clean;
          Alcotest.test_case "planted bug, bounded, -j 4 == -j 1" `Quick
            test_check_fence_planted_bounded;
          Alcotest.test_case "planted bug, rand, -j 4 == -j 1" `Quick
            test_check_fence_planted_rand;
        ] );
      ( "sweep-fence",
        [
          Alcotest.test_case "table sweep byte-identical" `Quick
            test_table_sweep_fence;
        ] );
      ( "explore-fence",
        [
          Alcotest.test_case "explored sim_ns sum -j independent" `Quick
            test_explore_sim_ns_fence;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "two concurrent harness runs == sequential"
            `Quick test_concurrent_harness_runs;
        ] );
    ]
