(* Tests for the experiments layer: the collector registry, heap sizing,
   machine construction, and summary arithmetic. *)

let mib = Util.Units.mib
let kib = Util.Units.kib

let test_registry_complete () =
  let names = List.map (fun e -> e.Experiments.Registry.name) Experiments.Registry.all in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " registered") true
        (List.mem expected names))
    [ "jade"; "g1"; "g1-10ms"; "zgc"; "shenandoah"; "lxr"; "genz"; "genshen" ];
  Alcotest.(check int) "eight collectors" 8 (List.length names);
  Alcotest.check_raises "unknown collector"
    (Invalid_argument "unknown collector: nope") (fun () ->
      ignore (Experiments.Registry.find "nope"))

let test_concurrent_copy_classification () =
  let conc e = e.Experiments.Registry.concurrent_copy in
  Alcotest.(check bool) "jade concurrent" true (conc Experiments.Registry.jade);
  Alcotest.(check bool) "zgc concurrent" true (conc Experiments.Registry.zgc);
  Alcotest.(check bool) "g1 stw" false (conc Experiments.Registry.g1);
  Alcotest.(check bool) "lxr stw" false (conc Experiments.Registry.lxr)

let test_min_heap_anchor () =
  (* Big apps: 1.4x live; small apps: live + fixed floor. *)
  let big = Workload.Apps.specjbb in
  Alcotest.(check int) "1.4x live for large apps"
    (big.Workload.Apps.spec.Workload.Spec.live_bytes * 7 / 5)
    (Experiments.Exp.min_heap big);
  let small = Workload.Apps.find "avrora" in
  Alcotest.(check int) "live + 4MiB floor for small apps"
    (small.Workload.Apps.spec.Workload.Spec.live_bytes + (4 * mib))
    (Experiments.Exp.min_heap small)

let test_machine_region_sizing () =
  (* Production-sized heaps keep 512 KiB regions; tiny heaps shrink the
     region so at least ~48 regions exist. *)
  let m_big = Experiments.Exp.machine_for Workload.Apps.specjbb ~mult:4.0 in
  Alcotest.(check int) "big heap keeps 512KiB regions" (512 * kib)
    m_big.Experiments.Harness.region_bytes;
  let m_small =
    Experiments.Exp.machine_for (Workload.Apps.find "avrora") ~mult:1.5
  in
  Alcotest.(check bool) "small heap shrinks regions" true
    (m_small.Experiments.Harness.region_bytes < 512 * kib);
  Alcotest.(check bool) "at least 48 regions" true
    (m_small.Experiments.Harness.heap_bytes
     / m_small.Experiments.Harness.region_bytes
    >= 48);
  Alcotest.(check int) "heap is a whole number of regions" 0
    (m_small.Experiments.Harness.heap_bytes
    mod m_small.Experiments.Harness.region_bytes)

(* The simulator has no large-object path: an object up to a region is
   allocated in a TLAB and copied like any other.  That matches HotSpot
   only while no workload allocates an object over half of the smallest
   region [Exp.machine_for] picks; a workload that does fails here. *)
let test_largest_object_under_half_a_region () =
  let smallest_region = 64 * kib in
  Alcotest.(check int) "smallest region machine_for picks" smallest_region
    (Experiments.Exp.machine_for (Workload.Apps.find "avrora") ~mult:0.01)
      .Experiments.Harness.region_bytes;
  List.iter
    (fun (app : Workload.Apps.t) ->
      let largest = Workload.Spec.largest_object app.Workload.Apps.spec in
      Alcotest.(check bool)
        (Printf.sprintf "%s: largest object %d B is at most half of %d B"
           app.Workload.Apps.name largest smallest_region)
        true
        (2 * largest <= smallest_region))
    Workload.Apps.all

let test_machine_scales_with_mult () =
  let at mult =
    (Experiments.Exp.machine_for Workload.Apps.specjbb ~mult)
      .Experiments.Harness.heap_bytes
  in
  Alcotest.(check bool) "monotone in mult" true (at 1.5 < at 2.0 && at 2.0 < at 4.0)

(* Small fixed-request app shared by the determinism and pooling
   fences below. *)
let det_app : Workload.Apps.t =
  {
    Workload.Apps.name = "det";
    fixed_requests = 400;
    spec =
      {
        Workload.Spec.name = "det";
        mutators = 2;
        live_bytes = 2 * mib;
        node_data = 96;
        chain_len = 3;
        temp_objs = 20;
        temp_data_min = 32;
        temp_data_max = 128;
        survivors = 2;
        pool_slots = 32;
        store_reads = 4;
        update_pct = 0.3;
        cpu_ns = 20_000;
        weak_pct = 0.;
      };
  }

let run_det ?(pooling = true) () =
  let machine =
    { Experiments.Harness.default_machine with
      Experiments.Harness.heap_bytes = 16 * mib; cores = 2; pooling }
  in
  Experiments.Harness.run ~machine
    ~mode:(Runtime.Driver.Fixed det_app.Workload.Apps.fixed_requests)
    ~install:(fun rt -> ignore (Jade.Collector.install rt))
    ~collector:"jade" det_app

let test_fixed_run_deterministic_summary () =
  let a = run_det () and b = run_det () in
  Alcotest.(check int) "same elapsed" a.Experiments.Harness.elapsed
    b.Experiments.Harness.elapsed;
  Alcotest.(check int) "same pause count" a.Experiments.Harness.pause_count
    b.Experiments.Harness.pause_count;
  Alcotest.(check int) "all requests done" 400 a.Experiments.Harness.completed

(* Everything the summary and metrics sink record: virtual-time totals,
   latency/pause percentiles, the raw pause stream, the counter table.
   Same shape as the zero-perturbation fence in test_obs.ml. *)
let fingerprint (s : Experiments.Harness.summary) =
  let m = s.Experiments.Harness.metrics in
  let pauses =
    Util.Vec.to_array m.Runtime.Metrics.pauses
    |> Array.map (fun (p : Runtime.Metrics.pause) ->
           ( p.Runtime.Metrics.at,
             p.Runtime.Metrics.dur,
             Runtime.Metrics.pause_kind_to_string p.Runtime.Metrics.kind ))
    |> Array.to_list
  in
  let counters =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Runtime.Metrics.counters []
    |> List.sort compare
  in
  ( ( s.Experiments.Harness.completed,
      s.Experiments.Harness.elapsed,
      s.Experiments.Harness.throughput,
      s.Experiments.Harness.p50_latency,
      s.Experiments.Harness.p99_latency,
      s.Experiments.Harness.p999_latency,
      s.Experiments.Harness.max_latency ),
    ( s.Experiments.Harness.pause_count,
      s.Experiments.Harness.cumulative_pause,
      s.Experiments.Harness.max_pause,
      s.Experiments.Harness.cumulative_stall,
      s.Experiments.Harness.cpu_mutator,
      s.Experiments.Harness.cpu_gc,
      s.Experiments.Harness.oom ),
    pauses,
    counters )

(* Pooled vs unpooled over all eight collectors: one 4,000-request run
   on 4 cores per cell.  lusearch 2.0x seed 3 once let GenZ resurrect a
   freed object through a dead remset holder; on pmd 2.0x seeds 2 and 3
   LXR's pauses once traced through remembered sets a full GC had left
   stale and reached freed records; pmd and h2 run young and old marks
   side by side, so dead records are harvested mid-mark.  h2
   at 2.0x seed 42 is the benchmark's jade-h2-closed geometry, where
   Jade's back-to-back old cycles recycle most forwarded records after
   their grace periods. *)
let pooling_cells =
  [
    ("lusearch", 2.0, 3);
    ("pmd", 2.0, 2);
    ("pmd", 2.0, 3);
    ("h2", 1.5, 1);
    ("h2", 2.0, 42);
  ]

let run_cell (e : Experiments.Registry.entry) (app, mult, seed) ~pooling =
  let app = Workload.Apps.find app in
  let machine =
    { (Experiments.Exp.machine_for ~cores:4 app ~mult) with
      Experiments.Harness.seed; pooling }
  in
  fingerprint
    (Experiments.Harness.run ~machine ~mode:(Runtime.Driver.Fixed 4_000)
       ~install:e.Experiments.Registry.install
       ~collector:e.Experiments.Registry.name app)

let pooling_visible e cell =
  run_cell e cell ~pooling:true <> run_cell e cell ~pooling:false

let cell_name (e : Experiments.Registry.entry) (app, mult, seed) =
  Printf.sprintf "%s %s %.1fx seed %d" e.Experiments.Registry.name app mult seed

(* Record/array pooling is host allocation behavior only: a pooled
   rerun must fingerprint identically (freelist order is deterministic)
   and pooled vs unpooled must fingerprint identically (recycling never
   leaks into a simulated number). *)
let test_pooling_invisible () =
  let pooled = fingerprint (run_det ~pooling:true ()) in
  let pooled' = fingerprint (run_det ~pooling:true ()) in
  let unpooled = fingerprint (run_det ~pooling:false ()) in
  Alcotest.(check bool) "pooled rerun identical" true (pooled = pooled');
  Alcotest.(check bool) "pooling simulation-invisible" true (pooled = unpooled);
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      List.iter
        (fun cell ->
          Alcotest.(check bool) (cell_name e cell) false (pooling_visible e cell))
        pooling_cells)
    Experiments.Registry.all

(* Jade's old marks overlap most region releases on lusearch at 1.5x,
   so the record pool hits often only if the dead residents a mark keeps
   back are harvested when it ends.  4,000 requests on 4 cores reuse
   90.9% of the records minted (set-up included); with every such
   resident dropped for good the rate is 79.6%. *)
let test_jade_pool_hit_rate () =
  let app = Workload.Apps.find "lusearch" in
  let machine = Experiments.Exp.machine_for ~cores:4 app ~mult:1.5 in
  let rt, request =
    Experiments.Harness.prepare ~machine
      ~install:Experiments.Registry.jade.Experiments.Registry.install app
  in
  ignore
    (Runtime.Driver.run rt
       ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
       ~mode:(Runtime.Driver.Fixed 4_000) ~request ());
  let reused, _, _, _ =
    Heap.Gobj.Pool.stats rt.Runtime.Rt.heap.Heap.Heap_impl.pool
  in
  let minted = Heap.Gobj.uid_watermark () in
  let pct = 100. *. float_of_int reused /. float_of_int minted in
  Alcotest.(check bool)
    (Printf.sprintf "record pool hit rate %.1f%% >= 85%%" pct)
    true (pct >= 85.)

(* [requests] fixed requests of [e] on [app] at [mult] on 8 cores
   (seed 42, [Exp.machine_for]'s regions), pooled and unpooled.  Reuse
   is invisible, so the pooled run must read as the unpooled one; and
   the pooled run mints at most [bound] fresh host records (uids minted
   in the run minus the records the pool reused). *)
let check_fresh_records (e : Experiments.Registry.entry) app ~mult ~requests
    ~bound =
  let app = Workload.Apps.find app in
  let run ~pooling =
    let machine =
      { (Experiments.Exp.machine_for ~cores:8 app ~mult) with
        Experiments.Harness.seed = 42; pooling }
    in
    let rt, request =
      Experiments.Harness.prepare ~machine ~install:e.Experiments.Registry.install
        app
    in
    let reused () =
      let r, _, _, _ = Heap.Gobj.Pool.stats rt.Runtime.Rt.heap.Heap.Heap_impl.pool in
      r
    in
    let minted = Heap.Gobj.uid_watermark () and before = reused () in
    let r =
      Runtime.Driver.run rt
        ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
        ~mode:(Runtime.Driver.Fixed requests) ~request ()
    in
    let fresh = Heap.Gobj.uid_watermark () - minted - (reused () - before) in
    ( fingerprint
        (Experiments.Harness.summarize rt app
           ~collector:e.Experiments.Registry.name r),
      fresh )
  in
  let pooled, fresh = run ~pooling:true in
  let unpooled, _ = run ~pooling:false in
  Alcotest.(check bool) "pooling simulation-invisible" true (pooled = unpooled);
  Alcotest.(check bool)
    (Printf.sprintf "fresh records in the run %d <= %d" fresh bound)
    true (fresh <= bound)

(* G1 on specjbb2015 at the benchmark's g1-specjbb-open geometry (1.75x),
   4,000 requests.  The young collection inside set-up queues about
   185,000 stubs, more than the relocation copies that follow take, so
   allocation must take them once the dead-record freelist runs dry.
   The run mints 833,532 records; 220,487 of them are fresh host
   records, and 371,358 when allocation never takes a stub. *)
let test_g1_specjbb_allocation_takes_stubs () =
  check_fresh_records Experiments.Registry.g1 "specjbb2015" ~mult:1.75
    ~requests:4_000 ~bound:250_000

(* Jade on h2-tpcc at the benchmark's jade-h2-closed geometry (2.0x),
   15,000 requests: four old marks, with 17 young collections inside
   them.  A stub or held record that a young collection releases during
   an old mark leaves limbo at the quiescent point the old controller
   declares when the mark ends, not when its whole cycle does.  The run
   mints 2,186,257 records; 302,418 of them are fresh host records, and
   361,490 when the old controller declares no quiescent point inside
   its cycle. *)
let test_jade_h2_mark_end_reuse () =
  check_fresh_records Experiments.Registry.jade "h2-tpcc" ~mult:2.0
    ~requests:15_000 ~bound:330_000

(* Fixed work ignores the measurement windows: a [Fixed n] run gives
   the same summary with and without [~warmup]/[~duration]. *)
let test_fixed_mode_ignores_windows () =
  let app = Workload.Apps.find "avrora" in
  let run ?warmup ?duration () =
    fingerprint
      (Experiments.Harness.run
         ~machine:(Experiments.Exp.machine_for ~cores:2 app ~mult:3.0)
         ?warmup ?duration ~mode:(Runtime.Driver.Fixed 1_000)
         ~install:Experiments.Registry.g1.Experiments.Registry.install
         ~collector:"g1" app)
  in
  let plain = run () in
  Alcotest.(check bool) "same summary with windows" true
    (plain = run ~warmup:(50 * Util.Units.ms) ~duration:(20 * Util.Units.ms) ());
  Alcotest.(check bool) "same summary with zero windows" true
    (plain = run ~warmup:0 ~duration:0 ())

let test_summary_cpu_split () =
  let app = Workload.Apps.find "avrora" in
  let s =
    Experiments.Exp.run ~cores:2 Experiments.Registry.g1 app ~mult:3.0
      ~mode:(Runtime.Driver.Fixed 2_000)
  in
  Alcotest.(check bool) "mutator cpu positive" true (s.Experiments.Harness.cpu_mutator > 0);
  Alcotest.(check bool) "cpu utilization sane" true
    (s.Experiments.Harness.cpu_utilization > 0.
    && s.Experiments.Harness.cpu_utilization <= 1.01)

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "classification" `Quick
            test_concurrent_copy_classification;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "min heap anchor" `Quick test_min_heap_anchor;
          Alcotest.test_case "region sizing" `Quick test_machine_region_sizing;
          Alcotest.test_case "mult monotone" `Quick test_machine_scales_with_mult;
          Alcotest.test_case "largest object under half a region" `Quick
            test_largest_object_under_half_a_region;
        ] );
      ( "harness",
        [
          Alcotest.test_case "deterministic summary" `Slow
            test_fixed_run_deterministic_summary;
          Alcotest.test_case "cpu split" `Slow test_summary_cpu_split;
          Alcotest.test_case "fixed mode ignores windows" `Slow
            test_fixed_mode_ignores_windows;
          Alcotest.test_case "pooling invisible" `Slow test_pooling_invisible;
          Alcotest.test_case "jade record pool hit rate" `Quick
            test_jade_pool_hit_rate;
          Alcotest.test_case "g1 specjbb allocation takes stubs" `Quick
            test_g1_specjbb_allocation_takes_stubs;
          Alcotest.test_case "jade h2 reuse at old mark end" `Quick
            test_jade_h2_mark_end_reuse;
        ] );
    ]
