(* End-to-end integration tests across the whole stack: harness +
   workloads + collectors, exercising the scenarios the benchmarks rely
   on (fixed-work runs, open-loop latency, OOM reporting, weak-reference
   callbacks, phase accounting). *)

let ms = Util.Units.ms
let mib = Util.Units.mib

let machine ?(cores = 4) heap_mib =
  {
    Experiments.Harness.default_machine with
    Experiments.Harness.heap_bytes = heap_mib * mib;
    cores;
  }

let small_app live_mib : Workload.Apps.t =
  {
    Workload.Apps.name = "itest";
    fixed_requests = 1_500;
    spec =
      {
        Workload.Spec.name = "itest";
        mutators = 4;
        live_bytes = live_mib * mib;
        node_data = 128;
        chain_len = 4;
        temp_objs = 30;
        temp_data_min = 32;
        temp_data_max = 192;
        survivors = 3;
        pool_slots = 64;
        store_reads = 6;
        update_pct = 0.4;
        cpu_ns = 30_000;
        weak_pct = 0.1;
      };
  }

let install_jade rt = ignore (Jade.Collector.install rt)
let install_g1 rt = ignore (Collectors.G1.install rt)

let test_fixed_work_all_collectors () =
  (* Every collector finishes the same fixed workload; execution times
     are positive and within a sane band of each other. *)
  let app = small_app 6 in
  let times =
    List.map
      (fun (name, install) ->
        let s =
          Experiments.Harness.run ~machine:(machine 24)
            ~mode:(Runtime.Driver.Fixed app.Workload.Apps.fixed_requests)
            ~install ~collector:name app
        in
        Alcotest.(check bool) (name ^ " completed fixed work") true
          (s.Experiments.Harness.completed = app.Workload.Apps.fixed_requests);
        Alcotest.(check bool) (name ^ " no oom") true
          (s.Experiments.Harness.oom = None);
        (name, s.Experiments.Harness.elapsed))
      [
        ("g1", install_g1);
        ("shenandoah", fun rt -> ignore (Collectors.Shenandoah.install rt));
        ("zgc", fun rt -> ignore (Collectors.Zgc.install rt));
        ("genshen", fun rt -> ignore Collectors.Generational.(install genshen rt));
        ("genz", fun rt -> ignore Collectors.Generational.(install genz rt));
        ("lxr", fun rt -> ignore (Collectors.Lxr.install rt));
        ("jade", install_jade);
      ]
  in
  let durations = List.map snd times in
  let mn = List.fold_left min max_int durations in
  let mx = List.fold_left max 0 durations in
  Alcotest.(check bool)
    (Printf.sprintf "spread sane (%s .. %s)" (Util.Units.pp_time_ns mn)
       (Util.Units.pp_time_ns mx))
    true
    (mn > 0 && mx < 8 * mn)

let test_undersized_heap_reports_oom () =
  (* A heap smaller than the live set must end in a clean OOM report,
     not a hang or a crash. *)
  let app = small_app 12 in
  let s =
    Experiments.Harness.run ~machine:(machine 8)
      ~mode:(Runtime.Driver.Fixed app.Workload.Apps.fixed_requests)
      ~install:install_g1 ~collector:"g1" app
  in
  Alcotest.(check bool) "OOM reported" true (s.Experiments.Harness.oom <> None)

let test_open_loop_latency_includes_pauses () =
  (* Under an open-loop load, GC pauses must surface in the measured tail
     latency: p99 >= p50. *)
  let app = small_app 6 in
  let s =
    Experiments.Harness.run ~machine:(machine 24) ~install:install_g1
      ~collector:"g1" ~mode:(Runtime.Driver.Open 5000.) ~warmup:(100 * ms)
      ~duration:(500 * ms) app
  in
  Alcotest.(check bool) "p99 >= p50" true
    (s.Experiments.Harness.p99_latency >= s.Experiments.Harness.p50_latency);
  Alcotest.(check bool) "completed requests" true (s.Experiments.Harness.completed > 500)

let test_weak_refs_cleared_end_to_end () =
  let app = small_app 6 in
  let machine = machine 24 in
  let planted = ref None in
  let install rt =
    ignore (Jade.Collector.install rt);
    (* Plant a weak reference to a short-lived object allocated by a
       setup fiber. *)
    ignore
      (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"planter"
         ~kind:Sim.Engine.Mutator (fun () ->
           let m = Runtime.Mutator.create rt in
           let doomed = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:0 in
           let heap = rt.Runtime.Rt.heap in
           Heap.Heap_impl.register_weak heap doomed;
           planted := Some (heap, Heap.Gobj.id doomed);
           Runtime.Mutator.finish m))
  in
  ignore
    (Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine ~install ~collector:"jade"
       ~warmup:(100 * ms) ~duration:(400 * ms) app);
  match !planted with
  | None -> Alcotest.fail "the planter never ran"
  | Some (heap, id) ->
      Alcotest.(check bool) "the doomed referent left the weak refs" false
        (Util.Vec.exists
           (fun o -> Heap.Gobj.id o = id)
           heap.Heap.Heap_impl.weak_refs)

let test_phase_accounting_consistent () =
  let app = small_app 6 in
  let s =
    Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine:(machine 20) ~install:install_jade
      ~collector:"jade" ~warmup:(100 * ms) ~duration:(400 * ms) app
  in
  let m = s.Experiments.Harness.metrics in
  let mark = Runtime.Metrics.phase_total m "jade.mark" in
  let cycle = Runtime.Metrics.phase_total m "jade.old_cycle" in
  Alcotest.(check bool) "mark time within cycle time" true (mark <= cycle);
  Alcotest.(check bool) "gc cpu accounted" true (s.Experiments.Harness.cpu_gc > 0);
  Alcotest.(check bool) "mutator cpu dominates" true
    (s.Experiments.Harness.cpu_mutator > s.Experiments.Harness.cpu_gc)

let test_throughput_scales_with_cores () =
  let app = small_app 4 in
  let run cores =
    (Experiments.Harness.run ~mode:Runtime.Driver.Closed
       ~machine:(machine ~cores 24)
       ~install:install_g1 ~collector:"g1" ~warmup:(100 * ms)
       ~duration:(300 * ms) app)
      .Experiments.Harness.throughput
  in
  let t2 = run 2 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 cores (%.0f) > 1.5x 2 cores (%.0f)" t4 t2)
    true
    (t4 > 1.5 *. t2)

let test_heap_size_sensitivity () =
  (* A tighter heap means more collections: pause time per completed
     request must not shrink when the heap halves. *)
  let app = small_app 6 in
  let run heap_mib =
    let s =
      Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine:(machine heap_mib)
        ~install:install_jade ~collector:"jade" ~warmup:(100 * ms)
        ~duration:(400 * ms) app
    in
    float_of_int s.Experiments.Harness.cumulative_pause
    /. float_of_int (max 1 s.Experiments.Harness.completed)
  in
  let tight = run 14 and ample = run 40 in
  Alcotest.(check bool)
    (Printf.sprintf "pause/request: tight %.0fns >= ample %.0fns" tight ample)
    true
    (tight >= ample *. 0.8)

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "fixed work across collectors" `Slow
            test_fixed_work_all_collectors;
          Alcotest.test_case "undersized heap OOMs cleanly" `Slow
            test_undersized_heap_reports_oom;
          Alcotest.test_case "open-loop latency" `Slow
            test_open_loop_latency_includes_pauses;
          Alcotest.test_case "weak refs cleared" `Slow
            test_weak_refs_cleared_end_to_end;
          Alcotest.test_case "phase accounting" `Slow test_phase_accounting_consistent;
          Alcotest.test_case "core scaling" `Slow test_throughput_scales_with_cores;
          Alcotest.test_case "heap-size sensitivity" `Slow test_heap_size_sensitivity;
        ] );
    ]
