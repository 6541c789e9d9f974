(* Tests for the runtime layer: metrics, safepoints, mutator fast paths,
   and the request drivers. *)

open Runtime

let us = Util.Units.us
let ms = Util.Units.ms
let mib = Util.Units.mib

let mk_rt ?(cores = 4) ?(heap_bytes = 16 * mib) () =
  let engine = Sim.Engine.create ~cores ~quantum:(10 * us) () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes ~region_bytes:(256 * Util.Units.kib) ())
  in
  Rt.create ~seed:42 ~engine ~heap ()

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_phases () =
  let m = Metrics.create () in
  Metrics.phase_begin m "mark" ~now:100;
  Metrics.phase_end m "mark" ~now:400;
  Metrics.phase_begin m "mark" ~now:1000;
  Metrics.phase_end m "mark" ~now:1100;
  Alcotest.(check int) "total" 400 (Metrics.phase_total m "mark");
  Alcotest.(check int) "count" 2 (Metrics.phase_count m "mark");
  Alcotest.(check int) "avg" 200 (Metrics.phase_avg m "mark")

(* A collector opens and closes its named phases every cycle: on a known
   name, with no tracer, neither allocates.  Misuse still raises. *)
let test_metrics_phases_allocate_nothing () =
  let m = Metrics.create () in
  let name = "young.cycle" in
  let cycles () =
    for i = 1 to 1_000 do
      Metrics.phase_begin m name ~now:(10 * i);
      Metrics.phase_end m name ~now:((10 * i) + 3)
    done
  in
  cycles ();
  let w0 = Gc.minor_words () in
  cycles ();
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. w0);
  Alcotest.(check int) "count" 2_000 (Metrics.phase_count m name);
  Alcotest.(check int) "total" 6_000 (Metrics.phase_total m name);
  Alcotest.(check bool) "end without begin raises" true
    (match Metrics.phase_end m name ~now:0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Metrics.phase_begin m name ~now:0;
  Alcotest.(check bool) "begin at time 0 is open" true
    (match Metrics.phase_begin m name ~now:1 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_metrics_recording_gate () =
  let m = Metrics.create () in
  Metrics.set_recording m ~now:0 false;
  Metrics.record_latency m 100;
  Alcotest.(check int) "gated" 0 (Metrics.requests_completed m);
  Metrics.set_recording m ~now:50 true;
  Metrics.record_latency m 100;
  Metrics.record_pause m ~at:60 ~dur:5 Metrics.Young_stw;
  Metrics.set_recording m ~now:150 false;
  Alcotest.(check int) "counted" 1 (Metrics.requests_completed m);
  Alcotest.(check int) "pause recorded" 5 (Metrics.cumulative_pause m);
  Alcotest.(check int) "window" 100 (Metrics.window_ns m)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.add m "x" 3;
  Metrics.add m "x" 4;
  Alcotest.(check int) "accumulated" 7 (Metrics.counter m "x");
  Alcotest.(check int) "missing is 0" 0 (Metrics.counter m "y")

(* ------------------------------------------------------------------ *)
(* Safepoint *)

let test_stw_waits_for_mutators () =
  let rt = mk_rt () in
  let engine = rt.Rt.engine in
  let in_stw = ref false in
  let violations = ref 0 in
  for i = 1 to 3 do
    ignore
      (Sim.Engine.spawn engine
         ~name:(Printf.sprintf "mut%d" i)
         ~kind:Sim.Engine.Mutator
         (fun () ->
           let m = Mutator.create rt in
           for _ = 1 to 200 do
             Mutator.work m (20 * us);
             if !in_stw then incr violations
           done;
           Mutator.finish m))
  done;
  ignore
    (Sim.Engine.spawn engine ~daemon:true ~name:"gc" ~kind:Sim.Engine.Gc
       (fun () ->
         Sim.Engine.sleep engine ms;
         Safepoint.stw rt.Rt.safepoint Metrics.Full_gc (fun () ->
             in_stw := true;
             Sim.Engine.tick (500 * us);
             in_stw := false)));
  Sim.Engine.run engine;
  Alcotest.(check int) "no mutator ran during STW" 0 !violations;
  Alcotest.(check bool) "pause was recorded" true
    (Metrics.cumulative_pause rt.Rt.metrics >= 500 * us)

let test_stw_with_parked_mutator () =
  let rt = mk_rt () in
  let engine = rt.Rt.engine in
  let c = Sim.Engine.cond "parked" in
  let stw_done = ref false in
  ignore
    (Sim.Engine.spawn engine ~name:"parked-mut" ~kind:Sim.Engine.Mutator
       (fun () ->
         let m = Mutator.create rt in
         (* Parked mutators count as stopped; the STW must proceed. *)
         Safepoint.park rt.Rt.safepoint;
         Sim.Engine.wait c;
         Safepoint.unpark rt.Rt.safepoint;
         Mutator.finish m));
  ignore
    (Sim.Engine.spawn engine ~daemon:true ~name:"gc" ~kind:Sim.Engine.Gc
       (fun () ->
         Sim.Engine.sleep engine (100 * us);
         Safepoint.stw rt.Rt.safepoint Metrics.Full_gc (fun () ->
             stw_done := true);
         Sim.Engine.broadcast engine c));
  Sim.Engine.run engine;
  Alcotest.(check bool) "stw completed despite parked mutator" true !stw_done

let test_stw_serialized () =
  let rt = mk_rt () in
  let engine = rt.Rt.engine in
  let active = ref 0 and max_active = ref 0 in
  for i = 1 to 2 do
    ignore
      (Sim.Engine.spawn engine ~daemon:true
         ~name:(Printf.sprintf "gc%d" i)
         ~kind:Sim.Engine.Gc
         (fun () ->
           Safepoint.stw rt.Rt.safepoint Metrics.Full_gc (fun () ->
               incr active;
               max_active := max !max_active !active;
               Sim.Engine.tick (200 * us);
               decr active)))
  done;
  ignore
    (Sim.Engine.spawn engine ~name:"mut" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Mutator.create rt in
         Mutator.work m ms;
         Mutator.finish m));
  Sim.Engine.run engine;
  Alcotest.(check int) "concurrent STW sections serialized" 1 !max_active

(* ------------------------------------------------------------------ *)
(* Mutator operations *)

let run_in_mutator rt f =
  let result = ref None in
  ignore
    (Sim.Engine.spawn rt.Rt.engine ~name:"m" ~kind:Sim.Engine.Mutator
       (fun () ->
         let m = Mutator.create rt in
         result := Some (f m);
         Mutator.finish m));
  Sim.Engine.run rt.Rt.engine;
  Option.get !result

let test_mutator_alloc () =
  let rt = mk_rt () in
  let o =
    run_in_mutator rt (fun m ->
        let o = Mutator.alloc m ~data_bytes:100 ~nrefs:2 in
        Alcotest.(check int) "size" (Heap.Heap_impl.object_size ~nrefs:2 ~data_bytes:100)
          (Heap.Gobj.size o);
        o)
  in
  let r = Heap.Heap_impl.region rt.Rt.heap (Heap.Gobj.region o) in
  Alcotest.(check bool) "allocated in a young region" true
    (r.Heap.Region.kind = Heap.Region.Young)

let test_mutator_read_write_and_barrier () =
  let rt = mk_rt () in
  let barrier_calls = ref 0 in
  Rt.install_collector rt
    {
      Rt.null_collector with
      Rt.store_barrier =
        (fun ~src:_ ~field:_ ~old_v:_ ~new_v:_ -> incr barrier_calls);
    };
  run_in_mutator rt (fun m ->
      let a = Mutator.alloc m ~data_bytes:16 ~nrefs:1 in
      let b = Mutator.alloc m ~data_bytes:16 ~nrefs:0 in
      Mutator.write m a 0 b;
      Alcotest.(check bool) "read back" true (Mutator.read m a 0 == b));
  Alcotest.(check int) "store barrier ran once" 1 !barrier_calls

let test_load_healing () =
  let rt = mk_rt () in
  run_in_mutator rt (fun m ->
      let holder = Mutator.alloc m ~data_bytes:16 ~nrefs:1 in
      let old_copy = Mutator.alloc m ~data_bytes:16 ~nrefs:0 in
      Mutator.write m holder 0 old_copy;
      (* Relocate the target behind the mutator's back. *)
      let new_copy = Mutator.alloc m ~data_bytes:16 ~nrefs:0 in
      old_copy.Heap.Gobj.forward <- new_copy;
      (let got = Mutator.read m holder 0 in
       if Heap.Gobj.is_null got then Alcotest.fail "lost reference"
       else
         Alcotest.(check bool) "read heals to newest copy" true
           (got == new_copy));
      (* The slot itself was healed in place. *)
      Alcotest.(check bool) "slot healed" true
        (Heap.Gobj.get_field holder 0 == new_copy))

(* An object over half a region is an ordinary object: it is allocated
   in a young TLAB region and copied by young collections like any
   other, under the full sanitizer. *)
let test_large_object_is_young () =
  List.iter
    (fun (name, install) ->
      let rt = mk_rt () in
      install rt;
      Analysis.Sanitizer.install ~level:Analysis.Sanitizer.Full rt;
      let region_bytes = rt.Rt.heap.Heap.Heap_impl.cfg.region_bytes in
      let data_bytes = (region_bytes / 2) + Util.Units.kib in
      let global, first, size =
        run_in_mutator rt (fun m ->
            let o = Mutator.alloc m ~data_bytes ~nrefs:0 in
            let r = Heap.Heap_impl.region rt.Rt.heap (Heap.Gobj.region o) in
            Alcotest.(check bool)
              (name ^ ": over half a region")
              true
              (2 * Heap.Gobj.size o > region_bytes);
            Alcotest.(check bool)
              (name ^ ": allocated young")
              true
              (r.Heap.Region.kind = Heap.Region.Young);
            let global = Rt.add_global rt o in
            (* Churn garbage until a young collection has copied it. *)
            let n = ref 0 in
            while Rt.get_global rt global == o && !n < 200_000 do
              ignore (Mutator.alloc m ~data_bytes:96 ~nrefs:0);
              incr n
            done;
            (global, o, Heap.Gobj.size o))
      in
      let o = Heap.Gobj.resolve (Rt.get_global rt global) in
      Alcotest.(check bool) (name ^ ": copied by a collection") true (o != first);
      Alcotest.(check bool)
        (name ^ ": still reachable")
        false (Heap.Gobj.is_freed o);
      Alcotest.(check int) (name ^ ": size unchanged") size (Heap.Gobj.size o))
    [
      ("jade", fun rt -> ignore (Jade.Collector.install rt));
      ("g1", fun rt -> ignore (Collectors.G1.install rt));
    ]

let test_tlab_refill_claims_regions () =
  let rt = mk_rt () in
  run_in_mutator rt (fun m ->
      (* Allocate more than one region's worth. *)
      for _ = 1 to 5000 do
        ignore (Mutator.alloc m ~data_bytes:100 ~nrefs:0)
      done);
  Alcotest.(check bool) "multiple regions claimed" true
    (Heap.Heap_impl.used_regions rt.Rt.heap >= 2)

let test_oom_raises () =
  let rt = mk_rt ~heap_bytes:(2 * mib) () in
  (* null collector: exhaustion must surface as Out_of_memory. *)
  let raised =
    try
      run_in_mutator rt (fun m ->
          for _ = 1 to 100_000 do
            ignore (Mutator.alloc m ~data_bytes:1024 ~nrefs:0)
          done;
          false)
    with Rt.Out_of_memory _ -> true
  in
  Alcotest.(check bool) "OOM raised" true raised

(* ------------------------------------------------------------------ *)
(* Drivers *)

let test_driver_closed () =
  let rt = mk_rt () in
  let r =
    Driver.run rt ~n_mutators:2 ~mode:Driver.Closed ~warmup:(200 * us)
      ~duration:(2 * ms)
      ~request:(fun m -> Mutator.work m (100 * us))
      ()
  in
  (* 2 mutators x 2ms window / 100us per request = ~40 requests. *)
  Alcotest.(check bool)
    (Printf.sprintf "completed %d in window" r.Driver.completed)
    true
    (r.Driver.completed >= 30 && r.Driver.completed <= 50);
  Alcotest.(check bool) "no oom" true (r.Driver.oom = None)

let test_driver_open_latency_measures_queueing () =
  let rt = mk_rt ~cores:1 () in
  (* One core, 1ms service time, arrivals at 2000 qps: utilization 2.0 ->
     queue grows, p99 latency must exceed service time. *)
  let r =
    Driver.run rt ~n_mutators:2 ~mode:(Driver.Open 2000.) ~warmup:ms
      ~duration:(20 * ms)
      ~request:(fun m -> Mutator.work m ms)
      ()
  in
  ignore r;
  Alcotest.(check bool) "p99 latency shows queueing" true
    (Metrics.p99_latency rt.Rt.metrics > ms)

let test_driver_open_rate_accuracy () =
  (* Ample capacity: completed requests track the offered rate. *)
  let rt = mk_rt () in
  let r =
    Driver.run rt ~n_mutators:4 ~mode:(Driver.Open 10_000.) ~warmup:ms
      ~duration:(50 * ms)
      ~request:(fun m -> Mutator.work m (20 * us))
      ()
  in
  let expected = 10_000. *. 0.05 in
  let ratio = float_of_int r.Driver.completed /. expected in
  Alcotest.(check bool)
    (Printf.sprintf "completed %d ~ offered %.0f" r.Driver.completed expected)
    true
    (ratio > 0.9 && ratio < 1.1)

let test_safepoint_deregister_during_stw () =
  (* A mutator finishing while another is stopped must not wedge the
     safepoint accounting. *)
  let rt = mk_rt () in
  let engine = rt.Rt.engine in
  let stw_ran = ref false in
  ignore
    (Sim.Engine.spawn engine ~name:"short" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Mutator.create rt in
         Mutator.work m (100 * us);
         Mutator.finish m));
  ignore
    (Sim.Engine.spawn engine ~name:"long" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Mutator.create rt in
         Mutator.work m (3 * ms);
         Mutator.finish m));
  ignore
    (Sim.Engine.spawn engine ~daemon:true ~name:"gc" ~kind:Sim.Engine.Gc
       (fun () ->
         Sim.Engine.sleep engine (50 * us);
         Safepoint.stw rt.Rt.safepoint Metrics.Full_gc (fun () ->
             Sim.Engine.tick (200 * us);
             stw_ran := true)));
  Sim.Engine.run engine;
  Alcotest.(check bool) "stw completed" true !stw_ran

let test_driver_fixed () =
  let rt = mk_rt () in
  let r =
    Driver.run rt ~n_mutators:3 ~mode:(Driver.Fixed 90)
      ~request:(fun m -> Mutator.work m (50 * us))
      ()
  in
  Alcotest.(check int) "exactly the fixed count" 90 r.Driver.completed

let () =
  Alcotest.run "runtime"
    [
      ( "metrics",
        [
          Alcotest.test_case "phases" `Quick test_metrics_phases;
          Alcotest.test_case "phases allocate nothing" `Quick
            test_metrics_phases_allocate_nothing;
          Alcotest.test_case "recording gate" `Quick test_metrics_recording_gate;
          Alcotest.test_case "counters" `Quick test_metrics_counters;
        ] );
      ( "safepoint",
        [
          Alcotest.test_case "stw waits for mutators" `Quick test_stw_waits_for_mutators;
          Alcotest.test_case "parked mutators" `Quick test_stw_with_parked_mutator;
          Alcotest.test_case "stw serialized" `Quick test_stw_serialized;
          Alcotest.test_case "deregister during stw" `Quick
            test_safepoint_deregister_during_stw;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "alloc" `Quick test_mutator_alloc;
          Alcotest.test_case "read/write + barrier" `Quick
            test_mutator_read_write_and_barrier;
          Alcotest.test_case "load healing" `Quick test_load_healing;
          Alcotest.test_case "object over half a region" `Quick
            test_large_object_is_young;
          Alcotest.test_case "tlab refill" `Quick test_tlab_refill_claims_regions;
          Alcotest.test_case "oom raises" `Quick test_oom_raises;
        ] );
      ( "driver",
        [
          Alcotest.test_case "closed loop" `Quick test_driver_closed;
          Alcotest.test_case "open loop queueing" `Quick
            test_driver_open_latency_measures_queueing;
          Alcotest.test_case "open loop rate accuracy" `Quick
            test_driver_open_rate_accuracy;
          Alcotest.test_case "fixed work" `Quick test_driver_fixed;
        ] );
    ]
