(* Correctness-tooling tests: the invariant verifier and the
   happens-before race detector of [lib/analysis].

   Three layers:
   - unit tests for the vector-clock lattice and level parsing;
   - tier-1 integration scenarios re-run under [--verify=full] — every
     collector must finish its fixed work with the full sanitizer
     attached and zero violations;
   - planted-bug regressions: deliberately broken jade variants
     ([Jade_config.planted_bug]) must be CAUGHT, each by the engine
     designed for its failure class.  A sanitizer that never fires is
     indistinguishable from one that checks nothing. *)

let ms = Util.Units.ms
let mib = Util.Units.mib

(* ------------------------------------------------------------------ *)
(* Vector clocks.                                                       *)

let test_vclock_lattice () =
  let a = Analysis.Vclock.create () in
  let b = Analysis.Vclock.create () in
  Alcotest.(check bool) "empty <= empty" true (Analysis.Vclock.leq a b);
  ignore (Analysis.Vclock.tick a ~tid:0);
  ignore (Analysis.Vclock.tick a ~tid:0);
  ignore (Analysis.Vclock.tick b ~tid:3);
  Alcotest.(check int) "tick advances" 2 (Analysis.Vclock.get a ~tid:0);
  Alcotest.(check bool) "a not <= b" false (Analysis.Vclock.leq a b);
  Alcotest.(check bool) "b not <= a" false (Analysis.Vclock.leq b a);
  Analysis.Vclock.merge a b;
  Alcotest.(check bool) "b <= merged" true (Analysis.Vclock.leq b a);
  Alcotest.(check int) "merge keeps own" 2 (Analysis.Vclock.get a ~tid:0);
  Alcotest.(check int) "merge joins other" 1 (Analysis.Vclock.get a ~tid:3);
  (* The host/scheduler context lives at tid -1. *)
  ignore (Analysis.Vclock.tick a ~tid:(-1));
  Alcotest.(check int) "host slot" 1 (Analysis.Vclock.get a ~tid:(-1));
  let c = Analysis.Vclock.copy a in
  ignore (Analysis.Vclock.tick a ~tid:0);
  Alcotest.(check int) "copy is a snapshot" 2 (Analysis.Vclock.get c ~tid:0)

let test_level_parsing () =
  let p s = Analysis.Sanitizer.level_of_string s in
  Alcotest.(check bool) "off" true (p "off" = Some Analysis.Sanitizer.Off);
  Alcotest.(check bool) "fast" true (p "fast" = Some Analysis.Sanitizer.Fast);
  Alcotest.(check bool) "full" true (p "full" = Some Analysis.Sanitizer.Full);
  Alcotest.(check bool) "bare flag means full" true
    (p "" = Some Analysis.Sanitizer.Full);
  Alcotest.(check bool) "garbage rejected" true (p "paranoid" = None)

(* ------------------------------------------------------------------ *)
(* Shared workload plumbing (mirrors test_integration.ml).              *)

let machine ?(cores = 4) heap_mib =
  {
    Experiments.Harness.default_machine with
    Experiments.Harness.heap_bytes = heap_mib * mib;
    cores;
  }

let small_app ?(update_pct = 0.4) live_mib : Workload.Apps.t =
  {
    Workload.Apps.name = "atest";
    fixed_requests = 800;
    spec =
      {
        Workload.Spec.name = "atest";
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
        update_pct;
        cpu_ns = 30_000;
        weak_pct = 0.1;
      };
  }

(* ------------------------------------------------------------------ *)
(* Tier-1 integration scenarios under --verify=full.                    *)

(* A run that broke an invariant comes back with its report and no
   numbers; fail with the report. *)
let no_violation name (s : Experiments.Harness.summary) =
  Option.iter
    (fun r -> Alcotest.failf "%s: %s" name (Analysis.Report.to_string r))
    s.Experiments.Harness.violation

let test_verified_fixed_work_all_collectors () =
  (* Full verification at every phase boundary of every collector:
     each must finish its fixed work with no violation. *)
  let app = small_app 6 in
  List.iter
    (fun (name, install) ->
      let s =
        Experiments.Harness.run ~machine:(machine 24)
          ~verify:Analysis.Sanitizer.Full
          ~mode:(Runtime.Driver.Fixed app.Workload.Apps.fixed_requests)
          ~install ~collector:name app
      in
      no_violation name s;
      Alcotest.(check bool)
        (name ^ " completed fixed work under full verification")
        true
        (s.Experiments.Harness.completed = app.Workload.Apps.fixed_requests);
      Alcotest.(check bool) (name ^ " no oom") true
        (s.Experiments.Harness.oom = None))
    [
      ("g1", fun rt -> ignore (Collectors.G1.install rt));
      ("shenandoah", fun rt -> ignore (Collectors.Shenandoah.install rt));
      ("zgc", fun rt -> ignore (Collectors.Zgc.install rt));
      ("genshen", fun rt -> ignore Collectors.Generational.(install genshen rt));
      ("genz", fun rt -> ignore Collectors.Generational.(install genz rt));
      ("lxr", fun rt -> ignore (Collectors.Lxr.install rt));
      ("jade", fun rt -> ignore (Jade.Collector.install rt));
    ]

let test_verified_open_loop () =
  let app = small_app 6 in
  let s =
    Experiments.Harness.run ~machine:(machine 24)
      ~verify:Analysis.Sanitizer.Full
      ~install:(fun rt -> ignore (Collectors.G1.install rt))
      ~collector:"g1" ~mode:(Runtime.Driver.Open 5000.) ~warmup:(100 * ms)
      ~duration:(400 * ms) app
  in
  no_violation "g1" s;
  Alcotest.(check bool) "p99 >= p50" true
    (s.Experiments.Harness.p99_latency >= s.Experiments.Harness.p50_latency);
  Alcotest.(check bool) "completed requests" true
    (s.Experiments.Harness.completed > 400)

(* Jade's old controller declares a quiescent point when its mark ends
   and none during its group rounds: a round's stubs stay named by roots
   until the cycle's epilogue heals them.  Lusearch at 1.5x on 4 cores
   (128 KiB regions), open loop at 20,000 requests per second, evacuates
   old groups within 100 ms, and its mutators park between requests
   with their roots in place.  A quiescent point after each round, or a
   period that ends one quiescent point early, recycles a stub a root
   still names there, and the grace-period check reports it. *)
let test_verified_jade_group_rounds () =
  let app = Workload.Apps.find "lusearch" in
  let s =
    Experiments.Harness.run
      ~machine:(Experiments.Exp.machine_for ~cores:4 app ~mult:1.5)
      ~verify:Analysis.Sanitizer.Full
      ~install:Experiments.Registry.jade.Experiments.Registry.install
      ~collector:"jade" ~mode:(Runtime.Driver.Open 20_000.) ~warmup:0
      ~duration:(100 * ms) app
  in
  no_violation "jade" s;
  let rounds = Runtime.Metrics.counter s.Experiments.Harness.metrics "jade.rounds" in
  Alcotest.(check bool)
    (Printf.sprintf "old group rounds %d > 0" rounds)
    true (rounds > 0)

let test_sanitizer_does_not_perturb_metrics () =
  (* The verifier and race detector are host-side observers: a run with
     the full sanitizer must produce the exact same simulated metrics as
     a run without it. *)
  let app = small_app 6 in
  let run verify =
    Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine:(machine 20) ~verify
      ~install:(fun rt -> ignore (Jade.Collector.install rt))
      ~collector:"jade" ~warmup:(100 * ms) ~duration:(400 * ms) app
  in
  let off = run Analysis.Sanitizer.Off in
  let full = run Analysis.Sanitizer.Full in
  no_violation "jade" full;
  let open Experiments.Harness in
  Alcotest.(check int) "completed" off.completed full.completed;
  Alcotest.(check (float 0.)) "throughput" off.throughput full.throughput;
  Alcotest.(check int) "p99 latency" off.p99_latency full.p99_latency;
  Alcotest.(check int) "pause count" off.pause_count full.pause_count;
  Alcotest.(check int) "cumulative pause" off.cumulative_pause
    full.cumulative_pause;
  Alcotest.(check int) "gc cpu" off.cpu_gc full.cpu_gc;
  Alcotest.(check int) "elapsed" off.elapsed full.elapsed

(* ------------------------------------------------------------------ *)
(* Planted bugs: each engine must catch its failure class.

   The unit tests build the minimal heap state by hand — one young
   object referenced from directly-constructed old holders — and drive
   [Jade.Young.collect] themselves, so the catch is deterministic
   rather than hostage to workload timing. *)

(* A runtime with jade's young collector and write barrier but no
   controller daemons: the test decides when collection runs. *)
let young_only_rt ~config () =
  let engine = Sim.Engine.create ~cores:4 ~quantum:(20 * Util.Units.us) () in
  let cfg =
    Heap.Heap_impl.config ~heap_bytes:(16 * mib)
      ~region_bytes:(256 * Util.Units.kib) ()
  in
  let heap = Heap.Heap_impl.create cfg in
  let rt = Runtime.Rt.create ~seed:7 ~engine ~heap () in
  Heap.Access.reset ();
  let young = Jade.Young.create ~config rt in
  Runtime.Rt.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "test.jade.old2young";
      rp_covers =
        (fun () ->
          Some
            (fun ~card ~target_rid:_ ->
              Heap.Remset.mem young.Jade.Young.remset card
              || Heap.Heap_impl.card_is_dirty heap card));
    };
  Runtime.Rt.install_collector rt
    {
      Runtime.Rt.cname = "jade";
      store_barrier =
        (fun ~src ~field ~old_v:_ ~new_v ->
          Jade.Young.barrier young ~src ~field ~new_v);
      load_extra_cost = 1;
      mutator_tax_pct = 0;
      alloc_failure = (fun () -> failwith "test heap exhausted");
    };
  Analysis.Sanitizer.install ~level:Full rt;
  (rt, young)

(* An old-generation holder with one reference slot, in its own region
   (distinct regions keep the holders on distinct cards). *)
let fresh_old_holder rt =
  let heap = rt.Runtime.Rt.heap in
  match Heap.Heap_impl.claim_region heap Heap.Region.Old with
  | None -> Alcotest.fail "test heap has no free region"
  | Some r ->
      Heap.Heap_impl.alloc_in heap r
        ~size:(Heap.Heap_impl.object_size ~nrefs:1 ~data_bytes:0)
        ~nrefs:1

(* Run the engine of [rt] to the end and return the violation it
   raises, if any. *)
let first_violation rt =
  Fun.protect ~finally:Heap.Access.reset (fun () ->
      match Sim.Engine.run rt.Runtime.Rt.engine with
      | () -> None
      | exception Analysis.Report.Violation r -> Some r)

let test_planted_remset_bug_caught_by_verifier () =
  let config =
    { Jade.Jade_config.default with planted_bug = Jade.Jade_config.Skip_remset_insert }
  in
  let rt, young = young_only_rt ~config () in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"planter"
       ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         let x = Runtime.Mutator.alloc m ~data_bytes:32 ~nrefs:0 in
         let h = fresh_old_holder rt in
         (* The planted bug makes this store skip its remembered-set
            insert: an old→young edge the next collection cannot see. *)
         Runtime.Mutator.write m h 0 x;
         Runtime.Mutator.finish m;
         ignore (Jade.Young.collect young ~workers:1)));
  match first_violation rt with
  | None -> Alcotest.fail "the verifier stayed silent on an uncovered old→young edge"
  | Some r ->
      Alcotest.(check (pair string string))
        "verifier reported the uncovered old→young edge"
        ("verifier", "remset-coverage")
        (r.Analysis.Report.engine, r.Analysis.Report.invariant)

let test_planted_remset_bug_absent_means_silent () =
  (* Control: the identical scenario without the plant must be clean —
     a sanitizer that cries wolf is as useless as a silent one. *)
  let rt, young = young_only_rt ~config:Jade.Jade_config.default () in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"planter"
       ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         let x = Runtime.Mutator.alloc m ~data_bytes:32 ~nrefs:0 in
         let h = fresh_old_holder rt in
         Runtime.Mutator.write m h 0 x;
         Runtime.Mutator.finish m;
         ignore (Jade.Young.collect young ~workers:1)));
  match first_violation rt with
  | None -> ()
  | Some r ->
      Alcotest.failf "violation without the plant:\n%s"
        (Analysis.Report.to_string r)

let test_planted_race_caught_by_detector () =
  (* Two holders on different cards reference the same young object; two
     evacuation workers scan one card each.  The planted check-then-act
     window (check forward slot, yield, install) lets both copy it. *)
  let config =
    { Jade.Jade_config.default with planted_bug = Jade.Jade_config.Racy_forwarding }
  in
  let rt, young = young_only_rt ~config () in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"planter"
       ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         let x = Runtime.Mutator.alloc m ~data_bytes:32 ~nrefs:0 in
         let h1 = fresh_old_holder rt in
         let h2 = fresh_old_holder rt in
         Runtime.Mutator.write m h1 0 x;
         Runtime.Mutator.write m h2 0 x;
         Runtime.Mutator.finish m;
         ignore (Jade.Young.collect young ~workers:2)));
  match first_violation rt with
  | None -> Alcotest.fail "the race detector stayed silent on a double install"
  | Some r ->
      Alcotest.(check string)
        "race detector reported the double forwarding install"
        "race-detector" r.Analysis.Report.engine

let test_planted_remset_bug_end_to_end () =
  (* Full workload run with the plant: the verifier must cut the run
     short, and the harness returns its report in the summary.
     Depending on whether an old cycle is in flight when the loss
     happens, the first broken invariant is either the remembered-set
     coverage recomputation or the downstream dangling-reference found
     by the reachability walk — both are the verifier catching the same
     planted bug. *)
  let app = small_app 6 in
  let config =
    { Jade.Jade_config.default with planted_bug = Jade.Jade_config.Skip_remset_insert }
  in
  let s =
    Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine:(machine 20)
      ~verify:Analysis.Sanitizer.Full
      ~install:(fun rt -> ignore (Jade.Collector.install ~config rt))
      ~collector:"jade" ~warmup:(100 * ms) ~duration:(600 * ms) app
  in
  match s.Experiments.Harness.violation with
  | None ->
      Alcotest.fail
        "young barrier dropped remembered-set inserts and the verifier \
         stayed silent"
  | Some r ->
      Alcotest.(check string) "caught by the heap verifier" "verifier"
        r.Analysis.Report.engine;
      Alcotest.(check bool)
        (Printf.sprintf "expected invariant (got %s)" r.Analysis.Report.invariant)
        true
        (List.mem r.Analysis.Report.invariant
           [ "remset-coverage"; "no-dangling-reference" ])

(* ------------------------------------------------------------------ *)
(* The fast verifier's accounting checks, each shown to fire.           *)

(* Plant [fault] on a small heap holding one claimed region with one
   object, fire a phase at the fast level, and return the invariant
   reported first. *)
let accounting_report fault =
  let engine = Sim.Engine.create () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rt = Runtime.Rt.create ~seed:7 ~engine ~heap () in
  let r = Option.get (Heap.Heap_impl.claim_region heap Heap.Region.Old) in
  ignore (Heap.Heap_impl.alloc_in heap r ~size:64 ~nrefs:0);
  fault heap r;
  let v = Analysis.Verifier.create ~full:false rt in
  match Analysis.Verifier.on_phase v ~collector:"test" Runtime.Vhook.Cycle_end with
  | () -> None
  | exception Analysis.Report.Violation r -> Some r.Analysis.Report.invariant

(* Each plant trips its own invariant first. *)
let test_accounting_faults_reported () =
  Alcotest.(check (option string)) "clean heap" None
    (accounting_report (fun _ _ -> ()));
  let fires invariant fault =
    Alcotest.(check (option string)) invariant (Some invariant)
      (accounting_report fault)
  in
  fires "free-region-empty" (fun heap _ ->
      (Heap.Heap_impl.region heap (Heap.Heap_impl.num_regions heap - 1))
        .Heap.Region.top <- 64);
  fires "region-bump-bound" (fun _ r ->
      r.Heap.Region.top <- r.Heap.Region.size + 1);
  fires "used-bytes-accounting" (fun heap _ ->
      heap.Heap.Heap_impl.used <- heap.Heap.Heap_impl.used + 1);
  fires "free-region-count" (fun heap r ->
      Util.Ring.push heap.Heap.Heap_impl.free_q r.Heap.Region.rid)

(* ------------------------------------------------------------------ *)
(* The deferred-harvest check.                                          *)

(* Release a region while an old mark runs inside a controller's step,
   so its dead resident is held back, then end the mark and the step
   with the sanitizer installed at [level]: the controller's quiescent
   point ends the grace period over the record.  When [rooted], a global
   root names the resident: the check must report it before the pool
   takes it.  Returns the invariant reported, if any. *)
let deferred_harvest_report ~level ~rooted =
  let engine = Sim.Engine.create () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rt = Runtime.Rt.create ~seed:7 ~engine ~heap () in
  Analysis.Sanitizer.install ~level rt;
  let grace = heap.Heap.Heap_impl.grace in
  let controller = Heap.Grace.register grace in
  let r = Option.get (Heap.Heap_impl.claim_region heap Heap.Region.Young) in
  let o = Heap.Heap_impl.alloc_in heap r ~size:64 ~nrefs:1 in
  if rooted then ignore (Runtime.Rt.add_global rt o);
  ignore (Heap.Heap_impl.begin_mark heap);
  Heap.Heap_impl.release_region heap r;
  Heap.Heap_impl.end_mark heap;
  Fun.protect ~finally:Heap.Access.reset (fun () ->
      match Heap.Grace.quiescent grace controller with
      | () -> None
      | exception Analysis.Report.Violation r -> Some r.Analysis.Report.invariant)

let test_deferred_harvest_check () =
  List.iter
    (fun level ->
      let name = Analysis.Sanitizer.level_to_string level in
      Alcotest.(check (option string)) (name ^ ": rooted record reported")
        (Some "deferred-harvest")
        (deferred_harvest_report ~level ~rooted:true);
      Alcotest.(check (option string)) (name ^ ": unrooted record passes")
        None
        (deferred_harvest_report ~level ~rooted:false))
    [ Analysis.Sanitizer.Fast; Analysis.Sanitizer.Full ]

let () =
  Alcotest.run "analysis"
    [
      ( "units",
        [
          Alcotest.test_case "vector-clock lattice" `Quick test_vclock_lattice;
          Alcotest.test_case "level parsing" `Quick test_level_parsing;
        ] );
      ( "verified-integration",
        [
          Alcotest.test_case "fixed work, all collectors, verify=full" `Slow
            test_verified_fixed_work_all_collectors;
          Alcotest.test_case "open loop, verify=full" `Slow
            test_verified_open_loop;
          Alcotest.test_case "jade group rounds, verify=full" `Slow
            test_verified_jade_group_rounds;
          Alcotest.test_case "sanitizer is metrics-neutral" `Slow
            test_sanitizer_does_not_perturb_metrics;
        ] );
      ( "planted-bugs",
        [
          Alcotest.test_case "skipped remset insert -> verifier" `Quick
            test_planted_remset_bug_caught_by_verifier;
          Alcotest.test_case "no plant -> no report" `Quick
            test_planted_remset_bug_absent_means_silent;
          Alcotest.test_case "racy forwarding -> race detector" `Quick
            test_planted_race_caught_by_detector;
          Alcotest.test_case "skipped remset insert, end to end" `Slow
            test_planted_remset_bug_end_to_end;
        ] );
      ( "verifier-accounting",
        [
          Alcotest.test_case "each planted fault is reported" `Quick
            test_accounting_faults_reported;
          Alcotest.test_case "rooted deferred record is reported" `Quick
            test_deferred_harvest_check;
        ] );
    ]
