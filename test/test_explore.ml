(* Schedule-space explorer: the policy seam is bit-compatible with the
   default scheduler, the explorer finds a schedule-dependent planted
   bug that round-robin never trips, minimizes it to a handful of forced
   choices, and replays are byte-deterministic. *)

let kib = Util.Units.kib
let mib = Util.Units.mib

(* The planted-bug scenarios and shared config live in
   Ptest_scenarios so test_parallel can fence the same search at
   -j 1 vs -j 4. *)
let window_scenario = Ptest_scenarios.window_scenario
let disjoint_scenario = Ptest_scenarios.disjoint_scenario
let is_forwarding_race = Ptest_scenarios.is_forwarding_race
let bounded_cfg = Ptest_scenarios.bounded_cfg

(* ------------------------------------------------------------------ *)
(* Replay codec. *)

let test_schedule_codec () =
  let t =
    {
      Analysis.Schedule.meta =
        [ ("collector", "jade"); ("workload", "avrora"); ("seed", "7") ];
      choices = [ (3, 1); (17, 2) ];
    }
  in
  let s = Analysis.Schedule.to_string t in
  let t' = Analysis.Schedule.of_string s in
  Alcotest.(check (list (pair int int)))
    "choices round-trip" t.Analysis.Schedule.choices
    t'.Analysis.Schedule.choices;
  Alcotest.(check (option string))
    "meta round-trip" (Some "avrora")
    (Analysis.Schedule.find_meta t' "workload");
  Alcotest.(check string) "serialization is canonical" s
    (Analysis.Schedule.to_string t');
  (* Choices are stored ascending regardless of input order. *)
  let shuffled =
    Analysis.Schedule.of_string
      "gcsim-schedule v1\nchoice 17 2\nchoice 3 1\n"
  in
  Alcotest.(check (list (pair int int)))
    "choices sorted" [ (3, 1); (17, 2) ]
    shuffled.Analysis.Schedule.choices;
  let fails s =
    match Analysis.Schedule.of_string s with
    | exception Analysis.Schedule.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad header rejected" true (fails "bogus v9\n");
  Alcotest.(check bool) "duplicate ordinal rejected" true
    (fails "gcsim-schedule v1\nchoice 3 1\nchoice 3 2\n");
  Alcotest.(check bool) "malformed choice rejected" true
    (fails "gcsim-schedule v1\nchoice 3\n");
  Alcotest.(check bool) "empty file rejected" true (fails "")

(* ------------------------------------------------------------------ *)
(* Bit-identity: a zero-rotation policy is the default scheduler. *)

let small_machine =
  {
    Experiments.Harness.cores = 4;
    heap_bytes = 24 * mib;
    region_bytes = 256 * kib;
    seed = 11;
    pooling = true;
  }

let test_zero_policy_is_bit_identical () =
  let app = Workload.Apps.find "avrora" in
  let run ?attach () =
    Experiments.Harness.run ~machine:small_machine ?attach
      ~mode:(Runtime.Driver.Fixed 2_000)
      ~install:(fun rt -> ignore (Jade.Collector.install rt))
      ~collector:"jade" app
  in
  let plain = run () in
  let zero =
    run
      ~attach:(fun rt ->
        Sim.Engine.set_policy rt.Runtime.Rt.engine (Some (fun _ -> 0)))
      ()
  in
  let open Experiments.Harness in
  Alcotest.(check int) "completed" plain.completed zero.completed;
  Alcotest.(check int) "elapsed" plain.elapsed zero.elapsed;
  Alcotest.(check int) "p99 latency" plain.p99_latency zero.p99_latency;
  Alcotest.(check int) "max latency" plain.max_latency zero.max_latency;
  Alcotest.(check int) "pause count" plain.pause_count zero.pause_count;
  Alcotest.(check int) "cumulative pause" plain.cumulative_pause
    zero.cumulative_pause;
  Alcotest.(check int) "mutator cpu" plain.cpu_mutator zero.cpu_mutator;
  Alcotest.(check int) "gc cpu" plain.cpu_gc zero.cpu_gc

(* ------------------------------------------------------------------ *)
(* The planted schedule-dependent bug (Ptest_scenarios.window_scenario). *)

let test_default_schedule_is_clean () =
  (* Self-check: the planted window must be invisible to round-robin —
     otherwise this is just test_analysis's racy-forwarding test and
     proves nothing about exploration. *)
  Alcotest.(check (option string))
    "planted run, default schedule: no violation" None
    (Option.map Analysis.Report.to_string
       (Analysis.Explore.replay (window_scenario ~plant:true) []))

let test_bounded_finds_window_bug () =
  let r = Analysis.Explore.run (window_scenario ~plant:true) bounded_cfg in
  match r.Analysis.Explore.violation with
  | None ->
      Alcotest.failf
        "bounded search missed the planted window bug (%d schedules, %d \
         baseline choice points)"
        r.Analysis.Explore.explored r.Analysis.Explore.baseline_choice_points
  | Some v ->
      Alcotest.(check bool) "caught by the race detector" true
        (is_forwarding_race v.Analysis.Explore.report);
      Alcotest.(check bool)
        (Printf.sprintf "minimized to <= 3 forced choices (got %s)"
           (Analysis.Schedule.describe v.Analysis.Explore.schedule))
        true
        (List.length v.Analysis.Explore.schedule <= 3);
      Alcotest.(check bool) "minimized schedule is non-empty" true
        (v.Analysis.Explore.schedule <> [])

let test_rand_finds_window_bug () =
  let cfg =
    {
      Analysis.Explore.strategy = Analysis.Explore.Rand;
      schedules = 256;
      depth = 4;
      seed = 3;
      jobs = 1;
    }
  in
  let r = Analysis.Explore.run (window_scenario ~plant:true) cfg in
  match r.Analysis.Explore.violation with
  | None ->
      Alcotest.failf "random walk missed the planted window bug (%d schedules)"
        r.Analysis.Explore.explored
  | Some v ->
      Alcotest.(check bool) "caught by the race detector" true
        (is_forwarding_race v.Analysis.Explore.report)

let test_unplanted_scenario_stays_clean () =
  (* Control: the same exploration over the bug-free collector must not
     cry wolf. *)
  let r = Analysis.Explore.run (window_scenario ~plant:false) bounded_cfg in
  (match r.Analysis.Explore.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "false positive on clean scenario: %s"
        (Analysis.Report.to_string v.Analysis.Explore.report));
  Alcotest.(check bool) "explored more than the baseline" true
    (r.Analysis.Explore.explored > 1)

let test_replay_is_byte_deterministic () =
  let r = Analysis.Explore.run (window_scenario ~plant:true) bounded_cfg in
  let v =
    match r.Analysis.Explore.violation with
    | Some v -> v
    | None -> Alcotest.fail "bounded search missed the planted window bug"
  in
  let replay () =
    match
      Analysis.Explore.replay (window_scenario ~plant:true)
        v.Analysis.Explore.schedule
    with
    | Some rep -> Analysis.Report.to_string rep
    | None -> Alcotest.fail "minimized schedule did not reproduce"
  in
  let a = replay () and b = replay () in
  Alcotest.(check string) "replayed reports are byte-identical" a b;
  Alcotest.(check string) "explorer's own report matches replay" a
    (Analysis.Report.to_string v.Analysis.Explore.report);
  (* Round-trip the schedule through the on-disk codec. *)
  let encoded =
    Analysis.Schedule.to_string
      { Analysis.Schedule.meta = []; choices = v.Analysis.Explore.schedule }
  in
  let decoded = Analysis.Schedule.of_string encoded in
  (match
     Analysis.Explore.replay (window_scenario ~plant:true)
       decoded.Analysis.Schedule.choices
   with
  | Some rep ->
      Alcotest.(check string) "decoded schedule reproduces byte-identically" a
        (Analysis.Report.to_string rep)
  | None -> Alcotest.fail "decoded schedule did not reproduce")

let test_strategies_agree () =
  (* Bounded and pruned walk the same search tree (pruning only skips
     schedules proven equivalent), so they must find the same first
     violation, shrink it to the same schedule, and ship byte-identical
     reports. *)
  let run strategy =
    let r =
      Analysis.Explore.run (window_scenario ~plant:true)
        { bounded_cfg with Analysis.Explore.strategy }
    in
    match r.Analysis.Explore.violation with
    | Some v -> v
    | None ->
        Alcotest.failf "%s search missed the planted window bug"
          (Analysis.Explore.strategy_to_string strategy)
  in
  let b = run Analysis.Explore.Bounded in
  let p = run Analysis.Explore.Pruned in
  Alcotest.(check (list (pair int int)))
    "same minimized schedule" b.Analysis.Explore.schedule
    p.Analysis.Explore.schedule;
  Alcotest.(check string) "byte-identical reports"
    (Analysis.Report.to_string b.Analysis.Explore.report)
    (Analysis.Report.to_string p.Analysis.Explore.report)

(* ------------------------------------------------------------------ *)
(* Footprint pruning (Ptest_scenarios.disjoint_scenario): the pruned
   strategy should discard most of the search tree the bounded strategy
   pays for. *)

let test_pruning_skips_equivalent_schedules () =
  let cfg = { bounded_cfg with Analysis.Explore.schedules = 600 } in
  let bounded =
    Analysis.Explore.run disjoint_scenario
      { cfg with Analysis.Explore.strategy = Analysis.Explore.Bounded }
  in
  let pruned =
    Analysis.Explore.run disjoint_scenario
      { cfg with Analysis.Explore.strategy = Analysis.Explore.Pruned }
  in
  Alcotest.(check bool) "bounded finds nothing" true
    (bounded.Analysis.Explore.violation = None);
  Alcotest.(check bool) "pruned finds nothing" true
    (pruned.Analysis.Explore.violation = None);
  (* Exact counts: the baseline has one two-way choice point within the
     horizon whose threads touch disjoint metadata, so bounded runs its
     one child and pruned skips it.  A change to what the footprints
     record, or to when they are recorded, moves these. *)
  let counts (r : Analysis.Explore.result) =
    (r.Analysis.Explore.explored, r.Analysis.Explore.pruned)
  in
  Alcotest.(check (pair int int)) "bounded explored, pruned" (2, 0)
    (counts bounded);
  Alcotest.(check (pair int int)) "pruned explored, pruned" (1, 1)
    (counts pruned)

(* ------------------------------------------------------------------ *)
(* Heap recycling: each schedule's heap is rebuilt from the previous
   schedule's storage.  Recycled records are unreachable until reissued,
   so every schedule must end exactly as it does on a fresh heap.  The
   cells that collect (asserted) harvest records and pass stubs through
   limbo while carried-over records wait in their slots; on the check
   workload's geometry nothing is collected, and every set-up object is
   reissued in the record its slot held (asserted). *)

(* One cell per collector at the golden-trace geometry, plus lxr pmd
   2.0x seed 2, where pooled and unpooled runs parted while LXR left
   its remembered sets stale across full GCs, and jade avrora 4x, the
   check workload's geometry. *)
let recycle_cells =
  List.map (fun e -> (`Collects, (e, "lusearch", 1.5, 42, 300))) Experiments.Registry.all
  @ [
      (`Collects, (Experiments.Registry.lxr, "pmd", 2.0, 2, 300));
      (`In_place, (Experiments.Registry.jade, "avrora", 4.0, 42, 400));
    ]

(* Whether every object of [heap] sits in the record its slot held in
   [slots], each region's objects when the previous run ended. *)
let all_in_place (heap : Heap.Heap_impl.t) slots =
  Array.length slots = Heap.Heap_impl.num_regions heap
  && Array.for_all2
       (fun (r : Heap.Region.t) prev ->
         let objs = r.Heap.Region.objects in
         Util.Vec.length objs <= Array.length prev
         && List.for_all
              (fun i -> Util.Vec.get objs i == prev.(i))
              (List.init (Util.Vec.length objs) Fun.id))
       heap.Heap.Heap_impl.regions slots

(* Explore [schedules] rand schedules of a cell and return each run's
   end state, in schedule order, with the number of runs whose heap
   reused the previous run's regions, the number whose set-up objects
   all sat in the records their slots held when the previous run ended,
   and the explorer's end-state digest.  [fresh] drops the parked heap
   before each run, so every run builds its heap from nothing. *)
let explore_fingerprints ~fresh ~schedules
    ((entry : Experiments.Registry.entry), app, mult, seed, requests) =
  let app = Workload.Apps.find app in
  let machine = Experiments.Trace_run.machine_for ~cores:4 ~mult ~seed app in
  let prints = ref [] and reused = ref 0 and last = ref [||] in
  let in_place = ref 0 and slots = ref [||] in
  let scenario ~attach =
    if fresh then Heap.Heap_impl.drop_retired ();
    let rt, request =
      Experiments.Harness.prepare ~machine ~verify:Analysis.Sanitizer.Off
        ~attach ~install:entry.Experiments.Registry.install app
    in
    let engine = rt.Runtime.Rt.engine and heap = rt.Runtime.Rt.heap in
    if all_in_place heap !slots then incr in_place;
    let r =
      Runtime.Driver.run rt ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
        ~mode:(Runtime.Driver.Fixed requests) ~request ()
    in
    let m = rt.Runtime.Rt.metrics in
    if heap.Heap.Heap_impl.regions == !last then incr reused;
    last := heap.Heap.Heap_impl.regions;
    slots :=
      Array.map
        (fun (r : Heap.Region.t) -> Util.Vec.to_array r.Heap.Region.objects)
        heap.Heap.Heap_impl.regions;
    prints :=
      [
        Sim.Engine.now engine;
        r.Runtime.Driver.completed;
        Runtime.Metrics.pause_count m;
        Runtime.Metrics.cumulative_pause m;
        Sim.Engine.busy_ns engine Sim.Engine.Mutator;
        Sim.Engine.busy_ns engine Sim.Engine.Gc;
        Sim.Engine.busy_ns engine Sim.Engine.Aux;
        Heap.Heap_impl.used_bytes heap;
        Heap.Gobj.uid_watermark ();
      ]
      :: !prints
  in
  let res =
    Analysis.Explore.run scenario
      { Analysis.Explore.strategy = Analysis.Explore.Rand; schedules; depth = 8;
        seed; jobs = 1 }
  in
  Alcotest.(check bool) "no violation" true (res.Analysis.Explore.violation = None);
  (List.rev !prints, !reused, !in_place, res.Analysis.Explore.end_digest)

let test_recycled_equals_fresh () =
  let schedules = 4 in
  List.iter
    (fun (kind, ((entry : Experiments.Registry.entry), app, mult, seed, _ as cell)) ->
      let name =
        Printf.sprintf "%s %s %.1fx seed %d" entry.Experiments.Registry.name app mult seed
      in
      let recycled, reused, in_place, recycled_digest =
        explore_fingerprints ~fresh:false ~schedules cell
      in
      let fresh, reused_fresh, _, fresh_digest =
        explore_fingerprints ~fresh:true ~schedules cell
      in
      Alcotest.(check int) (name ^ ": every later schedule recycled") (schedules - 1) reused;
      Alcotest.(check int) (name ^ ": dropped slot builds fresh") 0 reused_fresh;
      let gc_busy fp = List.nth fp 5 in
      (match kind with
      | `Collects ->
          Alcotest.(check bool) (name ^ ": collects") true
            (List.for_all (fun fp -> gc_busy fp > 0) recycled)
      | `In_place ->
          Alcotest.(check int) (name ^ ": set-up reissued in place") (schedules - 1)
            in_place);
      Alcotest.(check (list (list int))) (name ^ ": per-schedule end states") fresh
        recycled;
      Alcotest.(check string) (name ^ ": end-state digest") fresh_digest
        recycled_digest)
    recycle_cells

let () =
  Alcotest.run "explore"
    [
      ( "codec",
        [ Alcotest.test_case "schedule file round-trip" `Quick test_schedule_codec ] );
      ( "policy-seam",
        [
          Alcotest.test_case "zero-rotation policy is bit-identical" `Quick
            test_zero_policy_is_bit_identical;
        ] );
      ( "planted-window-bug",
        [
          Alcotest.test_case "default schedule is clean" `Quick
            test_default_schedule_is_clean;
          Alcotest.test_case "bounded search finds it" `Quick
            test_bounded_finds_window_bug;
          Alcotest.test_case "random walk finds it" `Quick
            test_rand_finds_window_bug;
          Alcotest.test_case "clean scenario stays clean" `Quick
            test_unplanted_scenario_stays_clean;
        ] );
      ( "replay",
        [
          Alcotest.test_case "byte-deterministic replays" `Quick
            test_replay_is_byte_deterministic;
          Alcotest.test_case "bounded and pruned agree" `Quick
            test_strategies_agree;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "equivalent schedules skipped" `Quick
            test_pruning_skips_equivalent_schedules;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "recycled heaps end as fresh ones" `Slow
            test_recycled_equals_fresh;
        ] );
    ]
