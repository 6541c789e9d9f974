(* The five benchmark workloads.  Each drives the simulator through the
   public APIs of lib/experiments, lib/runtime, lib/analysis and lib/obs,
   timing every call into them, and books what it measures in a
   {!Ledger.t}.  Names are fixed: later changes cite them.

   [scale] divides every run length (simulated durations, request and
   schedule counts) for the smoke test; the benchmark runs at scale 1. *)

module H = Experiments.Harness
module Registry = Experiments.Registry

let ms = Util.Units.ms
let now = Unix.gettimeofday

(* One simulation: [Harness.prepare] then [Driver.run], with set-up, run
   time, simulated time and host allocation during the run booked
   separately.  [attach] observes the runtime before any simulation, as
   in {!Experiments.Harness.prepare}. *)
let simulate l ?(explored = false) ?(attach = ignore) ~machine
    ~(entry : Registry.entry) ~(app : Workload.Apps.t) ~mode ?warmup ?duration () =
  let finish = ref ignore in
  let t0 = now () in
  let rt, request =
    H.prepare ~machine ~verify:Analysis.Sanitizer.Off
      ~attach:(fun rt ->
        attach rt;
        finish := Ledger.attach l ~explored rt)
      ~install:entry.Registry.install app
  in
  Ledger.addi l "workload.setup_objects" (Heap.Gobj.uid_watermark ());
  let sim0 = Sim.Engine.now rt.Runtime.Rt.engine in
  (* [Gc.minor_words] counts the current minor heap too; the quick_stat
     field only moves at minor collections. *)
  let w0 = Gc.minor_words () and p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let t1 = now () in
  let r =
    Runtime.Driver.run rt ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
      ~mode ?warmup ?duration ~request ()
  in
  let t2 = now () in
  let w1 = Gc.minor_words () and p1 = (Gc.quick_stat ()).Gc.promoted_words in
  (match r.Runtime.Driver.oom with
  | Some why -> failwith (Printf.sprintf "%s/%s out of memory: %s" entry.Registry.name app.Workload.Apps.name why)
  | None -> ());
  Ledger.add l "experiments.prepare_s" (t1 -. t0);
  Ledger.add l "runtime.driver_run_s" (t2 -. t1);
  Ledger.add l ("collector_s." ^ entry.Registry.name) (t2 -. t0);
  Ledger.addi l "sim_ns" (Sim.Engine.now rt.Runtime.Rt.engine - sim0);
  Ledger.add l "minor_words" (w1 -. w0);
  Ledger.add l "promoted_words" (p1 -. p0);
  Ledger.fingerprint_run l rt r;
  !finish ();
  (rt, r)

let summarize l rt (entry : Registry.entry) app r =
  l.Ledger.summaries <-
    H.summarize rt app ~collector:entry.Registry.name r :: l.Ledger.summaries

let scaled scale n = max 1 (n / scale)

(* Closed or open loop: one collector, one workload, [warmup] then
   [duration] of simulated time. *)
let looped ~entry ~app_name ~cores ~mult ~mode ~warmup ~duration l ~seed ~scale =
  let app = Workload.Apps.find app_name in
  let machine = { (Experiments.Exp.machine_for ~cores app ~mult) with H.seed } in
  let rt, r =
    simulate l ~machine ~entry ~app ~mode ~warmup:(scaled scale warmup)
      ~duration:(scaled scale duration) ()
  in
  summarize l rt entry app r

(* The golden-trace geometry (lusearch, 4 cores, 1.5x), every collector.
   A full host collection between them keeps one collector's garbage from
   being paid for in the next one's set-up and run. *)
let all8 l ~seed ~scale =
  let app = Workload.Apps.find "lusearch" in
  let machine = Experiments.Trace_run.machine_for ~cores:4 ~mult:1.5 ~seed app in
  List.iter
    (fun entry ->
      Gc.full_major ();
      let rt, r =
        simulate l ~machine ~entry ~app
          ~mode:(Runtime.Driver.Fixed (scaled scale 10_000)) ()
      in
      summarize l rt entry app r)
    Registry.all

(* [gcsim check]'s rand strategy: every schedule rebuilds the machine
   under the explorer's oracles ({!Experiments.Harness.check_scenario},
   with set-up and run timed apart). *)
let check l ~seed ~scale =
  let app = Workload.Apps.find "avrora" in
  let machine = Experiments.Trace_run.machine_for ~cores:4 ~mult:4.0 ~seed app in
  let scenario ~attach =
    ignore
      (simulate l ~explored:true ~attach ~machine ~entry:Registry.jade ~app
         ~mode:(Runtime.Driver.Fixed (scaled scale 400)) ());
    Ledger.add l "analysis.runs" 1.
  in
  let cfg =
    {
      Analysis.Explore.strategy = Analysis.Explore.Rand;
      schedules = max 2 (scaled scale 640);
      depth = 8;
      seed;
      jobs = 1;
    }
  in
  let t0 = now () in
  let res = Analysis.Explore.run scenario cfg in
  let explore_s = now () -. t0 in
  (match res.Analysis.Explore.violation with
  | Some v ->
      failwith
        ("explorer violation: " ^ Analysis.Report.to_string v.Analysis.Explore.first_report)
  | None -> ());
  Ledger.add l "analysis.explore_s" explore_s;
  Ledger.addi l "analysis.schedules" res.Analysis.Explore.explored;
  Ledger.add l "schedules_per_host_s"
    (float_of_int res.Analysis.Explore.explored /. explore_s);
  Ledger.fingerprint_extra l
    (Printf.sprintf "explored=%d choice_points=%d" res.Analysis.Explore.explored
       res.Analysis.Explore.baseline_choice_points)

(* [Trace_run.run]'s scenario with the recorder attached, then the
   analyzer and the Chrome exporter over the recorded stream. *)
let traced l ~seed ~scale =
  let cores = 4 and mult = 1.5 and requests = scaled scale 25_000 in
  let app = Workload.Apps.find "lusearch" in
  let machine = Experiments.Trace_run.machine_for ~cores ~mult ~seed app in
  let recorder = ref None in
  let entry = Registry.jade in
  let rt, r =
    simulate l
      ~attach:(fun rt -> recorder := Some (Obs.Trace.attach rt))
      ~machine ~entry ~app ~mode:(Runtime.Driver.Fixed requests) ()
  in
  summarize l rt entry app r;
  let trace = Option.get !recorder in
  let t0 = now () in
  ignore (Obs.Analyze.analyze (Obs.Trace.events trace));
  let t1 = now () in
  let meta =
    Experiments.Trace_run.meta ~cores ~mult ~seed ~requests
      { Experiments.Trace_run.trace; summary = List.hd l.Ledger.summaries; machine }
  in
  ignore (String.length (Obs.Export.to_chrome_json ~meta trace));
  let t2 = now () in
  Ledger.add l "obs.analyze_s" (t1 -. t0);
  Ledger.add l "obs.export_s" (t2 -. t1);
  Ledger.addi l "obs.events" (Obs.Trace.length trace)

type t = {
  name : string;
  run : Ledger.t -> seed:int -> scale:int -> unit;
}

let all =
  [
    {
      name = "jade-h2-closed";
      run =
        looped ~entry:Registry.jade ~app_name:"h2-tpcc" ~cores:8 ~mult:2.0
          ~mode:Runtime.Driver.Closed ~warmup:(100 * ms) ~duration:(1_000 * ms);
    };
    {
      name = "g1-specjbb-open";
      run =
        looped ~entry:Registry.g1 ~app_name:"specjbb2015" ~cores:8 ~mult:1.75
          ~mode:(Runtime.Driver.Open 6000.) ~warmup:(100 * ms) ~duration:(4_000 * ms);
    };
    { name = "all8-lusearch-fixed"; run = all8 };
    { name = "check-avrora-rand"; run = check };
    { name = "jade-lusearch-traced"; run = traced };
  ]

let names = List.map (fun w -> w.name) all

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (want one of: %s)" name
           (String.concat ", " names))
