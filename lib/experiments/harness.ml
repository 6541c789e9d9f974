(** Experiment harness: build a simulated machine, install a collector,
    load a workload, drive it, and summarize the run. *)

module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

type machine = {
  cores : int;
  heap_bytes : int;
  region_bytes : int;
  quantum : int;
  seed : int;
  pooling : bool;
      (** recycle dead records/field arrays ({!Heap.Heap_impl.config});
          off only for pooled-vs-unpooled equivalence fences *)
}

let default_machine =
  {
    cores = 8;
    heap_bytes = 128 * Util.Units.mib;
    region_bytes = 512 * Util.Units.kib;
    quantum = 20 * Util.Units.us;
    seed = 42;
    pooling = true;
  }

type summary = {
  collector : string;
  workload : string;
  heap_bytes : int;
  throughput : float;  (** completed requests per virtual second *)
  completed : int;
  p50_latency : int;
  p99_latency : int;
  p999_latency : int;
  max_latency : int;
  cumulative_pause : int;
  avg_pause : int;
  p99_pause : int;
  max_pause : int;
  pause_count : int;
  cumulative_stall : int;
  cpu_mutator : int;
  cpu_gc : int;
  cpu_utilization : float;  (** busy fraction of all cores in the window *)
  elapsed : int;
  oom : string option;
  metrics : Metrics.t;  (** full sink for breakdown tables *)
}

exception Setup_oom of string
(** The workload's live set does not fit the configured heap. *)

(** Sanitizer level for a run: the [?verify] argument wins, then the
    [GCSIM_VERIFY] environment variable ("fast" / "full"), else off. *)
let verify_level ?verify () =
  match verify with
  | Some level -> level
  | None -> (
      match Sys.getenv_opt "GCSIM_VERIFY" with
      | None -> Analysis.Sanitizer.Off
      | Some s -> (
          match Analysis.Sanitizer.level_of_string s with
          | Some level -> level
          | None ->
              invalid_arg
                (Printf.sprintf "GCSIM_VERIFY=%s (want off, fast or full)" s)))
  [@@gcsim.allow
    "host-side harness: GCSIM_VERIFY env probe selects the sanitizer level"]

(** Build engine+heap+runtime, install the collector, construct the
    workload's live set, and return the runtime plus a request closure.
    Raises {!Setup_oom} when the heap cannot even hold the live set.

    [attach] runs after the collector and sanitizer are installed but
    before any simulation — the schedule-space explorer hooks its
    scheduling policy and oracles here ({!check_scenario}), which must
    be on the engine before the first {!Sim.Engine.run}. *)
let prepare ?(machine = default_machine) ?verify
    ?(attach = fun (_ : RtM.t) -> ()) ~install (app : Workload.Apps.t) =
  (* Round the heap down to a whole number of regions (at least 4). *)
  let heap_bytes =
    max (4 * machine.region_bytes)
      (machine.heap_bytes / machine.region_bytes * machine.region_bytes)
  in
  let engine = Sim.Engine.create ~cores:machine.cores ~quantum:machine.quantum () in
  let cfg =
    Heap.Heap_impl.config ~heap_bytes ~region_bytes:machine.region_bytes
      ~pooling:machine.pooling ()
  in
  let heap = Heap.Heap_impl.create cfg in
  let rt = RtM.create ~seed:machine.seed ~engine ~heap () in
  (* A detector left over from a previous in-process run must not observe
     this unrelated heap. *)
  Heap.Access.reset ();
  install rt;
  ignore (Analysis.Sanitizer.install ~level:(verify_level ?verify ()) rt);
  attach rt;
  let state = ref None in
  ignore
    (Sim.Engine.spawn engine ~name:"setup" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         state := Some (Workload.Spec.setup app.Workload.Apps.spec rt m);
         Runtime.Mutator.finish m));
  (try Sim.Engine.run engine
   with RtM.Out_of_memory why -> raise (Setup_oom why));
  let st =
    match !state with
    | Some st -> st
    | None -> raise (Setup_oom "workload setup did not complete")
  in
  (* The live set just built lives as long as the run.  Promote it here,
     as part of set-up, rather than in whichever host minor collection
     first lands in the run: which phase pays for it would otherwise
     depend only on where the minor-heap boundary happens to fall (a
     set-up that fits in one minor heap leaves all of it for the run). *)
  Gc.minor ();
  (rt, fun m -> Workload.Spec.request st rt m)

(* A summary for runs that died building the live set. *)
let oom_summary ~machine ~collector (app : Workload.Apps.t) why : summary =
  ignore machine;
  {
    collector;
    workload = app.Workload.Apps.name;
    heap_bytes = 0;
    throughput = 0.;
    completed = 0;
    p50_latency = 0;
    p99_latency = 0;
    p999_latency = 0;
    max_latency = 0;
    cumulative_pause = 0;
    avg_pause = 0;
    p99_pause = 0;
    max_pause = 0;
    pause_count = 0;
    cumulative_stall = 0;
    cpu_mutator = 0;
    cpu_gc = 0;
    cpu_utilization = 0.;
    elapsed = 0;
    oom = Some why;
    metrics = Runtime.Metrics.create ();
  }

let summarize rt (app : Workload.Apps.t) ~collector
    (r : Runtime.Driver.result) : summary =
  let m = rt.RtM.metrics in
  {
    collector;
    workload = app.Workload.Apps.name;
    heap_bytes = rt.RtM.heap.Heap.Heap_impl.cfg.heap_bytes;
    throughput = Metrics.throughput m;
    completed = r.Runtime.Driver.completed;
    p50_latency = Metrics.p50_latency m;
    p99_latency = Metrics.p99_latency m;
    p999_latency = Metrics.p999_latency m;
    max_latency = Metrics.max_latency m;
    cumulative_pause = Metrics.cumulative_pause m;
    avg_pause = Metrics.avg_pause m;
    p99_pause = Metrics.p99_pause m;
    max_pause = Metrics.max_pause m;
    pause_count = Metrics.pause_count m;
    cumulative_stall = Metrics.cumulative_pause_of m Metrics.Alloc_stall;
    cpu_mutator = Sim.Engine.busy_ns rt.RtM.engine Sim.Engine.Mutator;
    cpu_gc = Sim.Engine.busy_ns rt.RtM.engine Sim.Engine.Gc;
    cpu_utilization =
      Metrics.cpu_utilization m ~cores:(Sim.Engine.cores rt.RtM.engine);
    elapsed = r.Runtime.Driver.elapsed_ns;
    oom = r.Runtime.Driver.oom;
    metrics = m;
  }

(** One closed-loop run: peak throughput.  [attach] observes the
    runtime after collector+sanitizer install and before any simulation
    (observability recorders, scheduling policies); an observer that
    raises mid-run aborts the run loudly — the exception propagates out
    of {!Sim.Engine.run} rather than silently corrupting metrics. *)
let run_closed ?machine ?verify ?attach ?(warmup = 300 * Util.Units.ms)
    ?(duration = 1_500 * Util.Units.ms) ~install ~collector app =
  match prepare ?machine ?verify ?attach ~install app with
  | exception Setup_oom why -> oom_summary ~machine ~collector app why
  | rt, request ->
      let r =
        Runtime.Driver.run rt
          ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
          ~mode:Runtime.Driver.Closed ~warmup ~duration ~request ()
      in
      summarize rt app ~collector r

(** One open-loop (throttled) run at a fixed QPS. *)
let run_open ?machine ?verify ?attach ?(warmup = 300 * Util.Units.ms)
    ?(duration = 1_500 * Util.Units.ms) ~install ~collector ~qps app =
  match prepare ?machine ?verify ?attach ~install app with
  | exception Setup_oom why -> oom_summary ~machine ~collector app why
  | rt, request ->
      let r =
        Runtime.Driver.run rt
          ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
          ~mode:(Runtime.Driver.Open qps) ~warmup ~duration ~request ()
      in
      summarize rt app ~collector r

(** Fixed-work run (DaCapo): the metric is execution time. *)
let run_fixed ?machine ?verify ?attach ?requests ~install ~collector app =
  match prepare ?machine ?verify ?attach ~install app with
  | exception Setup_oom why -> oom_summary ~machine ~collector app why
  | rt, request ->
      let n =
        match requests with
        | Some n -> n
        | None -> app.Workload.Apps.fixed_requests
      in
      let r =
        Runtime.Driver.run rt
          ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
          ~mode:(Runtime.Driver.Fixed n) ~request ()
      in
      summarize rt app ~collector r


(** Package a fixed-work run as a schedule-explorer scenario
    ({!Analysis.Explore.scenario}): each invocation rebuilds the whole
    machine/heap/runtime from scratch and drives [requests] requests to
    completion, with the explorer's policy and oracles attached via
    [attach].  The sanitizer is forced [Off] here because the explorer
    installs its own oracle set per run
    ({!Analysis.Sanitizer.install_check_oracles}).

    [on_run] observes each completed run's driver result (e.g. to sum
    the virtual ns explored).  Under a parallel exploration it is called
    from pool domains, so it must be domain-safe — accumulate through
    [Atomic], not a plain ref. *)
let check_scenario ?machine ?requests ?(on_run = fun (_ : Runtime.Driver.result) -> ())
    ~install (app : Workload.Apps.t) : Analysis.Explore.scenario =
 fun ~attach ->
  match prepare ?machine ~verify:Analysis.Sanitizer.Off ~attach ~install app with
  | exception Setup_oom why ->
      failwith ("gcsim check: workload setup out of memory: " ^ why)
  | rt, request ->
      let n =
        match requests with
        | Some n -> n
        | None -> app.Workload.Apps.fixed_requests
      in
      on_run
        (Runtime.Driver.run rt
           ~n_mutators:app.Workload.Apps.spec.Workload.Spec.mutators
           ~mode:(Runtime.Driver.Fixed n) ~request ())

(* ------------------------------------------------------------------ *)
(* Reporting.                                                           *)

(** Print a per-phase / per-counter GC report for a finished run (the
    CLI's [--gc-report]; the moral equivalent of verbose GC logging). *)
let print_gc_report (s : summary) =
  let m = s.metrics in
  Printf.printf "\nGC report (%s on %s):\n" s.collector s.workload;
  let phases =
    Hashtbl.fold (fun name p acc -> (name, p) :: acc) m.Metrics.phases []
    |> List.sort compare
  in
  if phases <> [] then begin
    Printf.printf "  %-24s %10s %8s %12s\n" "phase" "total" "count" "avg";
    List.iter
      (fun (name, (p : Metrics.phase)) ->
        if p.Metrics.count > 0 then
          Printf.printf "  %-24s %10s %8d %12s\n" name
            (Util.Units.pp_time_ns p.Metrics.total_ns)
            p.Metrics.count
            (Util.Units.pp_time_ns (p.Metrics.total_ns / p.Metrics.count)))
      phases
  end;
  let counters =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) m.Metrics.counters []
    |> List.sort compare
  in
  if counters <> [] then begin
    Printf.printf "  %-34s %14s\n" "counter" "value";
    List.iter
      (fun (name, v) -> Printf.printf "  %-34s %14d\n" name v)
      counters
  end
  [@@gcsim.allow "host-side harness: CLI report printing on stdout"]
