(** Traced runs: one collector on one fixed-seed scenario with the
    observability recorder ([Obs.Trace]) attached.

    The scenario construction is shared by [gcsim trace], [bench obs]
    and the golden-trace tests, so all three reproduce byte-identical
    event streams for the same parameters: the machine is derived with
    {!Exp.machine_for} (heap and region geometry from the workload), the
    seed overrides the default, and the run is fixed-work
    ([Harness.run ~mode:(Fixed requests)]). *)

type result = {
  trace : Obs.Trace.t;
  summary : Harness.summary;
  machine : Harness.machine;
}

let machine_for ~cores ~mult ~seed (app : Workload.Apps.t) =
  { (Exp.machine_for ~cores app ~mult) with Harness.seed }

(** Run [entry] on [app] with tracing attached.  Raises [Failure] when
    workload setup itself dies of OOM (no trace exists then). *)
let run ?verify ?(cores = 4) ?(mult = 1.5) ?(seed = 42) ?requests
    (entry : Registry.entry) (app : Workload.Apps.t) =
  let machine = machine_for ~cores ~mult ~seed app in
  let requests = Option.value requests ~default:app.Workload.Apps.fixed_requests in
  let trace = ref None in
  let summary =
    Harness.run ~machine ?verify
      ~attach:(fun rt -> trace := Some (Obs.Trace.attach rt))
      ~mode:(Runtime.Driver.Fixed requests) ~install:entry.Registry.install
      ~collector:entry.Registry.name app
  in
  match !trace with
  | Some trace -> { trace; summary; machine }
  | None ->
      failwith
        (Printf.sprintf "trace run %s/%s: setup out of memory"
           entry.Registry.name app.Workload.Apps.name)

(** The golden-trace scenario: shared by `gcsim trace` defaults, `bench
    obs` and the snapshot tests in test/test_obs.ml, so all three
    reproduce the committed test/golden/*.trace streams byte-for-byte.
    lusearch is allocation-extreme (DaCapo's GC stress test), so every
    registered collector shows pauses and region churn within 600
    requests while the golden files stay tens of KB. *)
module Golden = struct
  let workload = "lusearch"
  let cores = 4
  let mult = 1.5
  let seed = 42
  let requests = 600

  let run ?verify entry =
    run ?verify ~cores ~mult ~seed ~requests entry
      (Workload.Apps.find workload)
end

(** Canonical metadata block for exporters: scenario parameters first
    (everything needed to reproduce the stream), then headline results. *)
let meta ~cores ~mult ~seed ~requests (r : result) =
  [
    ("collector", r.summary.Harness.collector);
    ("workload", r.summary.Harness.workload);
    ("cores", string_of_int cores);
    ("heap-mult", Printf.sprintf "%.2f" mult);
    ("seed", string_of_int seed);
    ("heap-bytes", string_of_int r.machine.Harness.heap_bytes);
    ("region-bytes", string_of_int r.machine.Harness.region_bytes);
    ("requests", string_of_int requests);
    ("events", string_of_int (Obs.Trace.length r.trace));
  ]
