(** Experiment runners shared by the benchmark suite: heap sizing from a
    minimum-heap anchor, one run of a registered collector, and the
    critical-throughput (throughput under a latency SLO) search.  A
    sweep's independent cells fan out with {!Util.Dpool.map_list}. *)

let mib = Util.Units.mib
let ms = Util.Units.ms

(* Runtimes of the whole benchmark suite are dominated by virtual-seconds
   simulated; these windows keep a full run tractable while leaving
   throughput estimates within a few percent of longer runs. *)
let warmup = 150 * ms
let duration = 600 * ms

(** Minimum-heap anchor (the paper measures ZGC's minimum heap per
    application and expresses all configurations as multiples of it; we
    use the analytic equivalent: live set plus the headroom a concurrent
    collector needs to avoid constant full GCs). *)
let min_heap (app : Workload.Apps.t) =
  let live = app.Workload.Apps.spec.Workload.Spec.live_bytes in
  (* 1.4x the live set, with a fixed floor: small heaps carry the same
     per-collection overheads (in-flight requests, evacuation headroom,
     allocation buffers) that a measured minimum heap would include. *)
  max (live * 7 / 5) (live + (4 * mib))

let machine_for ?(cores = 8) (app : Workload.Apps.t) ~mult =
  (* Saturate rather than overflow: a heap past [max_int] bytes is one
     the layout check ({!Heap.Heap_impl.layout_error}) rejects. *)
  let heap_bytes =
    let x = float_of_int (min_heap app) *. mult in
    max (4 * mib) (if x >= float_of_int max_int then max_int else int_of_float x)
  in
  (* Region granularity must track the heap: a 2,000-region production
     heap and a tiny DaCapo heap should both have enough regions for the
     collectors' policies to be meaningful.  Pick the largest power of two
     in [64 KiB, 512 KiB] that yields at least 48 regions. *)
  let region_bytes =
    let rec fit candidate =
      if candidate <= 64 * Util.Units.kib then 64 * Util.Units.kib
      else if heap_bytes / candidate >= 48 then candidate
      else fit (candidate / 2)
    in
    fit (512 * Util.Units.kib)
  in
  let heap_bytes = heap_bytes / region_bytes * region_bytes in
  { Harness.default_machine with Harness.heap_bytes; region_bytes; cores }

(** One run of [e] on [app] at [mult] times its minimum heap, under
    [mode] ({!Harness.run}), with this module's warmup and duration
    windows by default. *)
let run ?cores ?(warmup = warmup) ?(duration = duration) (e : Registry.entry)
    app ~mult ~mode =
  Harness.run
    ~machine:(machine_for ?cores app ~mult)
    ~warmup ~duration ~mode ~install:e.Registry.install
    ~collector:e.Registry.name app

(** Critical throughput: the largest offered load whose p99 latency stays
    within [slo] (Specjbb2015's critical-jops metric).  Sweeps fractions
    of the measured peak. *)
let critical_throughput ?cores (e : Registry.entry) app ~mult ~slo
    ~(peak : float) =
  let fractions = [ 0.4; 0.6; 0.8; 0.95 ] in
  let best = ref 0. in
  List.iter
    (fun f ->
      let qps = peak *. f in
      if qps > !best then begin
        (* A longer warmup lets the tight-heap configurations get past
           their startup promotion churn before measuring the SLO. *)
        let s =
          run ?cores ~warmup:(400 * ms) e app ~mult
            ~mode:(Runtime.Driver.Open qps)
        in
        if
          s.Harness.oom = None
          && s.Harness.p99_latency <= slo
          && float_of_int s.Harness.completed
             >= 0.8 *. qps *. Util.Units.to_sec duration
        then best := qps
      end)
    fractions;
  !best
