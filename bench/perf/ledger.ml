(* Per-child accumulator: host timers and meters around calls into the
   public entry points, and — in the traced run — deterministic event
   counts taken at the seams the libraries already expose.  Keys are the
   per-layer metric names (Catalog) wherever a sum is reported as is. *)

module RtM = Runtime.Rt
module Tp = Runtime.Tracepoint

type t = {
  traced : bool;
  sums : (string, float) Hashtbl.t;
  mutable summaries : Experiments.Harness.summary list;  (** newest first *)
  mutable fingerprint : string;
  mutable first_run : string;  (** readable fingerprint fields of run 1 *)
}

let create ~traced =
  { traced; sums = Hashtbl.create 64; summaries = []; fingerprint = ""; first_run = "" }

let get t key = Option.value ~default:0. (Hashtbl.find_opt t.sums key)
let add t key v = Hashtbl.replace t.sums key (v +. get t key)
let addi t key n = add t key (float_of_int n)

(** Fold [line] into the unit fingerprint. *)
let fingerprint_extra t line =
  t.fingerprint <- Digest.to_hex (Digest.string (t.fingerprint ^ line))

(** Fold one simulation's exact end state into the unit fingerprint.
    Host-independent integers only: histogram percentiles are left out so
    a change of percentile definition is not mistaken for a behaviour
    change. *)
let fingerprint_run t rt (r : Runtime.Driver.result) =
  let busy = Sim.Engine.busy_ns rt.RtM.engine in
  let line =
    Printf.sprintf
      "now=%d completed=%d pauses=%d pause_ns=%d busy=%d/%d/%d alloc=%d uids=%d"
      (Sim.Engine.now rt.RtM.engine) r.Runtime.Driver.completed
      (Runtime.Metrics.pause_count rt.RtM.metrics)
      (Runtime.Metrics.cumulative_pause rt.RtM.metrics)
      (busy Sim.Engine.Mutator) (busy Sim.Engine.Gc) (busy Sim.Engine.Aux)
      rt.RtM.heap.Heap.Heap_impl.bytes_allocated (Heap.Gobj.uid_watermark ())
  in
  if t.first_run = "" then t.first_run <- line;
  fingerprint_extra t line

let ms_of_ns ns = float_of_int ns /. 1e6
let mib_of_bytes b = float_of_int b /. 1048576.

(** Hook a freshly prepared runtime's seams (traced runs only) and
    return the function that books its end-of-run totals.  Every seam is
    chained onto whatever observer is already installed (the trace
    recorder, the explorer's race detector), except the engine tracer,
    which has no getter: under the explorer ([explored]) it stays the
    detector's and wakeups go uncounted. *)
let attach t ~explored rt =
  if not t.traced then ignore
  else begin
    let barrier = ref 0 and alloc_failures = ref 0 and wakeups = ref 0 in
    let card = ref 0 and mark = ref 0 and forward = ref 0 and remset = ref 0 in
    let claims = ref 0 and releases = ref 0 in
    let c = rt.RtM.collector in
    rt.RtM.collector <-
      {
        c with
        RtM.store_barrier =
          (fun ~src ~field ~old_v ~new_v ->
            incr barrier;
            c.RtM.store_barrier ~src ~field ~old_v ~new_v);
        alloc_failure =
          (fun () ->
            incr alloc_failures;
            c.RtM.alloc_failure ());
      };
    let count = function
      | Tp.Pause { kind = "alloc-stall"; dur_ns; _ } ->
          add t "runtime.stalls" 1.;
          add t "runtime.stall_ms" (ms_of_ns dur_ns)
      | Tp.Pause { dur_ns; _ } ->
          add t "runtime.pauses" 1.;
          add t "runtime.pause_ms" (ms_of_ns dur_ns)
      | Tp.Request_end _ -> add t "runtime.requests" 1.
      | Tp.Evac_batch { objects; bytes } ->
          addi t "gc.evac_objects" objects;
          add t "gc.evac_mb" (mib_of_bytes bytes)
      | Tp.Boundary { boundary; _ } -> (
          match boundary with
          | "cycle-end" -> add t "gc.cycles" 1.
          | "mark-end" | "young-mark-end" -> add t "gc.mark_ends" 1.
          | "evac-end" -> add t "gc.evac_ends" 1.
          | "remset-scan" -> add t "gc.remset_scans" 1.
          | _ -> ())
      | _ -> ()
    in
    let metrics = rt.RtM.metrics in
    Runtime.Metrics.set_tracer metrics
      (Some
         (match metrics.Runtime.Metrics.tracer with
         | None -> count
         | Some f ->
             fun p ->
               count p;
               f p));
    let heap = rt.RtM.heap in
    let observer = heap.Heap.Heap_impl.on_region_event in
    Heap.Heap_impl.set_region_observer heap
      (Some
         (fun r ~claimed ->
           incr (if claimed then claims else releases);
           Option.iter (fun f -> f r ~claimed) observer));
    let logger = !(Heap.Access.hooks ()) in
    Heap.Access.set_hook
      (Some
         (fun op res ~key ~site ->
           (match res with
           | Heap.Access.Card -> incr card
           | Heap.Access.Mark_bit -> incr mark
           | Heap.Access.Forward | Heap.Access.Fwd_table -> incr forward
           | Heap.Access.Remset -> incr remset
           | Heap.Access.Region_ctl -> ());
           Option.iter (fun f -> f op res ~key ~site) logger));
    if not explored then
      Sim.Engine.set_tracer rt.RtM.engine
        (Some (function Sim.Engine.Woken _ -> incr wakeups | Sim.Engine.Spawned _ -> ()));
    Sampler.watch rt.RtM.engine;
    fun () ->
      let engine = rt.RtM.engine in
      addi t "runtime.barrier_calls" !barrier;
      addi t "runtime.alloc_failures" !alloc_failures;
      if not explored then addi t "sim.wakeups" !wakeups;
      addi t "heap.card_ops" !card;
      addi t "heap.mark_ops" !mark;
      addi t "heap.forward_ops" !forward;
      addi t "heap.remset_ops" !remset;
      addi t "heap.region_claims" !claims;
      addi t "heap.region_releases" !releases;
      addi t "sim.threads" (List.length (Sim.Engine.thread_info engine));
      add t "sim.busy_ms.mutator" (ms_of_ns (Sim.Engine.busy_ns engine Sim.Engine.Mutator));
      add t "sim.busy_ms.gc" (ms_of_ns (Sim.Engine.busy_ns engine Sim.Engine.Gc));
      add t "sim.busy_ms.aux" (ms_of_ns (Sim.Engine.busy_ns engine Sim.Engine.Aux));
      addi t "heap.objects_minted" (Heap.Gobj.uid_watermark ());
      add t "heap.alloc_mb" (mib_of_bytes heap.Heap.Heap_impl.bytes_allocated);
      let records, arrays, _, _ = Heap.Gobj.Pool.stats heap.Heap.Heap_impl.pool in
      addi t "heap.pool_records_reused" records;
      addi t "heap.pool_arrays_reused" arrays;
      Hashtbl.iter
        (fun key v ->
          if String.ends_with ~suffix:"cards_scanned" key then addi t "gc.cards_scanned" v)
        metrics.Runtime.Metrics.counters;
      Hashtbl.iter
        (fun _ (p : Runtime.Metrics.phase) ->
          add t "gc.phase_ms" (ms_of_ns p.Runtime.Metrics.total_ns))
        metrics.Runtime.Metrics.phases
  end
