(** LXR collector model (Zhao, Blackburn & McKinley, PLDI'22; §5
    baseline).

    LXR pairs deferred reference counting with occasional concurrent
    tracing and *stop-the-world* evacuation: most memory is reclaimed
    promptly in short, bounded RC-epoch pauses (here a young collection
    triggered by allocation volume plus the cost of processing the
    logged increments/decrements), while fragmentation is repaired by
    STW evacuation of sparse old regions whose pause grows with the live
    set — the behaviour Figure 7 contrasts with Jade (46 ms average
    pauses under the large heap).  Field-logging write barriers replace
    load barriers entirely. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(** RC epoch every this many allocated bytes. *)
let epoch_alloc_bytes = 12 * Util.Units.mib

(** RC epochs an object survives before promotion. *)
let tenure_age = 1

(** Start a concurrent trace above this heap occupancy. *)
let trace_trigger_occupancy = 0.55

(** Only old regions below this liveness become defrag candidates. *)
let defrag_live_threshold = 0.85

type t = {
  rt : RtM.t;
  remsets : Region_remsets.t;
  marker : Common.Marker.t;
  mutable rc_log : int;  (** pending increment/decrement log entries *)
  mutable last_epoch_bytes : int;
  mutable candidates : Region.t list;  (** defrag victims from the trace *)
  mutable urgent : bool;
}

(* RC epoch: process the logged field updates, then reclaim the young
   generation (and, when a concurrent trace has produced candidates, a
   defrag slice bounded only by free space — LXR pauses are not
   pause-target-bounded, which is why they grow with the live set). *)
let rc_epoch t ~defrag =
  let rt = t.rt in
  let costs = rt.RtM.costs in
  let old_cset =
    if defrag then begin
      (* Victims whose regions still qualify (garbage-first order). *)
      let good, _ =
        List.partition
          (fun (r : Region.t) ->
            r.Region.kind = Region.Old
            && (not r.Region.humongous)
            && not (Region.is_free r))
          t.candidates
      in
      t.candidates <- [];
      good
    end
    else []
  in
  let log = t.rc_log in
  t.rc_log <- 0;
  t.last_epoch_bytes <- rt.RtM.heap.Heap_impl.bytes_allocated;
  let pause_kind = if defrag then Metrics.Mixed_stw else Metrics.Rc_epoch in
  let failed =
    Stw_collect.collect rt ~remsets:t.remsets ~tenure_age
      ~old_cset ~pause_kind ()
  in
  (* The increment/decrement processing shares the same pause; bill it on
     the collector fiber inside... the pause has ended, so bill the log
     cost as part of epoch bookkeeping (small relative to copying). *)
  Sim.Engine.tick (log * costs.Costs.rc_process_ref / max 1 (Sim.Engine.cores rt.RtM.engine));
  Metrics.add rt.RtM.metrics "lxr.rc_log_processed" log;
  failed

(* Concurrent trace for cyclic garbage and defrag-candidate selection. *)
let run_trace t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  Common.Marker.cycle t.marker ~final:Metrics.Remark
    ~workers:Common.gc_threads ~at_final:(fun tk ->
      let cleared = Heap_impl.process_weak_refs_marked heap in
      Common.Ticker.tick tk (cleared * rt.RtM.costs.Costs.weak_ref_process);
      ignore (Common.reclaim_dead_humongous rt tk));
  let cands = ref [] in
  Array.iter
    (fun (r : Region.t) ->
      if
        r.Region.kind = Region.Old
        && (not r.Region.humongous)
        && r.Region.alloc_epoch < heap.Heap_impl.mark_epoch
        && Region.live_ratio r < defrag_live_threshold
      then cands := r :: !cands)
    heap.Heap_impl.regions;
  t.candidates <-
    List.sort
      (fun (a : Region.t) b ->
        compare (Region.garbage_bytes b) (Region.garbage_bytes a))
      !cands;
  Metrics.add rt.RtM.metrics "lxr.traces" 1;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end

let controller t () =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let since = heap.Heap_impl.bytes_allocated - t.last_epoch_bytes in
  if t.urgent || since >= epoch_alloc_bytes then begin
    t.urgent <- false;
    let failed = rc_epoch t ~defrag:(t.candidates <> []) in
    if failed || Common.below_low_watermark rt then begin
      if t.candidates = [] then run_trace t;
      let failed2 = rc_epoch t ~defrag:true in
      if failed2 || Common.below_low_watermark rt then
        Common.full_gc_or_oom rt
    end
  end
  else if
    t.candidates = []
    && Heap_impl.occupancy heap >= trace_trigger_occupancy
    && not t.marker.Common.Marker.active
  then run_trace t
  else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

let install rt =
  let heap = rt.RtM.heap in
  let t =
    {
      rt;
      remsets = Region_remsets.create heap;
      marker = Common.Marker.create rt;
      rc_log = 0;
      last_epoch_bytes = 0;
      candidates = [];
      urgent = false;
    }
  in
  (* Verifier metadata: field-logging barriers insert remset entries
     inline, with no dirty-card backup — the per-target-region remsets
     are the sole old→young coverage source. *)
  RtM.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "lxr.remsets";
      rp_covers =
        (fun () ->
          Some
            (fun ~card ~target_rid ->
              match Region_remsets.get t.remsets target_rid with
              | Some rs -> Remset.mem rs card
              | None -> false));
    };
  let costs = rt.RtM.costs in
  let store_barrier ~src ~field ~old_v ~new_v =
    (* Field-logging RC barrier on every reference store; it also feeds
       a running trace's SATB queue, at no extra cost. *)
    Sim.Engine.tick costs.Costs.rc_barrier;
    t.rc_log <- t.rc_log + 1;
    if old_v != Gobj.null then Common.Marker.satb_enqueue t.marker old_v;
    if new_v != Gobj.null && Gobj.region new_v <> Gobj.region src then
      Stw_collect.barrier_insert rt t.remsets ~src ~field ~child:new_v
  in
  Common.install rt ~name:"lxr" ~store_barrier ~load_extra_cost:0
    ~mutator_tax_pct:0
    ~on_alloc_failure:(fun () -> t.urgent <- true)
    [ ("lxr-controller", controller t) ];
  t
