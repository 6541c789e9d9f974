(** The Jade collector: co-running young and old controllers, combined
    write barrier, allocation-failure policy, chasing mode and the
    full-GC last resort (§3–4). *)

open Heap
module RtM = Runtime.Rt
module Common = Collectors.Common
module Metrics = Runtime.Metrics

type t = {
  rt : RtM.t;
  config : Jade_config.t;
  young : Young.t;
  old_gc : Old.t;
  mutable young_urgent : bool;
  mutable old_urgent : bool;
  mutable full_requested : bool;
  mutable young_failures : int;  (** consecutive, triggers full GC (§4.3) *)
}

let full_gc t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  (* A compaction moves everything: group remsets, the old-to-young
     remembered set and the CRDT all go stale.  Rebuild old-to-young from
     the surviving references; the others are per-cycle anyway. *)
  Remset.clear t.young.Young.remset;
  Array.iter Remset.clear t.old_gc.Old.group_remsets;
  Crdt.reset t.old_gc.Old.crdt;
  let on_live_ref (holder : Gobj.t) i (child : Gobj.t) =
    let child = Gobj.resolve child in
    if Heap_impl.is_old heap holder && Heap_impl.is_young heap child then
      ignore
        (Remset.add t.young.Young.remset
           (Heap_impl.card_of_field heap holder i))
  in
  Common.full_gc_or_oom ~on_live_ref rt;
  Metrics.add rt.RtM.metrics "jade.full_gcs" 1

(** Young GC when young regions exceed heap/[young_budget_fraction]. *)
let young_budget_fraction = 4

(** Start an old cycle above this old-generation occupancy. *)
let old_trigger_occupancy = 0.45

(* Young controller: §4.1.  Chasing mode also applies here — a stalled
   mutator's core goes to young evacuation. *)
let young_controller t () =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let budget = Int.max 4 (Heap_impl.num_regions heap / young_budget_fraction) in
  if t.full_requested then begin
    if not t.old_gc.Old.cycle_running then begin
      t.full_requested <- false;
      full_gc t
    end
    else Sim.Engine.sleep rt.RtM.engine Common.poll_interval
  end
  else if
    t.young_urgent
    || Common.young_count rt >= budget
    (* Keep enough headroom that the next young evacuation still has
       destination regions — critical on small heaps. *)
    || Heap_impl.free_regions heap
       <= Int.max 4 (Heap_impl.num_regions heap / 8)
       && Common.young_count rt > 0
  then begin
    t.young_urgent <- false;
    let workers =
      if t.config.chasing_mode && rt.RtM.stalled_mutators > 0 then
        Sim.Engine.cores rt.RtM.engine
      else t.config.young_workers
    in
    let ok = Young.collect t.young ~workers in
    if ok && not (Common.below_low_watermark rt) then
      t.young_failures <- 0
    else begin
      t.young_failures <- t.young_failures + 1;
      (* Ask the old collector to hurry; consecutive starved collections
         are the paper's full-GC trigger (§4.3). *)
      t.old_urgent <- true;
      if t.young_failures >= 3 then t.full_requested <- true
    end
  end
  else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

let old_controller t =
  let last_cycle_bytes = ref 0 in
  fun () ->
    let rt = t.rt in
    let heap = rt.RtM.heap in
    (* Proactive rule (as in generational ZGC): even without occupancy
       pressure, run an old cycle once a heap's worth of allocation has
       passed — it is what finds slow old garbage on quiet workloads. *)
    let proactive =
      heap.Heap_impl.bytes_allocated - !last_cycle_bytes
      > heap.Heap_impl.cfg.heap_bytes
      && Common.old_occupancy rt > 0.15
    in
    if
      (t.old_urgent
      || Common.old_occupancy rt >= old_trigger_occupancy
      || proactive
      || Heap_impl.free_regions heap
         <= Int.max 4 (Heap_impl.num_regions heap / 8)
         && Common.old_occupancy rt > 0.2)
      && not t.full_requested
    then begin
      t.old_urgent <- false;
      last_cycle_bytes := heap.Heap_impl.bytes_allocated;
      let ok = Old.run_cycle t.old_gc in
      if not ok then t.full_requested <- true
    end
    else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

let install ?(config = Jade_config.default) rt =
  let young = Young.create ~config rt in
  let old_gc = Old.create ~config ~young rt in
  young.Young.old_cycle_running <- (fun () -> old_gc.Old.cycle_running);
  (* Correctness-tooling metadata: how the verifier judges old→young
     coverage and mark/CRDT agreement for this collector.  Coverage is
     remset ∪ dirty card (the dirty bit is the barrier's backup until the
     next build cleans it); it cannot be judged mid-old-cycle, where
     remset maintenance has in-flight windows. *)
  RtM.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "jade.old2young";
      rp_covers =
        (fun () ->
          if old_gc.Old.cycle_running then None
          else
            Some
              (fun ~card ~target_rid:_ ->
                Remset.mem young.Young.remset card
                || Heap_impl.card_is_dirty rt.RtM.heap card));
    };
  RtM.register_crdt_source rt ~collector:"jade" old_gc.Old.crdt;
  young.Young.promoted_old_ref <-
    Some
      (fun o' i child ->
        if old_gc.Old.current_group >= 0 then begin
          let g =
            (Heap_impl.region rt.RtM.heap (Gobj.region child)).Region.group
          in
          if g >= old_gc.Old.current_group then
            ignore
              (Remset.add old_gc.Old.group_remsets.(g)
                 (Heap_impl.card_of_field rt.RtM.heap o' i))
        end);
  let t =
    {
      rt;
      config;
      young;
      old_gc;
      young_urgent = false;
      old_urgent = false;
      full_requested = false;
      young_failures = 0;
    }
  in
  let markers = [ old_gc.Old.marker ] in
  Common.install rt ~name:"jade"
    ~store_barrier:(fun ~src ~field ~old_v ~new_v ->
      Common.Marker.pre_write markers old_v;
      Young.barrier young ~src ~field ~new_v;
      Old.barrier old_gc ~src ~field ~new_v)
    ~load_extra_cost:Costs.fwd_check_load_extra
    ~mutator_tax_pct:
      (if config.compressed_oops then 0
       else Costs.compressed_oops_tax_pct)
    ~on_alloc_failure:(fun () -> t.young_urgent <- true)
    [
      ("jade-young-controller", young_controller t);
      ("jade-old-controller", old_controller t);
    ];
  t
