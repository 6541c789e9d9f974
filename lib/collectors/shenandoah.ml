(** Shenandoah collector model (Flood et al., §2.3).

    Heap-wise three-phase concurrent cycle: concurrent SATB marking over
    the whole heap, concurrent evacuation of a collection set bounded by
    the available free space, and a concurrent update-references pass
    that walks *every* live object — memory is released only after all
    three phases finish, which is exactly the long pre-reclamation cycle
    the paper analyses (§2.3).  Allocation failure during a cycle
    degenerates it: the remaining phases complete inside one
    stop-the-world pause, and a full compaction follows if even that
    cannot free memory. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(** Start a cycle above this heap occupancy. *)
let trigger_occupancy = 0.55

type t = {
  rt : RtM.t;
  config : Common.old_config;
  marker : Common.Marker.t;
  candidates : Region.t Util.Vec.t;
      (** the mark's relocation candidates, then the collection set in
          claim order *)
  all_regions : Region.t Util.Vec.t;  (** every region, in rid order *)
  mutable cycle_running : bool;
  mutable degen_requested : bool;
  mutable urgent : bool;
}

(** A Shenandoah instance on [rt], without a controller (GenShen drives
    its own). *)
let create ?(config = Common.whole_heap) rt =
  let all_regions = Common.region_buffer () in
  Array.iter (Util.Vec.push all_regions) rt.RtM.heap.Heap_impl.regions;
  {
    rt;
    config;
    marker = Common.Marker.create rt;
    candidates = Common.region_buffer ();
    all_regions;
    cycle_running = false;
    degen_requested = false;
    urgent = false;
  }

(** Allocation failed: a running cycle degenerates at its next
    checkpoint. *)
let request_degeneration t = if t.cycle_running then t.degen_requested <- true

(* ------------------------------------------------------------------ *)
(* Collection-set selection (final mark).                               *)

(* Narrow [t.candidates] to the collection set, in claim order: the
   candidates taken, last taken first. *)
let select_cset t =
  let heap = t.rt.RtM.heap in
  let cset = t.candidates in
  (* Evacuation needs destination space: bound the cset's live bytes by
     the free space (§2.3: "the number of objects collected in each GC
     cycle is restricted by the remaining free space size"). *)
  let budget =
    ref (Heap_impl.free_regions heap * heap.Heap_impl.cfg.region_bytes * 9 / 10)
  in
  Common.relocation_candidates t.rt t.config cset;
  let n = ref 0 in
  for i = 0 to Util.Vec.length cset - 1 do
    let r = Util.Vec.get cset i in
    if r.Region.live_bytes <= !budget then begin
      budget := !budget - r.Region.live_bytes;
      r.Region.in_cset <- true;
      Util.Vec.set cset !n r;
      incr n
    end
  done;
  Util.Vec.truncate cset !n;
  for i = 0 to (!n / 2) - 1 do
    let r = Util.Vec.get cset i in
    Util.Vec.set cset i (Util.Vec.get cset (!n - 1 - i));
    Util.Vec.set cset (!n - 1 - i) r
  done

(* ------------------------------------------------------------------ *)
(* Cycle.                                                               *)

let release_cset t tk =
  Util.Vec.iter (Common.release_region t.rt tk) t.candidates;
  Metrics.add t.rt.RtM.metrics "shen.regions_reclaimed"
    (Util.Vec.length t.candidates);
  RtM.notify_memory_freed t.rt

let evac_hook t _ _ copy = t.config.Common.copy_hook copy

(* Finish the rest of a degenerated cycle inside one STW pause; returns
   true when even the degenerated evacuation failed (full GC needed). *)
let degenerate t ~evac_rest ~update_rest =
  let rt = t.rt in
  Metrics.add rt.RtM.metrics "shen.degenerated" 1;
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Degenerated (fun () ->
      let tk = Common.stw_ticker rt in
      let dest = Common.Evac.make_dest rt Region.Old in
      let pick _ = dest in
      let failed =
        match
          List.iter
            (Common.Evac.evacuate_region rt ~after:(evac_hook t) ~pick tk)
            evac_rest
        with
        | () -> false
        | exception Common.Evac.Evacuation_failure -> true
      in
      if not failed then begin
        List.iter
          (fun (r : Region.t) ->
            if (not (Region.is_free r)) && not r.Region.in_cset then
              Common.update_refs_in_region rt tk r)
          update_rest;
        RtM.update_roots rt;
        release_cset t tk
      end
      else Common.abandon_cset t.candidates;
      Common.Ticker.flush tk;
      failed)

let run_cycle t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  t.cycle_running <- true;
  t.degen_requested <- false;
  let now () = Sim.Engine.now rt.RtM.engine in
  let stop () = t.degen_requested in
  let after = evac_hook t in
  Metrics.phase_begin metrics "shen.cycle" ~now:(now ());
  (* 1-3. Init mark (STW), concurrent mark, final mark (STW): terminate
     marking, process weak refs, select the collection set. *)
  Common.Marker.cycle t.marker ~retire_tlabs:true ~phase:"shen.mark"
    ~final:Metrics.Final_mark ~workers:Common.gc_threads
    ~at_final:(fun tk ->
      let cleared = Heap_impl.process_weak_refs_marked heap in
      Common.Ticker.tick tk (cleared * Costs.weak_ref_process);
      select_cset t);
  (* 4. Concurrent evacuation. *)
  Metrics.phase_begin metrics "shen.evac" ~now:(now ());
  let evac_rest, evac_failed =
    Common.parallel_drain rt ~n:Common.gc_threads ~name:"shen-evac" ~stop
      ~init:(fun _ ->
        let dest = Common.Evac.make_dest rt Region.Old in
        fun _ -> dest)
      t.candidates
      (fun pick tk r -> Common.Evac.evacuate_region rt ~after ~pick tk r)
  in
  Metrics.phase_end metrics "shen.evac" ~now:(now ());
  let finish_ok =
    if evac_failed || t.degen_requested then begin
      let failed =
        degenerate t ~evac_rest ~update_rest:(Util.Vec.to_list t.all_regions)
      in
      if failed then
        Common.full_gc_or_oom ~on_live_ref:Common.nothing_to_rebuild rt;
      false
    end
    else begin
      (* 5. Concurrent update-refs over every live region. *)
      Metrics.phase_begin metrics "shen.update_refs" ~now:(now ());
      let update_rest, _ =
        Common.parallel_drain rt ~n:Common.gc_threads ~name:"shen-update"
          ~stop ~init:ignore t.all_regions
          (fun () tk (r : Region.t) ->
            if (not (Region.is_free r)) && not r.Region.in_cset then
              Common.update_refs_in_region rt tk r)
      in
      Metrics.phase_end metrics "shen.update_refs" ~now:(now ());
      if t.degen_requested then begin
        let failed = degenerate t ~evac_rest:[] ~update_rest in
        if failed then
          ignore
            (Common.stw_full_compact ~on_live_ref:Common.nothing_to_rebuild
               rt);
        false
      end
      else true
    end
  in
  (* 6. Final update-refs (STW): fix roots, release the cset. *)
  if finish_ok then
    Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
        let tk = Common.stw_ticker rt in
        RtM.update_roots rt;
        release_cset t tk;
        Common.Ticker.flush tk;
        RtM.fire_phase rt Runtime.Vhook.Evac_end);
  Metrics.phase_end metrics "shen.cycle" ~now:(now ());
  Metrics.add metrics "shen.cycles" 1;
  t.cycle_running <- false;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end

(* ------------------------------------------------------------------ *)
(* Controller and plumbing.                                             *)

let controller t () =
  let rt = t.rt in
  if t.urgent || Heap_impl.occupancy rt.RtM.heap >= trigger_occupancy then begin
    t.urgent <- false;
    run_cycle t;
    (* Escalate if the cycle made no usable progress while mutators are
       starving: full GC, then OOM. *)
    if rt.RtM.stalled_mutators > 0 && Common.below_low_watermark rt then
      Common.full_gc_or_oom ~on_live_ref:Common.nothing_to_rebuild rt
  end
  else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

let install rt =
  let t = create rt in
  let markers = [ t.marker ] in
  Common.install rt ~name:"shenandoah"
    ~store_barrier:(fun ~src:_ ~field:_ ~old_v ~new_v:_ ->
      Common.Marker.pre_write markers old_v)
    ~load_extra_cost:Costs.fwd_check_load_extra ~mutator_tax_pct:0
    ~on_alloc_failure:(fun () ->
      t.urgent <- true;
      request_degeneration t)
    [ ("shen-controller", fun _ -> controller t) ];
  t
