(** ZGC collector model (§2.4).

    Region-wise incremental collection: a whole-heap concurrent marking
    phase (with colored-pointer costs: an atomic recolor per object and
    remapping of every stale reference it meets), then concurrent
    relocation where each region is released *immediately* after its live
    objects are copied out — the forwarded from-space records keep the
    old-to-new mappings alive until the next cycle remaps (ZGC keeps
    them in off-heap forwarding tables, whose footprint is billed as
    [zgc.forwarding_bytes]).  There is no
    degenerated mode: when allocation fails, the mutator stalls until
    relocation frees a region (§2.2 observed this "has the same effect as
    a pause").  Colored pointers enlarge the address space 16x and defeat
    compressed references, billed as a mutator tax (§2.4). *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(** Start a cycle above this heap occupancy. *)
let trigger_occupancy = 0.50

type t = {
  rt : RtM.t;
  config : Common.old_config;
  marker : Common.Marker.t;
  candidates : Region.t Util.Vec.t;  (** the cycle's relocation set *)
  mutable urgent : bool;
}

(** A ZGC instance on [rt], without a controller (GenZ drives its own). *)
let create ?(config = Common.whole_heap) rt =
  {
    rt;
    config;
    marker = Common.Marker.create ~remap:true ~atomic_cost:true rt;
    candidates = Common.region_buffer ();
    urgent = false;
  }

let run_cycle t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  let now () = Sim.Engine.now rt.RtM.engine in
  Metrics.phase_begin metrics "zgc.cycle" ~now:(now ());
  (* Pause Mark Start, concurrent mark, Pause Mark End.  The concurrent
     mark remaps every stale reference it encounters, so the previous
     cycle's forwarded records are named by nothing afterwards. *)
  Common.Marker.cycle t.marker ~retire_tlabs:true ~phase:"zgc.mark"
    ~final:Metrics.Final_mark ~workers:Common.gc_threads
    ~at_final:(fun tk ->
      RtM.update_roots rt;
      let cleared = Heap_impl.process_weak_refs_marked heap in
      Common.Ticker.tick tk (cleared * Costs.weak_ref_process));
  let forwarding_bytes = ref 0 in
  (* Concurrent relocation: each region is freed the moment its live
     objects are out — this is the incremental reclamation G1/Shenandoah
     lack, and the reason ZGC stalls rather than degenerates. *)
  Metrics.phase_begin metrics "zgc.relocate" ~now:(now ());
  let after _ _ copy = t.config.Common.copy_hook copy in
  Common.relocation_candidates rt t.config t.candidates;
  let _, out_of_space =
    Common.parallel_drain rt ~n:Common.gc_threads ~name:"zgc-relocate"
      ~init:(fun _ ->
        let dest = Common.Evac.make_dest rt Region.Old in
        fun _ -> dest)
      t.candidates
      (fun pick tk r ->
        Common.Evac.evacuate_region rt ~after ~pick tk r;
        let entries = ref 0 in
        Util.Vec.iter
          (fun (o : Gobj.t) ->
            if Gobj.is_forwarded o then begin
              incr entries;
              (* Roots and heap slots keep naming the old copy until the
                 next cycle's mark remaps them. *)
              Gobj.set_flag o Gobj.flag_unremapped
            end)
          r.Region.objects;
        (* ZGC's off-heap table for this region: a fixed header plus
           one entry per forwarded object. *)
        forwarding_bytes := !forwarding_bytes + 32 + (24 * !entries);
        Metrics.add rt.RtM.metrics "zgc.reclaimed_bytes" r.Region.top;
        Common.release_region rt tk r;
        Common.Ticker.flush tk;
        RtM.notify_memory_freed rt)
  in
  if not out_of_space then RtM.fire_phase rt Runtime.Vhook.Evac_end;
  Metrics.phase_end metrics "zgc.relocate" ~now:(now ());
  Metrics.phase_end metrics "zgc.cycle" ~now:(now ());
  Metrics.add metrics "zgc.cycles" 1;
  Metrics.add metrics "zgc.forwarding_bytes" !forwarding_bytes;
  (* Relocation wedged with no free destination: compact under STW and
     declare OOM if even that cannot free memory (ZGC would stall
     forever; we bound the simulation the way Table 4 reports OOMs). *)
  if out_of_space then
    Common.full_gc_or_oom ~on_live_ref:Common.nothing_to_rebuild rt;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end

let controller t () =
  let rt = t.rt in
  if t.urgent || Heap_impl.occupancy rt.RtM.heap >= trigger_occupancy then begin
    t.urgent <- false;
    run_cycle t
  end
  else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

let install rt =
  let t = create rt in
  let markers = [ t.marker ] in
  Common.install rt ~name:"zgc"
    ~store_barrier:(fun ~src:_ ~field:_ ~old_v ~new_v:_ ->
      Common.Marker.pre_write markers old_v)
    ~load_extra_cost:Costs.colored_load_extra
    ~mutator_tax_pct:Costs.compressed_oops_tax_pct
    ~on_alloc_failure:(fun () ->
      (* No degenerated mode: stall until relocation frees something. *)
      t.urgent <- true)
    [ ("zgc-controller", controller t) ];
  t
