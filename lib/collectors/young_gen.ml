(** Shared young-generation machinery for the generational baselines
    (GenShen §2.5, GenZ §2.5) and reused by Jade's heap layout (§4.1).

    Maintains the old-to-young remembered set (one bit per 512-byte card
    of old-generation memory that may hold references to young objects)
    and provides a *concurrent* young collection:

      STW init  — snapshot young regions, scan roots and old-to-young
                  cards as young roots;
      concurrent young marking (scope: young regions only);
      STW final — drain the write-barrier queue;
      concurrent evacuation of every young region, promoting objects past
      the tenuring age to the old generation;
      (GenShen style) a reference-update pass over survivors, remembered
      cards and roots — or (GenZ style) lazy healing via load barriers.

    The evacuation records new old-to-young remembered-set entries when a
    promoted object still references young survivors. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

type style = Update_refs_phase | Lazy_healing

type t = {
  rt : RtM.t;
  remset : Remset.t;  (** old-to-young, card granularity *)
  tenure : Common.Evac.tenure;
  style : style;
  atomic_cost : bool;  (** colored-pointer cost during young marking *)
  marker : Common.Marker.t;
  snapshot : Region.t Util.Vec.t;  (** the cycle's young regions *)
  survivors : Region.t Util.Vec.t;  (** the survivor regions update-refs fixes *)
  mutable young_cycle_active : bool;
}

(** Young collections an object survives before promotion. *)
let tenure_age = 1

let create ?(atomic_cost = false) ~style rt =
  let heap = rt.RtM.heap in
  let t =
    {
      rt;
      remset =
        Remset.create ~name:"old2young"
          ~total_cards:(Heap_impl.total_cards heap);
      tenure = Common.Evac.tenure rt ~age:tenure_age;
      style;
      atomic_cost;
      marker = Common.Marker.create ~gen:Common.Marker.Young_gen ~atomic_cost rt;
      snapshot = Common.region_buffer ();
      survivors = Common.region_buffer ();
      young_cycle_active = false;
    }
  in
  (* Verifier metadata: the card remset is the sole old→young coverage
     source for the generational baselines (no dirty-card backup). *)
  RtM.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "young_gen.old2young";
      rp_covers =
        (fun () -> Some (fun ~card ~target_rid:_ -> Remset.mem t.remset card));
    };
  t

(** Write-barrier hook: remember old-to-young stores; during a young
    cycle also gray the stored value so concurrently created references
    are not lost. *)
let barrier t ~(src : Gobj.t) ~field ~(new_v : Gobj.t) =
  let heap = t.rt.RtM.heap in
  (* Null first: the sentinel's region id (-1) must never be looked up. *)
  if
    new_v != Gobj.null
    && Heap_impl.is_old heap src
    && Heap_impl.is_young heap new_v
  then begin
    Sim.Engine.tick Costs.card_barrier;
    ignore (Remset.add t.remset (Heap_impl.card_of_field heap src field));
    if t.young_cycle_active then begin
      Gobj.set_flag new_v Gobj.flag_satb_logged;
      Util.Vec.push t.marker.Common.Marker.satb new_v
    end
  end

(* Scan the old-to-young remembered set, graying young targets.  Cards
   that no longer hold any old-to-young reference are pruned. *)
let scan_remset_roots t tk =
  let heap = t.rt.RtM.heap in
  let prune = ref [] in
  (* Built once per scan, not per card. *)
  let found = ref false in
  let gray_slot () o i =
    let child = Gobj.live_target (Gobj.get_field o i) in
    if child != Gobj.null && Heap_impl.is_young heap child then begin
      found := true;
      Common.Marker.gray t.marker child
    end
  in
  Remset.iter
    (fun card ->
      Common.Ticker.tick tk Costs.card_scan;
      let holder_r = Heap_impl.region heap (Heap_impl.card_to_region heap card) in
      if holder_r.Region.kind <> Region.Old then prune := card :: !prune
      else begin
        found := false;
        Heap_impl.scan_card heap card () ~f:gray_slot;
        if not !found then prune := card :: !prune
      end)
    t.remset;
  List.iter (fun card -> Remset.remove t.remset card) !prune

(* Young evacuation's post-copy hook: survivors stay young and count
   toward survivor overflow; a promoted copy may still point at young
   objects (possibly via stale refs — their copies are also young), so
   its new location gets remembered-set entries. *)
let after_copy t tk (o : Gobj.t) (o' : Gobj.t) =
  let heap = t.rt.RtM.heap in
  if Heap_impl.is_young heap o' then
    t.tenure.survivors <- t.tenure.survivors + Gobj.size o
  else begin
    Metrics.add t.rt.RtM.metrics "young.promoted_bytes" (Gobj.size o);
    (* [Gobj.iter_fields] spelled out: its callback would be a fresh
       closure over [o'] per promoted object. *)
    for i = 0 to Gobj.num_fields o' - 1 do
      let child = Gobj.resolve (Gobj.get_field o' i) in
      if child != Gobj.null && Heap_impl.is_young heap child then begin
        Common.Ticker.tick tk Costs.remset_insert;
        ignore (Remset.add t.remset (Heap_impl.card_of_field heap o' i))
      end
    done
  end

(** Run one concurrent young collection.  Returns false on evacuation
    failure (caller escalates). *)
let collect t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  let now () = Sim.Engine.now rt.RtM.engine in
  t.young_cycle_active <- true;
  t.tenure.survivors <- 0;
  Metrics.phase_begin metrics "young.cycle" ~now:(now ());
  (* Init (STW) snapshots the young regions and grays the roots and the
     remembered set; the young mark then runs concurrently. *)
  Common.Marker.cycle t.marker ~retire_tlabs:true ~phase:"young.mark"
    ~at_init:(fun () ->
      Common.snapshot_young rt t.snapshot;
      RtM.fire_phase rt Runtime.Vhook.Remset_scan)
    ~at_roots:(scan_remset_roots t) ~final:Metrics.Final_mark
    ~workers:Common.gc_threads;
  (* Concurrent evacuation over the snapshot: survivors stay young,
     objects past the tenuring age are promoted. *)
  Metrics.phase_begin metrics "young.evac" ~now:(now ());
  let after = after_copy t in
  let _, failed =
    Common.parallel_drain rt ~n:Common.gc_threads ~name:"young-evac"
      ~init:(fun _ ->
        let dest_young = Common.Evac.make_dest rt Region.Young in
        let dest_old = Common.Evac.make_dest rt Region.Old in
        fun o ->
          if Common.Evac.promotes t.tenure o then dest_old else dest_young)
      t.snapshot
      (fun pick tk r ->
        Common.Evac.evacuate_region rt ~live:Common.Evac.Young_mark ~after
          ~pick tk r)
  in
  Metrics.phase_end metrics "young.evac" ~now:(now ());
  if not failed then begin
    (* Reference updating: eager pass (GenShen) or left to load-barrier
       healing and the next marking cycle (GenZ). *)
    (match t.style with
    | Lazy_healing ->
        Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
            RtM.update_roots rt)
    | Update_refs_phase ->
        Metrics.phase_begin metrics "young.update_refs" ~now:(now ());
        (* Snapshot the survivor regions now: later-allocated eden heals
           lazily through the load barrier, exactly as in GenShen —
           chasing live allocation here would never terminate. *)
        let regions = heap.Heap_impl.regions in
        Util.Vec.clear t.survivors;
        for i = 0 to Array.length regions - 1 do
          let r = regions.(i) in
          if
            (not (Region.is_free r))
            && r.Region.kind = Region.Young
            && not r.Region.in_cset
          then Util.Vec.push t.survivors r
        done;
        Common.run_workers rt ~n:Common.gc_threads ~name:"young-update" (fun w tk ->
            (* Fix the remembered cards and the survivor regions. *)
            if w = 0 then
              Remset.iter (fun card -> Common.update_refs_in_card rt tk card)
                t.remset
            else if w = 1 then
              Util.Vec.iter
                (fun (r : Region.t) ->
                  if not (Region.is_free r) then
                    Common.update_refs_in_region rt tk r)
                t.survivors);
        Metrics.phase_end metrics "young.update_refs" ~now:(now ());
        Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
            RtM.update_roots rt));
    (* Release the collected young regions. *)
    let tk = Common.Ticker.create () in
    Util.Vec.iter
      (fun (r : Region.t) ->
        Metrics.add metrics "young.reclaimed_bytes" r.Region.top;
        Common.release_region rt tk r)
      t.snapshot;
    Common.Ticker.flush tk;
    let cleared = Heap_impl.process_weak_refs_freed_only heap in
    Metrics.add metrics "young.weak_cleared" cleared;
    Metrics.add metrics "young.collections" 1;
    RtM.notify_memory_freed rt;
    RtM.fire_phase rt Runtime.Vhook.Evac_end
  end
  else Common.abandon_cset t.snapshot;
  Metrics.phase_end metrics "young.cycle" ~now:(now ());
  t.young_cycle_active <- false;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end;
  not failed
