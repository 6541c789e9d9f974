(** What G1 and LXR share: the stop-the-world evacuating pause, the
    remembered-set insertion rule, the garbage-first old candidates and
    the full GC that rebuilds the region remembered sets.

    A pause collects a *collection set* — every young region plus an
    optional slice of old regions: trace from the roots and
    from the cset regions' remembered sets, copying each reachable cset
    object on first visit (young survivors to survivor regions or, past
    the tenuring age, to old; old cset objects to old), fixing references
    as the trace goes, then release the whole cset.

    Liveness inside the cset is defined by the trace itself; remembered
    sets make the trace sound without scanning non-cset old regions. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(* Should stores out of this region be remembered?  Old holders are not
   re-traced by young collections. *)
let remember_from (r : Region.t) = r.Region.kind = Region.Old

(** The write-barrier insertion rule shared by G1 and LXR: remember
    cross-region references from old holders. *)
let barrier_insert rt remsets ~(src : Gobj.t) ~field ~(child : Gobj.t) =
  let heap = rt.RtM.heap in
  if Gobj.region child <> Gobj.region src then begin
    let src_r = Heap_impl.region heap (Gobj.region src) in
    if remember_from src_r then begin
      Sim.Engine.tick Costs.remset_barrier;
      Region_remsets.add remsets ~target_rid:(Gobj.region child)
        ~card:(Heap_impl.card_of_field heap src field)
    end
  end

(** Run one collection pause.  [old_cset] must be old regions chosen by
    the caller's policy (empty for a young-only GC).  [cset] is the
    caller's buffer for the collection set: the young regions in rid
    order, then [old_cset], walked from the end.  Returns true when
    evacuation ran out of space: nothing was released and the caller
    must fall back to a full compaction. *)
let collect rt ~(remsets : Region_remsets.t) ~tenure_age ~cset
    ~(old_cset : Region.t list) ?(extra_roots = []) ~pause_kind () =
  let heap = rt.RtM.heap in
  Runtime.Safepoint.stw rt.RtM.safepoint pause_kind (fun () ->
      RtM.retire_all_tlabs rt;
      (* STW pause work is shared by parallel GC workers on the idle
         cores; see {!Common.Ticker}. *)
      let tk = Common.stw_ticker rt in
      Common.snapshot_young rt cset;
      List.iter
        (fun (r : Region.t) ->
          if r.Region.kind <> Region.Old then
            failwith
              (Printf.sprintf
                 "stw_collect: old cset region r%d is %s — caller policy \
                  must pick old regions"
                 r.Region.rid
                 (Region.kind_to_string r.Region.kind));
          r.Region.in_cset <- true;
          Util.Vec.push cset r)
        old_cset;
      (* Remembered sets are about to be the only source of non-cset
         roots into the cset: coverage must be complete right now. *)
      RtM.fire_phase rt Runtime.Vhook.Remset_scan;
      let dest_young = Common.Evac.make_dest rt Region.Young in
      let dest_old = Common.Evac.make_dest rt Region.Old in
      let copied = ref 0 and cards = ref 0 in
      let copied_objects = ref 0 in
      let tenure = Common.Evac.tenure rt ~age:tenure_age in
      let scan_list = Util.Vec.create Gobj.null in
      (* Copy a cset object (idempotent) and queue its copy for scanning.
         Old cset objects stay old; young ones follow the tenuring rule. *)
      let copy_out (o : Gobj.t) =
        if Gobj.is_forwarded o then Gobj.resolve o
        else begin
          let promote =
            Heap_impl.is_old heap o || Common.Evac.promotes tenure o
          in
          let dest = if promote then dest_old else dest_young in
          let o' = Common.Evac.copy_object dest tk o in
          copied := !copied + Gobj.size o;
          incr copied_objects;
          if not promote then
            tenure.survivors <- tenure.survivors + Gobj.size o;
          Util.Vec.push scan_list o';
          o'
        end
      in
      (* Fix one slot: copy cset children, heal staleness, and insert the
         remembered-set entries the new topology needs. *)
      let fix_slot (holder : Gobj.t) i =
        let slot = Gobj.get_field holder i in
        if slot != Gobj.null then begin
          Common.Ticker.tick tk Costs.mark_ref;
          let child = Gobj.resolve slot in
          let child =
            if Heap_impl.in_cset heap child then copy_out child else child
          in
          Gobj.set_field holder i child;
          if
            Gobj.region child <> Gobj.region holder
            && remember_from (Heap_impl.region heap (Gobj.region holder))
          then begin
            Common.Ticker.tick tk Costs.remset_insert;
            Region_remsets.add remsets ~target_rid:(Gobj.region child)
              ~card:(Heap_impl.card_of_field heap holder i)
          end
        end
      in
      let failed = ref false in
      (try
         (* Roots. *)
         Common.scan_roots rt tk (fun o ->
             if Heap_impl.in_cset heap o then ignore (copy_out o));
         RtM.update_roots rt;
         (* Extra root vectors (a concurrent marker's worklists: SATB
            snapshot-live objects must survive young collections that run
            during old marking, as in G1). *)
         List.iter
           (fun vec ->
             Util.Vec.iteri
               (fun i (o : Gobj.t) ->
                 let o = Gobj.resolve o in
                 let o = if Heap_impl.in_cset heap o then copy_out o else o in
                 Util.Vec.set vec i o)
               vec)
           extra_roots;
         (* Remembered sets of every cset region.  The slot visitor is
            built once per pause, not per card. *)
         let remset_slot () o i =
           Common.Ticker.tick tk Costs.mark_ref;
           let stored = Gobj.get_field o i in
           let child = Gobj.live_target stored in
           if child == Gobj.null then ()
           else if Heap_impl.in_cset heap child then begin
             let child' = copy_out child in
             Gobj.set_field o i child';
             (* The holder stays outside the cset: its entry for the
                survivor's new region. *)
             Common.Ticker.tick tk Costs.remset_insert;
             Region_remsets.add remsets ~target_rid:(Gobj.region child')
               ~card:(Heap_impl.card_of_field heap o i)
           end
           else if child != stored then begin
             (* Already evacuated via another path this pause: healing
                alone would lose the edge when the cset region's
                remembered set is cleared on release — the new
                location needs this holder card too. *)
             Gobj.set_field o i child;
             if Gobj.region child <> Gobj.region o then begin
               Common.Ticker.tick tk Costs.remset_insert;
               Region_remsets.add remsets ~target_rid:(Gobj.region child)
                 ~card:(Heap_impl.card_of_field heap o i)
             end
           end
         in
         for k = Util.Vec.length cset - 1 downto 0 do
           let rid = (Util.Vec.get cset k).Region.rid in
           match Region_remsets.get remsets rid with
           | None -> ()
           | Some rs ->
               Remset.iter
                 (fun card ->
                   let holder_r =
                     Heap_impl.region heap (Heap_impl.card_to_region heap card)
                   in
                   (* Cards inside the cset are traced anyway. *)
                   if not holder_r.Region.in_cset then begin
                     incr cards;
                     Common.Ticker.tick tk Costs.card_scan;
                     Heap_impl.scan_card heap card () ~f:remset_slot
                   end)
                 rs
         done;
         (* Transitive closure over new copies. *)
         while not (Util.Vec.is_empty scan_list) do
           let o' = Util.Vec.pop_last scan_list in
           Common.Ticker.tick tk Costs.mark_obj;
           for i = 0 to Gobj.num_fields o' - 1 do
             fix_slot o' i
           done
         done
       with Common.Evac.Evacuation_failure -> failed := true);
      if not !failed then begin
        for k = Util.Vec.length cset - 1 downto 0 do
          let r = Util.Vec.get cset k in
          Region_remsets.clear remsets r.Region.rid;
          Common.release_region rt tk r
        done;
        let cleared = Heap_impl.process_weak_refs_freed_only heap in
        Common.Ticker.tick tk (cleared * Costs.weak_ref_process)
      end
      else
        (* Leave the heap consistent: forwarded copies stay, nothing is
           released; the caller must fall back to a full compaction. *)
        Common.abandon_cset cset;
      if not !failed then RtM.fire_phase rt Runtime.Vhook.Evac_end;
      if !copied_objects > 0 && RtM.tracing rt then
        RtM.trace rt
          (Runtime.Tracepoint.Evac_batch
             { objects = !copied_objects; bytes = !copied });
      Common.Ticker.flush tk;
      Metrics.add rt.RtM.metrics "stw_collections" 1;
      Metrics.add rt.RtM.metrics "cards_scanned" !cards;
      RtM.notify_memory_freed rt;
      !failed)

(** Garbage-first candidates after a marking cycle: the
    {!Common.evacuable} old regions, most garbage first (ties in
    descending rid). *)
let old_candidates (heap : Heap_impl.t) =
  let cands = ref [] in
  Array.iter
    (fun (r : Region.t) ->
      if r.Region.kind = Region.Old && Common.evacuable heap r then
        cands := r :: !cands)
    heap.Heap_impl.regions;
  List.sort
    (fun (a : Region.t) b ->
      Int.compare (Region.garbage_bytes b) (Region.garbage_bytes a))
    !cands

(** Full GC: every remembered set goes stale when the heap compacts, so
    drop them all and rebuild them from the surviving references, then
    compact ({!Common.full_gc_or_oom}). *)
let full_gc rt (remsets : Region_remsets.t) =
  let heap = rt.RtM.heap in
  Array.iter
    (fun (r : Region.t) -> Region_remsets.clear remsets r.Region.rid)
    heap.Heap_impl.regions;
  let on_live_ref (holder : Gobj.t) i (child : Gobj.t) =
    let child = Gobj.resolve child in
    if
      Gobj.region child <> Gobj.region holder
      && remember_from (Heap_impl.region heap (Gobj.region holder))
    then
      Region_remsets.add remsets ~target_rid:(Gobj.region child)
        ~card:(Heap_impl.card_of_field heap holder i)
  in
  Common.full_gc_or_oom ~on_live_ref rt
