(** Stop-the-world evacuating collection (the G1/LXR pause).

    Collects a *collection set* — every young region plus an optional
    slice of old regions — in a single pause: trace from the roots and
    from the cset regions' remembered sets, copying each reachable cset
    object on first visit (young survivors to survivor regions or, past
    the tenuring age, to old; old cset objects to old), fixing references
    as the trace goes, then release the whole cset.

    Liveness inside the cset is defined by the trace itself; remembered
    sets make the trace sound without scanning non-cset old regions. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(* Should stores out of this region be remembered?  Old holders and
   humongous holders are not re-traced by young collections. *)
let remember_from (r : Region.t) = r.Region.kind = Region.Old || r.Region.humongous

(** The write-barrier insertion rule shared by G1 and LXR: remember
    cross-region references from old/humongous holders. *)
let barrier_insert rt remsets ~(src : Gobj.t) ~field ~(child : Gobj.t) =
  let heap = rt.RtM.heap in
  if Gobj.region child <> Gobj.region src then begin
    let src_r = Heap_impl.region heap (Gobj.region src) in
    if remember_from src_r then begin
      Sim.Engine.tick rt.RtM.costs.Costs.remset_barrier;
      Region_remsets.add remsets ~target_rid:(Gobj.region child)
        ~card:(Heap_impl.card_of_field heap src field)
    end
  end

(** Run one collection pause.  [old_cset] must be non-humongous old
    regions chosen by the caller's policy (empty for a young-only GC).
    Returns true when evacuation ran out of space: nothing was released
    and the caller must fall back to a full compaction. *)
let collect rt ~(remsets : Region_remsets.t) ~tenure_age
    ~(old_cset : Region.t list) ?(extra_roots = []) ~pause_kind () =
  let heap = rt.RtM.heap in
  let costs = rt.RtM.costs in
  Runtime.Safepoint.stw rt.RtM.safepoint pause_kind (fun () ->
      RtM.retire_all_tlabs rt;
      (* STW pause work is shared by parallel GC workers on the idle
         cores; see {!Common.Ticker}. *)
      let tk = Common.stw_ticker rt in
      (* Snapshot the cset. *)
      let cset = ref [] in
      Array.iter
        (fun (r : Region.t) ->
          if r.Region.kind = Region.Young && not r.Region.humongous then begin
            r.Region.in_cset <- true;
            cset := r :: !cset
          end)
        heap.Heap_impl.regions;
      List.iter
        (fun (r : Region.t) ->
          if r.Region.kind <> Region.Old || r.Region.humongous then
            failwith
              (Printf.sprintf
                 "stw_collect: old cset region r%d is %s%s — caller policy \
                  must pick non-humongous old regions"
                 r.Region.rid
                 (Region.kind_to_string r.Region.kind)
                 (if r.Region.humongous then " (humongous)" else ""));
          r.Region.in_cset <- true;
          cset := r :: !cset)
        old_cset;
      (* Remembered sets are about to be the only source of non-cset
         roots into the cset: coverage must be complete right now. *)
      RtM.fire_phase rt Runtime.Vhook.Remset_scan;
      let in_cset (o : Gobj.t) =
        (Heap_impl.region heap (Gobj.region o)).Region.in_cset
      in
      let dest_young = Common.Evac.make_dest rt Region.Young in
      let dest_old = Common.Evac.make_dest rt Region.Old in
      let copied = ref 0 and cards = ref 0 in
      let copied_objects = ref 0 in
      (* Humongous regions observed to be referenced during this pause
         (for G1-style eager reclaim below). *)
      let humongous_reached = Hashtbl.create 8 in
      let note_humongous (o : Gobj.t) =
        if (Heap_impl.region heap (Gobj.region o)).Region.humongous then
          Hashtbl.replace humongous_reached (Gobj.region o) ()
      in
      let tenure = Common.Evac.tenure rt ~age:tenure_age in
      let scan_list = Util.Vec.create Gobj.null in
      (* Copy a cset object (idempotent) and queue its copy for scanning.
         Old cset objects stay old; young ones follow the tenuring rule. *)
      let copy_out (o : Gobj.t) =
        if Gobj.is_forwarded o then Gobj.resolve o
        else begin
          let promote =
            (Heap_impl.region heap (Gobj.region o)).Region.kind = Region.Old
            || Common.Evac.promotes tenure o
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
          Common.Ticker.tick tk costs.Costs.mark_ref;
          let child = Gobj.resolve slot in
          note_humongous child;
          let child = if in_cset child then copy_out child else child in
          Gobj.set_field holder i child;
          if
            Gobj.region child <> Gobj.region holder
            && remember_from (Heap_impl.region heap (Gobj.region holder))
          then begin
            Common.Ticker.tick tk costs.Costs.remset_insert;
            Region_remsets.add remsets ~target_rid:(Gobj.region child)
              ~card:(Heap_impl.card_of_field heap holder i)
          end
        end
      in
      let failed = ref false in
      (try
         (* Roots. *)
         Common.scan_roots rt tk (fun o ->
             note_humongous o;
             if in_cset o then ignore (copy_out o));
         RtM.update_roots rt;
         (* Extra root vectors (a concurrent marker's worklists: SATB
            snapshot-live objects must survive young collections that run
            during old marking, as in G1). *)
         List.iter
           (fun vec ->
             Util.Vec.iteri
               (fun i (o : Gobj.t) ->
                 let o = Gobj.resolve o in
                 let o = if in_cset o then copy_out o else o in
                 Util.Vec.set vec i o)
               vec)
           extra_roots;
         (* Remembered sets of every cset region. *)
         List.iter
           (fun (r : Region.t) ->
             match Region_remsets.get remsets r.Region.rid with
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
                       Common.Ticker.tick tk costs.Costs.card_scan;
                       Heap_impl.scan_card heap card () ~f:(fun () o i ->
                           Common.Ticker.tick tk costs.Costs.mark_ref;
                           let stored = Gobj.get_field o i in
                           if stored != Gobj.null then begin
                             let child = Gobj.resolve stored in
                             (* Dead holders on this card can hold
                                dangling references into regions
                                reclaimed by earlier pauses; the target
                                region id may since have been recycled
                                into this cset, so the membership test
                                alone would resurrect freed garbage. *)
                             if Gobj.is_freed child then ()
                             else if in_cset child then begin
                               let child' = copy_out child in
                               Gobj.set_field o i child';
                               (* The holder stays outside the cset: its
                                  entry for the survivor's new region. *)
                               Common.Ticker.tick tk costs.Costs.remset_insert;
                               Region_remsets.add remsets
                                 ~target_rid:(Gobj.region child')
                                 ~card:
                                   (Heap_impl.card_of_field heap o i)
                             end
                             else if child != stored then begin
                               (* Already evacuated via another path this
                                  pause: healing alone would lose the
                                  edge when the cset region's remembered
                                  set is cleared on release — the new
                                  location needs this holder card too. *)
                               Gobj.set_field o i child;
                               if Gobj.region child <> Gobj.region o
                               then begin
                                 Common.Ticker.tick tk
                                   costs.Costs.remset_insert;
                                 Region_remsets.add remsets
                                   ~target_rid:(Gobj.region child)
                                   ~card:(Heap_impl.card_of_field heap o i)
                               end
                             end
                           end)
                     end)
                   rs)
           !cset;
         (* Transitive closure over new copies. *)
         while not (Util.Vec.is_empty scan_list) do
           let o' = Util.Vec.pop_last scan_list in
           Common.Ticker.tick tk costs.Costs.mark_obj;
           for i = 0 to Gobj.num_fields o' - 1 do
             fix_slot o' i
           done
         done
       with Common.Evac.Evacuation_failure -> failed := true);
      if not !failed then begin
        List.iter
          (fun (r : Region.t) ->
            Region_remsets.clear remsets r.Region.rid;
            Common.release_region rt tk r)
          !cset;
        (* Eager humongous reclaim (G1): a humongous region that was not
           reached during this pause and whose remembered set holds no
           actual incoming reference is dead — old holders would have
           inserted entries at store time, and young holders were all
           traced just now. *)
        Array.iter
          (fun (r : Region.t) ->
            if
              (not (Region.is_free r))
              && r.Region.humongous
              && not (Hashtbl.mem humongous_reached r.Region.rid)
            then begin
              let referenced = ref false in
              (match Region_remsets.get remsets r.Region.rid with
              | None -> ()
              | Some rs ->
                  if Remset.cardinal rs > 8 then referenced := true
                  else
                    Remset.iter
                      (fun card ->
                        Common.Ticker.tick tk costs.Costs.card_scan;
                        Heap_impl.scan_card heap card () ~f:(fun () o i ->
                            let child = Gobj.get_field o i in
                            if
                              child != Gobj.null
                              && Gobj.region (Gobj.resolve child)
                                 = r.Region.rid
                            then referenced := true))
                      rs);
              if not !referenced then begin
                Region_remsets.clear remsets r.Region.rid;
                Common.release_region rt tk r
              end
            end)
          heap.Heap_impl.regions;
        let cleared = Heap_impl.process_weak_refs_freed_only heap in
        Common.Ticker.tick tk (cleared * costs.Costs.weak_ref_process)
      end
      else
        (* Leave the heap consistent: forwarded copies stay, nothing is
           released; the caller must fall back to a full compaction. *)
        List.iter (fun (r : Region.t) -> r.Region.in_cset <- false) !cset;
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
