(** Jade's group-wise old collection (§3).

    One cycle: concurrent SATB marking that *piggybacks* CRDT recording
    (§3.3), sub-millisecond simulation-based grouping (Algorithm 1),
    CRDT-accelerated group remembered-set building, and then one
    evacuation *round per group* — each round copies one group's live
    objects, heals the group's incoming references through its remembered
    set, and releases the group's regions immediately, giving per-group
    incremental reclamation with the same marking results reused by every
    round (§3.1).

    Hand-over-hand maintenance: while copying, references from new copies
    into *later* groups are inserted into those groups' remembered sets,
    and references into the *current* group are queued in its own set so
    the post-evacuation scan heals them.  References into already
    released groups are healed on the spot. *)

open Heap
module RtM = Runtime.Rt
module Common = Collectors.Common
module Metrics = Runtime.Metrics

type t = {
  rt : RtM.t;
  config : Jade_config.t;
  marker : Common.Marker.t;
  crdt : Crdt.t;
  group_remsets : Remset.t array;
  young : Young.t;  (** for old-to-young inserts and promotion stats *)
  cards : int Util.Vec.t;
      (** the remset build's work list, then each round's heal cards *)
  regions : Region.t Util.Vec.t;  (** the round's group, in claim order *)
  mutable current_group : int;  (** round in progress; -1 outside rounds *)
  mutable cycle_running : bool;
  mutable est_cycle_time : int;  (** EMA of cycle duration, Algorithm 2 *)
}

let create ~config ~young rt =
  let heap = rt.RtM.heap in
  let crdt = Crdt.create ~total_cards:(Heap_impl.total_cards heap) in
  {
    rt;
    config;
    marker = Common.Marker.create ~remap:true ~crdt rt;
    crdt;
    group_remsets =
      Array.init config.Jade_config.max_groups (fun i ->
          Remset.create
            ~name:(Printf.sprintf "jade-group-%d" i)
            ~total_cards:(Heap_impl.total_cards heap));
    young;
    cards = Util.Vec.create 0;
    regions = Common.region_buffer ();
    current_group = -1;
    cycle_running = false;
    est_cycle_time = 50 * Util.Units.ms;
  }

(** Write-barrier hook (old half): during evacuation rounds, stores that
    create references into a still-pending group must reach that group's
    remembered set (§3.3); everything cross-region dirties its card for
    the next cycle's remset build. *)
let barrier t ~(src : Gobj.t) ~field ~(new_v : Gobj.t) =
  let heap = t.rt.RtM.heap in
  (* Null first: the sentinel's region id (-1) must never be looked up. *)
  if new_v != Gobj.null && Gobj.region new_v <> Gobj.region src then begin
    let child = new_v in
    Sim.Engine.tick Costs.card_barrier;
    let card = Heap_impl.card_of_field heap src field in
    (* The planted bug must also drop the card dirtying for old→young
       stores — otherwise the dirty bit masks the missing remset insert
       and the sanitizer regression test proves nothing. *)
    if
      not
        (Heap_impl.is_young heap child
        && t.config.Jade_config.planted_bug = Jade_config.Skip_remset_insert)
    then Heap_impl.dirty_card heap card;
    if t.current_group >= 0 then begin
      let g = (Heap_impl.region heap (Gobj.region child)).Region.group in
      if g >= t.current_group then begin
        Sim.Engine.tick Costs.remset_barrier;
        ignore (Remset.add t.group_remsets.(g) card)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Marking.                                                             *)

let mark_phase t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  Common.Marker.cycle t.marker ~phase:"jade.mark" ~final:Metrics.Final_mark
    ~workers:t.config.old_workers
    ~at_init:(fun () ->
      Crdt.reset t.crdt;
      t.young.Young.old_marker <- Some t.marker)
    ~at_final:(fun tk ->
      t.young.Young.old_marker <- None;
      (* §4.4: weak references checked in an extra STW phase — unless the
         concurrent variant (the paper's stated future work) is on, in
         which case only the discovery snapshot happens here. *)
      if not t.config.Jade_config.concurrent_weak_refs then begin
        let cleared = Heap_impl.process_weak_refs_marked heap in
        Common.Ticker.tick tk (cleared * Costs.weak_ref_process);
        Metrics.add metrics "jade.weak_stw_cleared" cleared
      end);
  if t.config.Jade_config.concurrent_weak_refs then begin
    (* Concurrent weak processing: safe because the mark results are
       stable after final mark, referents are judged through resolve, and
       clearing only drops entries from the collector-private list. *)
    let tk = Common.Ticker.create () in
    let cleared = Heap_impl.process_weak_refs_marked heap in
    Common.Ticker.tick tk (cleared * Costs.weak_ref_process);
    Common.Ticker.flush tk;
    Metrics.add metrics "jade.weak_concurrent_cleared" cleared
  end

(* ------------------------------------------------------------------ *)
(* Grouping (concurrent; microsecond-scale by construction).            *)

let group_phase t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  let now () = Sim.Engine.now rt.RtM.engine in
  Metrics.phase_begin metrics "jade.group" ~now:(now ());
  let regions = heap.Heap_impl.regions in
  let candidates = ref [] in
  for i = Array.length regions - 1 downto 0 do
    let r = regions.(i) in
    if
      r.Region.kind = Region.Old
      && (not (Region.is_free r))
      && r.Region.alloc_epoch < heap.Heap_impl.mark_epoch
    then candidates := r :: !candidates
  done;
  let free_bytes =
    Grouping.estimate_free_space
      ~free_region_count:(Heap_impl.free_regions heap)
      ~region_bytes:heap.Heap_impl.cfg.region_bytes
      ~promotion_rate:t.young.Young.promotion_rate
      ~estimated_gc_time_ns:t.est_cycle_time
  in
  let plan = Grouping.build ~config:t.config ~free_bytes !candidates in
  (* Install group ids on the regions and reset the group remsets. *)
  Array.iteri
    (fun gi regions ->
      List.iter (fun (r : Region.t) -> r.Region.group <- gi) regions)
    plan.Grouping.groups;
  Array.iter Remset.clear t.group_remsets;
  (* The grouping itself is a simulation over region metadata: bill a few
     tens of ns per tracked region (sort + scan), microseconds total. *)
  Sim.Engine.tick (60 * Int.max 1 plan.Grouping.tracked);
  Metrics.phase_end metrics "jade.group" ~now:(now ());
  Metrics.add metrics "jade.groups_built" (Grouping.num_groups plan);
  plan

(* ------------------------------------------------------------------ *)
(* Remembered-set building with the CRDT shortcut (§3.3).               *)

let build_remsets t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  let now () = Sim.Engine.now rt.RtM.engine in
  Metrics.phase_begin metrics "jade.build" ~now:(now ());
  let scanned = ref 0 and via_crdt = ref 0 in
  let group_of_region rid = (Heap_impl.region heap rid).Region.group in
  let insert_for_target tk ~card ~target_rid =
    let own_group = group_of_region (Heap_impl.card_to_region heap card) in
    let g = group_of_region target_rid in
    (* Regions of the same group are released together: intra-group
       references need no memorization (§3.3). *)
    if g >= 0 && g <> own_group then begin
      Common.Ticker.tick tk Costs.remset_insert;
      ignore (Remset.add t.group_remsets.(g) card)
    end
  in
  (* A worker's slot visitor, built once per worker over its ticker; the
     card is the scan's context, so a card allocates nothing. *)
  let target_slot tk card o i =
    let child = Gobj.live_target (Gobj.get_field o i) in
    if child != Gobj.null && Gobj.region child <> Gobj.region o then begin
      (* This scan is followed by [clean_card]; if the card still covers
         an old→young edge whose remset insert the young collector
         pruned against a half-completed store, the dirty bit is the
         last record of that edge — re-publish it before erasing the
         backup.  Unbilled: an idempotent bitset insert the mutator
         already paid for once. *)
      if Heap_impl.is_young heap child && Heap_impl.is_old heap o then
        ignore (Remset.add t.young.Young.remset card);
      insert_for_target tk ~card ~target_rid:(Gobj.region child)
    end
  in
  let scan_card_for_targets tk slot card =
    incr scanned;
    Common.Ticker.tick tk Costs.card_scan;
    Heap_impl.scan_card heap card card ~f:slot
  in
  (* Work list: cards known to the CRDT (live cross-region refs found by
     marking) plus cards dirtied by mutators that the CRDT knows nothing
     about (post-snapshot stores). *)
  let work = t.cards in
  Util.Vec.clear work;
  Crdt.push_nonempty t.crdt work;
  Heap_impl.iter_dirty_cards
    (fun card ->
      if Crdt.code t.crdt card = Crdt.code_empty then Util.Vec.push work card)
    heap;
  let use_crdt = t.config.Jade_config.use_crdt in
  ignore
    (Common.parallel_drain rt ~n:t.config.old_workers ~name:"jade-build"
       ~init:target_slot work (fun slot tk card ->
         let code = Crdt.code t.crdt card in
         (* Empty: dirtied after the marking snapshot, a conservative
            scan.  Overflow: three or more referenced regions, a rescan
            (§3.3).  The ablation without the CRDT shortcut scans every
            card. *)
         if code = Crdt.code_empty || code = Crdt.code_overflow || not use_crdt
         then scan_card_for_targets tk slot card
         else begin
           incr via_crdt;
           insert_for_target tk ~card ~target_rid:(Crdt.code_first code);
           let r2 = Crdt.code_second code in
           if r2 >= 0 then insert_for_target tk ~card ~target_rid:r2
         end;
         Heap_impl.clean_card heap card));
  Metrics.add metrics "jade.build_cards_scanned" !scanned;
  Metrics.add metrics "jade.build_cards_via_crdt" !via_crdt;
  Metrics.phase_end metrics "jade.build" ~now:(now ())

(* ------------------------------------------------------------------ *)
(* Per-group evacuation rounds.                                         *)

let evacuate_object_fields t tk (o' : Gobj.t) ~group =
  let heap = t.rt.RtM.heap in
  for i = 0 to Gobj.num_fields o' - 1 do
    let child = Gobj.get_field o' i in
    if child != Gobj.null then begin
      let child_r = Heap_impl.region heap (Gobj.region child) in
      match child_r.Region.kind with
      | Region.Young ->
          Common.Ticker.tick tk Costs.remset_insert;
          ignore
            (Remset.add t.young.Young.remset
               (Heap_impl.card_of_field heap o' i))
      | _ ->
          let g = child_r.Region.group in
          if g >= group then begin
            (* Hand-over-hand: the new location's reference into a
               pending (or this) group goes to that group's remset. *)
            Common.Ticker.tick tk Costs.remset_insert;
            ignore
              (Remset.add t.group_remsets.(g)
                 (Heap_impl.card_of_field heap o' i))
          end
          else if Gobj.is_forwarded child then begin
            (* Earlier group, already moved: heal on the spot. *)
            Common.Ticker.tick tk Costs.heal;
            Gobj.set_field o' i (Gobj.resolve child)
          end
    end
  done

let evacuate_group t ~group (regions : Region.t list) =
  let rt = t.rt in
  let metrics = rt.RtM.metrics in
  t.current_group <- group;
  (* Chasing mode (§4.3): when mutators are stalled their cores are idle;
     run with as many workers as cores to finish the round sooner. *)
  let workers =
    if t.config.chasing_mode && rt.RtM.stalled_mutators > 0 then
      Sim.Engine.cores rt.RtM.engine
    else t.config.old_workers
  in
  if workers > t.config.old_workers then
    Metrics.add metrics "jade.chasing_rounds" 1;
  let after tk _ o' = evacuate_object_fields t tk o' ~group in
  Util.Vec.clear t.regions;
  List.iter (Util.Vec.push t.regions) regions;
  let _, failed =
    Common.parallel_drain rt ~n:workers ~name:"jade-evac"
      ~init:(fun _ ->
        let dest = Common.Evac.make_dest rt Region.Old in
        fun _ -> dest)
      t.regions
      (fun pick tk r -> Common.Evac.evacuate_region rt ~after ~pick tk r)
  in
  if not failed then begin
    (* Heal every remembered incoming reference, then release the group:
       this is the per-group incremental reclamation of §3.1.  Cards are
       handed out highest first. *)
    Remset.snapshot_desc t.group_remsets.(group) t.cards;
    ignore
      (Common.parallel_drain rt ~n:workers ~name:"jade-heal"
         ~init:Fun.id t.cards
         (fun tk _ card -> Common.update_refs_in_card rt tk card));
    Remset.clear t.group_remsets.(group);
    let tk = Common.Ticker.create () in
    List.iter
      (fun (r : Region.t) ->
        Metrics.add metrics "jade.old_bytes_reclaimed" r.Region.top;
        Common.release_region rt tk r)
      regions;
    Common.Ticker.flush tk;
    Metrics.add metrics "jade.rounds" 1;
    RtM.notify_memory_freed rt
  end;
  t.current_group <- -1;
  not failed

(* ------------------------------------------------------------------ *)
(* The cycle.                                                           *)

(** Run one full group-wise old collection; returns false when
    evacuation ran out of space (caller escalates).  [quiescent] is the
    controller's quiescent point in the heap's grace periods
    ({!Heap.Grace}), declared once the mark has ended: its final pause
    drained every gray stack and SATB queue, and no evacuation of this
    cycle has begun, so the controller holds no released record.  None
    is declared between group rounds: a round's stubs stay named by
    roots until the epilogue heals them. *)
let run_cycle t ~quiescent =
  let rt = t.rt in
  let metrics = rt.RtM.metrics in
  let now () = Sim.Engine.now rt.RtM.engine in
  let t0 = now () in
  t.cycle_running <- true;
  Metrics.phase_begin metrics "jade.old_cycle" ~now:t0;
  mark_phase t;
  quiescent ();
  let plan = group_phase t in
  build_remsets t;
  Metrics.phase_begin metrics "jade.old_evac" ~now:(now ());
  RtM.fire_phase rt Runtime.Vhook.Evac_start;
  let ok = ref true in
  Array.iteri
    (fun gi regions ->
      if !ok && regions <> [] then ok := evacuate_group t ~group:gi regions)
    plan.Grouping.groups;
  RtM.fire_phase rt Runtime.Vhook.Evac_end;
  Metrics.phase_end metrics "jade.old_evac" ~now:(now ());
  (* Cycle epilogue: fix roots in a tiny pause. *)
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Remark (fun () ->
      RtM.update_roots rt);
  (* Clear group labels on everything that survived ungrouped. *)
  Array.iter
    (fun (r : Region.t) -> r.Region.group <- -1)
    rt.RtM.heap.Heap_impl.regions;
  let dur = now () - t0 in
  t.est_cycle_time <- ((t.est_cycle_time * 7) + (dur * 3)) / 10;
  Metrics.phase_end metrics "jade.old_cycle" ~now:(now ());
  Metrics.add metrics "jade.old_cycles" 1;
  t.cycle_running <- false;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end;
  !ok
