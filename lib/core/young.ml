(** Jade's single-phase young collection (§4.1).

    Marking, evacuation and reference updating happen in one concurrent
    pass: the trace starts from the roots and the old-to-young remembered
    set, copies each young object the first time it is reached (an atomic
    forwarding install stands in for the paper's header CAS), fixes the
    referring slot immediately, and pushes the copy's own references onto
    a GC-local stack — no live bitmap, no separate update pass, which is
    where the 3.8x young-GC throughput over GenZ comes from (Table 5).

    While an old marking cycle is running, the young collector "helps by
    pushing young-to-old references into marking stacks" (§5.6), which is
    also how old marking survives young regions being reclaimed under it. *)

open Heap
module RtM = Runtime.Rt
module Common = Collectors.Common
module Metrics = Runtime.Metrics

type t = {
  rt : RtM.t;
  config : Jade_config.t;
  remset : Remset.t;  (** old-to-young, card granularity *)
  pending : Gobj.t Util.Vec.t;  (** young refs stored by mutators mid-cycle *)
  scan_stack : Gobj.t Util.Vec.t;  (** copies whose fields need scanning *)
  snapshot : Region.t Util.Vec.t;  (** the cycle's young regions, rid order *)
  cards : int Util.Vec.t;  (** the cycle's remembered cards, highest first *)
  mutable active : bool;
  mutable old_marker : Common.Marker.t option;  (** gray old targets here *)
  mutable old_cycle_running : unit -> bool;
      (** installed by the old collector.  Remembered-set pruning is
          deferred while an old cycle runs: the old remset build cleans
          dirty cards concurrently, and a prune decided against a
          half-completed store (insert published, field not yet written)
          must keep the dirty bit as its safety net until then *)
  mutable promoted_old_ref : (Gobj.t -> int -> Gobj.t -> unit) option;
      (** installed by the old collector: cross-region old references of
          freshly promoted copies must reach pending group remsets *)
  (* promotion-rate estimation for Algorithm 2 *)
  mutable promotion_rate : float;  (** bytes per second, EMA *)
  mutable last_gc_end : int;
  mutable promoted_prev : int;
  mutable copied_objects : int;  (** objects evacuated this cycle (trace) *)
  mutable copied_bytes : int;
  tenure : Common.Evac.tenure;
}

(** Young collections an object survives before promotion. *)
let tenure_age = 2

let create ~config rt =
  let heap = rt.RtM.heap in
  {
    rt;
    config;
    remset =
      Remset.create ~name:"jade-old2young"
        ~total_cards:(Heap_impl.total_cards heap);
    pending = Util.Vec.create Gobj.null;
    scan_stack = Util.Vec.create Gobj.null;
    snapshot = Common.region_buffer ();
    cards = Util.Vec.create 0;
    active = false;
    old_marker = None;
    old_cycle_running = (fun () -> false);
    promoted_old_ref = None;
    promotion_rate = 0.;
    last_gc_end = 0;
    promoted_prev = 0;
    copied_objects = 0;
    copied_bytes = 0;
    tenure = Common.Evac.tenure rt ~age:tenure_age;
  }

(** Write-barrier hook (young half): remember old-to-young stores and
    keep concurrently created young references alive during a cycle. *)
let barrier t ~(src : Gobj.t) ~field ~(new_v : Gobj.t) =
  let heap = t.rt.RtM.heap in
  (* The null test must come first: the sentinel's region id is -1. *)
  if new_v != Gobj.null && Heap_impl.is_young heap new_v then begin
    if Heap_impl.is_old heap src then begin
      Sim.Engine.tick Costs.card_barrier;
      if t.config.planted_bug <> Jade_config.Skip_remset_insert then
        ignore (Remset.add t.remset (Heap_impl.card_of_field heap src field))
    end;
    if t.active && Heap_impl.in_cset heap new_v then
      Util.Vec.push t.pending new_v
  end

(* Copy one snapshot object (idempotent via the forwarding CAS), feed its
   copy to the scan stack, and return the copy. *)
let copy_out t (dests : Common.Evac.dest * Common.Evac.dest) tk (o : Gobj.t) =
  if Gobj.is_forwarded o then Gobj.resolve o
  else begin
      let dest_young, dest_old = dests in
      Common.Ticker.tick tk Costs.mark_atomic;
      let promote = Common.Evac.promotes t.tenure o in
      let dest = if promote then dest_old else dest_young in
      (* The option itself, a constant [Some true] or [None]: passing
         [~racy:b] would box a [Some] on every copy. *)
      let racy =
        if t.config.planted_bug = Jade_config.Racy_forwarding then Some true
        else None
      in
      let window =
        match t.config.planted_bug with
        | Jade_config.Racy_forwarding_window ->
            Some (Sim.Engine.quantum t.rt.RtM.engine)
        | _ -> None
      in
      let o' = Common.Evac.copy_object ?racy ?window dest tk o in
      t.copied_objects <- t.copied_objects + 1;
      t.copied_bytes <- t.copied_bytes + Gobj.size o;
      if promote then
        Metrics.add t.rt.RtM.metrics "jade.promoted_bytes" (Gobj.size o)
      else t.tenure.survivors <- t.tenure.survivors + Gobj.size o;
      Util.Vec.push t.scan_stack o';
      o'
  end

(* Single-phase field scan of a fresh copy: copy snapshot children, fix
   the slot in place, maintain remembered sets, help the old marker. *)
let scan_copy t dests tk (o' : Gobj.t) =
  let heap = t.rt.RtM.heap in
  Common.Ticker.tick tk Costs.mark_obj;
  for i = 0 to Gobj.num_fields o' - 1 do
    Common.Ticker.tick tk Costs.mark_ref;
    let slot = Gobj.get_field o' i in
    if slot != Gobj.null then begin
      let child = Gobj.resolve slot in
      let child =
        if Heap_impl.in_cset heap child then copy_out t dests tk child
        else child
      in
      Gobj.set_field o' i child;
      if Heap_impl.is_old heap o' && Heap_impl.is_young heap child then begin
        Common.Ticker.tick tk Costs.remset_insert;
        ignore (Remset.add t.remset (Heap_impl.card_of_field heap o' i))
      end;
      (* Young-to-old references feed a co-running old mark (§5.6). *)
      if Heap_impl.is_old heap child then begin
        (match t.old_marker with
        | Some m when m.Common.Marker.active -> Common.Marker.gray m child
        | _ -> ());
        if Heap_impl.is_old heap o' && Gobj.region o' <> Gobj.region child
        then
          match t.promoted_old_ref with
          | Some f -> f o' i child
          | None -> ()
      end
    end
  done

let drain t dests tk =
  (* Allocation-free drain; same control flow as the option-matching
     version, flush check after every iteration included the terminal
     one (see Common.Marker.drain). *)
  let continue_ = ref true in
  while !continue_ do
    if not (Util.Vec.is_empty t.scan_stack) then
      scan_copy t dests tk (Util.Vec.pop_last t.scan_stack)
    else if not (Util.Vec.is_empty t.pending) then begin
      let o = Util.Vec.pop_last t.pending in
      if Heap_impl.in_cset t.rt.RtM.heap o && not (Gobj.is_forwarded o) then
        ignore (copy_out t dests tk o)
    end
    else continue_ := false;
    if Util.Vec.length t.scan_stack land 127 = 0 then Common.Ticker.flush tk
  done

(* A young-collection worker's remembered-set scan state, built once per
   worker: [remset_slot] is closed over nothing and gets this as the
   scan's context, so a card allocates nothing. *)
type card_scan = {
  cs_young : t;
  cs_dests : Common.Evac.dest * Common.Evac.dest;
  cs_tk : Common.Ticker.t;
  mutable cs_keep : bool;  (** the card still holds an old-to-young ref *)
}

let remset_slot cs o i =
  let child = Gobj.live_target (Gobj.get_field o i) in
  if child != Gobj.null then begin
    let t = cs.cs_young in
    let heap = t.rt.RtM.heap in
    let child =
      if Heap_impl.in_cset heap child then
        copy_out t cs.cs_dests cs.cs_tk child
      else child
    in
    Gobj.set_field o i child;
    if Heap_impl.is_young heap child then cs.cs_keep <- true
  end

(* Scan one old-to-young remembered card: copy-and-heal young targets.
   Returns true when the card still holds old-to-young references. *)
let scan_remset_card cs card =
  let heap = cs.cs_young.rt.RtM.heap in
  Common.Ticker.tick cs.cs_tk Costs.card_scan;
  let holder_r = Heap_impl.region heap (Heap_impl.card_to_region heap card) in
  if holder_r.Region.kind <> Region.Old then false
  else begin
    cs.cs_keep <- false;
    Heap_impl.scan_card heap card cs ~f:remset_slot;
    cs.cs_keep
  end

(** Run one single-phase young collection; returns false on evacuation
    failure. *)
let collect t ~workers =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  let now () = Sim.Engine.now rt.RtM.engine in
  Metrics.phase_begin metrics "jade.young" ~now:(now ());
  t.tenure.survivors <- 0;
  t.copied_objects <- 0;
  t.copied_bytes <- 0;
  let snapshot = t.snapshot in
  let failed = ref false in
  (* Tiny STW: snapshot young regions and evacuate the root targets, so
     mutator stacks can never reference an uncopied snapshot object that
     the barriers would miss. *)
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Init_mark (fun () ->
      RtM.retire_all_tlabs rt;
      Common.snapshot_young rt snapshot;
      t.active <- true;
      (* Old→young coverage must be complete at this point: the snapshot
         is taken and the remembered set is about to become the only
         source of old-held young roots. *)
      RtM.fire_phase rt Runtime.Vhook.Remset_scan;
      let tk = Common.stw_ticker rt in
      let dests =
        (Common.Evac.make_dest rt Region.Young, Common.Evac.make_dest rt Region.Old)
      in
      (try
         Common.scan_roots rt tk (fun o ->
             if Heap_impl.in_cset heap o then ignore (copy_out t dests tk o));
         RtM.update_roots rt
       with Common.Evac.Evacuation_failure -> failed := true);
      Common.Ticker.flush tk);
  (* Concurrent single phase: remembered-set cards, then the transitive
     copy-and-fix closure, picking up barrier discoveries as they come. *)
  if not !failed then begin
    (* Workers claim the remembered set's cards highest first. *)
    let cards = t.cards in
    Remset.snapshot_desc t.remset cards;
    let next_card = ref 0 in
    Common.run_workers rt ~n:workers ~name:"jade-young" (fun _ tk ->
        let dests =
          ( Common.Evac.make_dest rt Region.Young,
            Common.Evac.make_dest rt Region.Old )
        in
        let cs =
          { cs_young = t; cs_dests = dests; cs_tk = tk; cs_keep = false }
        in
        try
          let continue_ = ref true in
          while !continue_ do
            if !failed then continue_ := false
            else if !next_card < Util.Vec.length cards then begin
              let card = Util.Vec.get cards !next_card in
              incr next_card;
              let keep = scan_remset_card cs card in
              (* Prune only while no old cycle runs: the scan may have
                 raced a mutator's half-completed store (remset insert
                 published, field write pending), which leaves the card
                 dirty — and only the old cycle's remset build cleans
                 dirty cards, so outside an old cycle the dirty bit
                 safely covers the edge until the next scan. *)
              if not keep && not (t.old_cycle_running ()) then
                Remset.remove t.remset card
            end
            else begin
              drain t dests tk;
              (* Barriers may repopulate [pending]; stop once it stays
                 empty (the final STW below is the true terminator). *)
              if
                Util.Vec.is_empty t.scan_stack
                && Util.Vec.is_empty t.pending
              then continue_ := false
            end
          done
        with Common.Evac.Evacuation_failure -> failed := true)
  end;
  (* Final STW: rescan roots (stack-only survivors), drain stragglers,
     release the snapshot, process weak references. *)
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Final_mark (fun () ->
      let tk = Common.stw_ticker rt in
      let dests =
        (Common.Evac.make_dest rt Region.Young, Common.Evac.make_dest rt Region.Old)
      in
      (try
         if not !failed then begin
           Common.scan_roots rt tk (fun o ->
               if Heap_impl.in_cset heap o then
                 ignore (copy_out t dests tk o));
           drain t dests tk;
           RtM.update_roots rt
         end
       with Common.Evac.Evacuation_failure -> failed := true);
      t.active <- false;
      if not !failed then begin
        (* Highest rid first. *)
        for i = Util.Vec.length snapshot - 1 downto 0 do
          let r = Util.Vec.get snapshot i in
          Metrics.add metrics "jade.young_reclaimed_bytes" r.Region.top;
          Common.release_region rt tk r
        done;
        let cleared = Heap_impl.process_weak_refs_freed_only heap in
        Common.Ticker.tick tk (cleared * Costs.weak_ref_process);
        Metrics.add metrics "jade.weak_young_cleared" cleared;
        Metrics.add metrics "jade.young_collections" 1;
        Metrics.add metrics "jade.young_regions_reclaimed"
          (Util.Vec.length snapshot);
        RtM.fire_phase rt Runtime.Vhook.Evac_end
      end
      else begin
        Common.abandon_cset snapshot;
        Util.Vec.clear t.scan_stack;
        Util.Vec.clear t.pending
      end;
      Common.Ticker.flush tk);
  RtM.notify_memory_freed rt;
  (* Promotion-rate EMA for Algorithm 2. *)
  let promoted = Metrics.counter metrics "jade.promoted_bytes" in
  let dt = Int.max 1 (now () - t.last_gc_end) in
  t.last_gc_end <- now ();
  let inst =
    float_of_int (promoted - t.promoted_prev) /. (float_of_int dt /. 1e9)
  in
  t.promoted_prev <- promoted;
  t.promotion_rate <- (0.7 *. t.promotion_rate) +. (0.3 *. inst);
  if t.copied_objects > 0 && RtM.tracing rt then
    RtM.trace rt
      (Runtime.Tracepoint.Evac_batch
         { objects = t.copied_objects; bytes = t.copied_bytes });
  Metrics.phase_end metrics "jade.young" ~now:(now ());
  RtM.fire_phase rt Runtime.Vhook.Cycle_end;
  not !failed
