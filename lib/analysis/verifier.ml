(** Full-heap invariant checker, driven from collector phase boundaries.

    The verifier never ticks simulated time: every check is host-side
    observation of the heap model, so enabling it cannot change a single
    scheduling decision — runs are trace-identical with and without it.

    What runs when:

    - every phase fire (fast + full): incremental accounting —
      [Heap_impl.used_bytes] against an independent region sum, the
      free-region count, per-region bump-pointer sanity.
    - [Safepoint_release] (full): region layout (offset-contiguous
      residents summing to the bump pointer), forwarding-chain sanity
      (bounded, identity/size-preserving), and a resolve-based
      reachability walk from every root — a reachable reference into a
      reclaimed region without a forwarding entry is the "lost object"
      failure of a concurrent copying collector.
    - [Mark_start] (full): records the {!Heap.Gobj.uid_watermark} of the
      snapshot.  Records minted after it (allocations and evacuation
      copies) are exempt from tri-color checks: SATB constrains the
      snapshot, and Jade legitimately copies young objects while old
      marking runs.
    - [Mark_end] (full): SATB tri-color (no black→white edge into the
      snapshot), marking-live accounting, and CRDT agreement for the
      collector that registered its table.
    - [Young_mark_end] (full): the young-generation tri-color analog.
    - [Remset_scan] (full): old→young remembered-set coverage recomputed
      independently from the object graph, judged against the
      collector-registered providers. *)

module RtM = Runtime.Rt
module Vhook = Runtime.Vhook
module H = Heap.Heap_impl
module Region = Heap.Region
module Gobj = Heap.Gobj
module Crdt = Heap.Crdt

type t = {
  rt : RtM.t;
  full : bool;
  on_violation : Report.t -> unit;
  mutable mark_watermark : int;
      (** uid watermark of the current/most recent old marking snapshot *)
  mutable phase : string;  (** phase being checked, for reports *)
  mutable collector : string;  (** collector that fired it *)
  mutable checks : int;  (** fires handled, so tests can assert coverage *)
}

let create ?(full = true) ~on_violation rt =
  {
    rt;
    full;
    on_violation;
    mark_watermark = max_int;
    phase = "-";
    collector = "-";
    checks = 0;
  }

let checks_run t = t.checks

let emit t ~invariant ?region ?object_id fmt =
  Printf.ksprintf
    (fun detail ->
      t.on_violation
        {
          Report.engine = "verifier";
          invariant;
          collector = t.collector;
          phase = t.phase;
          region;
          object_id;
          detail;
        })
    fmt

(** Follow a forwarding chain with a cycle guard; [None] on runaway. *)
let chase o =
  let rec go (o : Gobj.t) n =
    if not (Gobj.is_forwarded o) then Some o
    else if n = 0 then None
    else go o.Gobj.forward (n - 1)
  in
  go o 64

(** Iterate the residents of every non-free region. *)
let iter_residents heap f =
  for rid = 0 to H.num_regions heap - 1 do
    let r = H.region heap rid in
    if not (Region.is_free r) then
      Util.Vec.iter (fun (o : Gobj.t) -> f r o) r.Region.objects
  done

(* ------------------------------------------------------------------ *)
(* Fast checks: incremental accounting vs. independent recomputation.   *)

let check_accounting t =
  let heap = t.rt.RtM.heap in
  let sum = ref 0 and free = ref 0 in
  for rid = 0 to H.num_regions heap - 1 do
    let r = H.region heap rid in
    if Region.is_free r then begin
      incr free;
      if r.Region.top <> 0 || Region.object_count r <> 0 then
        emit t ~invariant:"free-region-empty" ~region:rid
          "free region %d still holds %d bytes / %d objects" rid r.Region.top
          (Region.object_count r)
    end
    else begin
      sum := !sum + r.Region.top;
      if r.Region.top > r.Region.size then
        emit t ~invariant:"region-bump-bound" ~region:rid
          "region %d bump pointer %d exceeds capacity %d" rid r.Region.top
          r.Region.size
    end
  done;
  if !sum <> H.used_bytes heap then
    emit t ~invariant:"used-bytes-accounting"
      "incremental used_bytes=%d but non-free regions sum to %d"
      (H.used_bytes heap) !sum;
  if !free <> H.free_regions heap then
    emit t ~invariant:"free-region-count"
      "free_count=%d but %d regions are in state Free" (H.free_regions heap)
      !free

(* ------------------------------------------------------------------ *)
(* Region layout and forwarding consistency.                            *)

let check_region_contents t =
  let heap = t.rt.RtM.heap in
  for rid = 0 to H.num_regions heap - 1 do
    let r = H.region heap rid in
    if not (Region.is_free r) then begin
      let running = ref 0 in
      Util.Vec.iter
        (fun (o : Gobj.t) ->
          if Gobj.region o <> rid then
            emit t ~invariant:"resident-region-field" ~region:rid
              ~object_id:(Gobj.id o)
              "object #%d resident in region %d but its region field says %d"
              (Gobj.id o) rid (Gobj.region o);
          if Gobj.is_freed o then
            emit t ~invariant:"resident-not-freed" ~region:rid
              ~object_id:(Gobj.id o)
              "object #%d (uid=%d, %dB, age=%d, fwd=%b, humongous=%b) is \
               flagged freed yet still resident in region %d (%s, \
               top=%d, humongous=%b)"
              (Gobj.id o) (Gobj.uid o) (Gobj.size o) (Gobj.age o)
              (Gobj.is_forwarded o)
              (Gobj.has_flag o Gobj.flag_humongous)
              rid
              (Region.kind_to_string r.Region.kind)
              r.Region.top r.Region.humongous;
          if Gobj.offset o <> !running then
            emit t ~invariant:"region-layout" ~region:rid
              ~object_id:(Gobj.id o)
              "object #%d at offset %d, expected contiguous offset %d"
              (Gobj.id o) (Gobj.offset o) !running;
          running := !running + Gobj.size o;
          match chase o with
          | None ->
              emit t ~invariant:"forwarding-chain-bounded" ~region:rid
                ~object_id:(Gobj.id o)
                "forwarding chain of object #%d exceeds 64 hops (cycle?)"
                (Gobj.id o)
          | Some f ->
              if Gobj.id f <> Gobj.id o || Gobj.size f <> Gobj.size o then
                emit t ~invariant:"forwarding-identity" ~region:rid
                  ~object_id:(Gobj.id o)
                  "forwarding of #%d(%dB) resolves to #%d(%dB): copies must \
                   preserve logical identity and payload size"
                  (Gobj.id o) (Gobj.size o) (Gobj.id f) (Gobj.size f))
        r.Region.objects;
      if !running <> r.Region.top then
        emit t ~invariant:"region-size-sum" ~region:rid
          "region %d resident sizes sum to %d but bump pointer is %d" rid
          !running r.Region.top
    end
  done

(* ------------------------------------------------------------------ *)
(* Reachability: no live path may end in reclaimed memory.              *)

let check_reachability t =
  let heap = t.rt.RtM.heap in
  let seen = Hashtbl.create 4096 in
  let stack = ref [] in
  let visit ~from o =
    let o = Gobj.resolve o in
    if not (Hashtbl.mem seen (Gobj.uid o)) then begin
      Hashtbl.replace seen (Gobj.uid o) ();
      if Gobj.is_freed o then
        emit t ~invariant:"no-dangling-reference" ~region:(Gobj.region o)
          ~object_id:(Gobj.id o)
          "reachable reference (from %s) resolves to freed object #%d, last \
           resident at region %d offset %d — reclaimed memory reached \
           without a forwarding entry"
          from (Gobj.id o) (Gobj.region o) (Gobj.offset o)
      else if Region.is_free (H.region heap (Gobj.region o)) then
        emit t ~invariant:"no-dangling-reference" ~region:(Gobj.region o)
          ~object_id:(Gobj.id o)
          "reachable object #%d (from %s) claims region %d, which is free"
          (Gobj.id o) from (Gobj.region o)
      else stack := o :: !stack
    end
  in
  RtM.iter_roots t.rt (fun o ->
      if o != Gobj.null then visit ~from:"a root slot" o);
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | o :: rest ->
        stack := rest;
        Gobj.iter_fields
          (fun _i c -> visit ~from:(Printf.sprintf "#%d" (Gobj.id o)) c)
          o
  done

(* ------------------------------------------------------------------ *)
(* SATB tri-color discipline.                                           *)

(** At [Mark_end] every marked (black) holder's children must be marked:
    the terminal SATB drain has run, so a white successor of a black
    object in the snapshot means the barrier lost an edge.  Records
    minted after the snapshot (uid ≥ watermark) and freed records
    (reclaimed young garbage under Jade's co-running cycles — the
    reachability walk owns dangling references) are exempt. *)
let check_satb t =
  let heap = t.rt.RtM.heap in
  let epoch = heap.H.mark_epoch in
  let wm = t.mark_watermark in
  iter_residents heap (fun _r (o : Gobj.t) ->
      if Gobj.mark o >= epoch then
        Gobj.iter_fields
          (fun i c ->
            let rc = Gobj.resolve c in
            if
              (not (Gobj.is_freed rc))
              && Gobj.uid rc < wm
              && Gobj.mark rc < epoch
            then
              emit t ~invariant:"satb-tri-color" ~region:(Gobj.region rc)
                ~object_id:(Gobj.id rc)
                "black→white edge after final drain: marked #%d (region %d) \
                 field %d → unmarked snapshot object #%d (region %d, \
                 mark=%d < epoch %d)"
                (Gobj.id o) (Gobj.region o) i (Gobj.id rc) (Gobj.region rc)
                (Gobj.mark rc) epoch)
          o)

(** Young-generation tri-color analog, for collectors that really mark
    the young generation (generational ZGC/Shenandoah styles).  Young
    marking never co-runs with a copying phase in those collectors, so
    no watermark is needed: objects born during the cycle are born
    young-marked. *)
let check_young_satb t =
  let heap = t.rt.RtM.heap in
  let yepoch = heap.H.young_epoch in
  iter_residents heap (fun (r : Region.t) (o : Gobj.t) ->
      if r.Region.kind = Region.Young && Gobj.ymark o >= yepoch then
        Gobj.iter_fields
          (fun i c ->
            let rc = Gobj.resolve c in
            if
              (not (Gobj.is_freed rc))
              && (H.region heap (Gobj.region rc)).Region.kind = Region.Young
              && Gobj.ymark rc < yepoch
            then
              emit t ~invariant:"young-satb-tri-color" ~region:(Gobj.region rc)
                ~object_id:(Gobj.id rc)
                "young-marked #%d field %d → unmarked young object #%d \
                 (region %d, ymark=%d < epoch %d)"
                (Gobj.id o) i (Gobj.id rc) (Gobj.region rc) (Gobj.ymark rc)
                yepoch)
          o)

(* ------------------------------------------------------------------ *)
(* Marking accounting.                                                  *)

(** A snapshot old region's marking-live accumulator can never exceed its
    bump pointer.  Fresh regions (claimed during the cycle) hold
    evacuation copies that inherit mark words without being marked, so
    only snapshot regions are judged. *)
let check_marking_live t =
  let heap = t.rt.RtM.heap in
  let epoch = heap.H.mark_epoch in
  for rid = 0 to H.num_regions heap - 1 do
    let r = H.region heap rid in
    if
      (not (Region.is_free r))
      && r.Region.alloc_epoch < epoch
      && r.Region.kind = Region.Old
      && r.Region.marking_live > r.Region.top
    then
      emit t ~invariant:"marking-live-bound" ~region:rid
        "region %d accumulated %d marked-live bytes but only %d are \
         allocated"
        rid r.Region.marking_live r.Region.top
  done

(* ------------------------------------------------------------------ *)
(* CRDT (cross-region discover table) agreement.                        *)

(** Checked only at the [Mark_end] of the collector that registered the
    table (Jade's old cycle): the CRDT is reset at init-mark and written
    exclusively by the marker, so at the final drain it must agree with
    the mark state in both directions.

    Soundness: a non-empty card was recorded while visiting a marked
    holder resident there, so unless the region was since reclaimed or
    re-claimed, a marked object must still intersect the card.

    Completeness: a marked, unmoved snapshot holder in an old region was
    visited with its current fields unless the field was stored after
    the visit — in which case the store barrier left the card dirty.  So
    each cross-region reference card must be recorded or dirty. *)
let check_crdt t =
  match t.rt.RtM.crdt_source with
  | Some (owner, crdt) when owner = t.collector ->
      let heap = t.rt.RtM.heap in
      let epoch = heap.H.mark_epoch in
      let wm = t.mark_watermark in
      (* Structural: the incremental counters match the entries array. *)
      let nonempty = ref 0 and overflowed = ref 0 in
      Crdt.iter_nonempty
        (fun card entry ->
          incr nonempty;
          match entry with
          | Crdt.Overflow -> incr overflowed
          | Crdt.One r1 ->
              if r1 < 0 || r1 >= H.num_regions heap then
                emit t ~invariant:"crdt-entry-valid"
                  "card %d records region %d, outside the heap" card r1
          | Crdt.Two (r1, r2) ->
              if
                r1 < 0
                || r1 >= H.num_regions heap
                || r2 < 0
                || r2 >= H.num_regions heap
              then
                emit t ~invariant:"crdt-entry-valid"
                  "card %d records regions %d,%d, outside the heap" card r1 r2
          | Crdt.Empty -> ())
        crdt;
      let rec_n, ovf_n = Crdt.stats crdt in
      if rec_n <> !nonempty || ovf_n <> !overflowed then
        emit t ~invariant:"crdt-counters"
          "CRDT counters say %d non-empty / %d overflowed, entries show \
           %d / %d"
          rec_n ovf_n !nonempty !overflowed;
      (* Soundness: recorded card ⇒ a marked visitor still intersects it
         (unless the region was reclaimed or re-claimed since). *)
      Crdt.iter_nonempty
        (fun card _entry ->
          let rid = H.card_to_region heap card in
          let r = H.region heap rid in
          if (not (Region.is_free r)) && r.Region.alloc_epoch < epoch then begin
            let found = ref false in
            Region.iter_objects_in_range r ~off:(H.card_to_offset heap card)
              ~len:H.card_bytes (fun (o : Gobj.t) ->
                if Gobj.mark o >= epoch then found := true);
            if not !found then
              emit t ~invariant:"crdt-live-agreement" ~region:rid
                "CRDT card %d (region %d) is recorded but no marked object \
                 intersects it"
                card rid
          end)
        crdt;
      (* Completeness over old-region snapshot holders. *)
      iter_residents heap (fun (r : Region.t) (o : Gobj.t) ->
          if
            r.Region.kind = Region.Old
            && r.Region.alloc_epoch < epoch
            && Gobj.mark o >= epoch
            && Gobj.uid o < wm
            && not (Gobj.is_forwarded o)
          then
            Gobj.iter_fields
              (fun i c ->
                let rc = Gobj.resolve c in
                if (not (Gobj.is_freed rc)) && Gobj.region rc <> Gobj.region o
                then begin
                  let card = H.card_of_field heap o i in
                  if
                    Crdt.get crdt card = Crdt.Empty
                    && not (H.card_is_dirty heap card)
                  then
                    emit t ~invariant:"crdt-completeness" ~region:r.Region.rid
                      ~object_id:(Gobj.id o)
                      "marked holder #%d field %d (card %d) references \
                       region %d but the card is neither recorded nor dirty"
                      (Gobj.id o) i card (Gobj.region rc)
                end)
              o)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Old→young remembered-set coverage.                                   *)

(** Recompute, from nothing but the object graph, which cards hold
    old→young references, and demand that every registered provider
    covers each of them.  A provider may return [None] to decline
    judgment (Jade mid-old-cycle, where remembered-set maintenance has
    in-flight windows).  For a forwarded holder the logical field lives
    at both the original's and the copy's card (the records share the
    slot array); covering either is sound because remset scans visit
    whatever card is in the set. *)
let check_remset_coverage t =
  let providers =
    List.filter_map
      (fun (p : Vhook.remset_provider) ->
        match p.Vhook.rp_covers () with
        | Some f -> Some (p.Vhook.rp_name, f)
        | None -> None)
      t.rt.RtM.remset_providers
  in
  if providers <> [] then begin
    let heap = t.rt.RtM.heap in
    iter_residents heap (fun (r : Region.t) (o : Gobj.t) ->
        if r.Region.kind = Region.Old then
          Gobj.iter_fields
            (fun i c ->
              let rc = Gobj.resolve c in
              if
                (not (Gobj.is_freed rc))
                && (H.region heap (Gobj.region rc)).Region.kind = Region.Young
              then begin
                let target_rid = Gobj.region rc in
                let covered (_name, f) =
                  f ~card:(H.card_of_field heap o i) ~target_rid
                  ||
                  match chase o with
                  | Some oc when oc != o && not (Gobj.is_freed oc) ->
                      f ~card:(H.card_of_field heap oc i) ~target_rid
                  | _ -> false
                in
                List.iter
                  (fun p ->
                    if not (covered p) then
                      emit t ~invariant:"remset-coverage" ~region:r.Region.rid
                        ~object_id:(Gobj.id o)
                        "old→young edge not covered by %s: holder #%d \
                         (region %d, fwd=%b) field %d (card %d) → young #%d \
                         (region %d); stored ref uid=%d region=%d stale=%b"
                        (fst p) (Gobj.id o) r.Region.rid (Gobj.is_forwarded o) i
                        (H.card_of_field heap o i) (Gobj.id rc) target_rid
                        (Gobj.uid c) (Gobj.region c) (c != rc))
                  providers
              end)
            o)
  end

(* ------------------------------------------------------------------ *)
(* Stub recycling.                                                      *)

(** Called by the heap's grace periods ({!Heap.Grace.set_check}) with
    each batch of stubs about to be recycled: once the period has ended
    nothing may name them, so no root slot may hold one and each must
    still have no incoming heap edge.  Runs at both levels (it costs one
    pass over the roots and the batch per period). *)
let check_stubs t (batch : Gobj.t Util.Vec.t) =
  t.checks <- t.checks + 1;
  t.phase <- "stub-recycle";
  let rooted = Hashtbl.create 64 in
  RtM.iter_roots t.rt (fun o ->
      if o != Gobj.null then Hashtbl.replace rooted (Gobj.uid o) ());
  Util.Vec.iter
    (fun (o : Gobj.t) ->
      if Hashtbl.mem rooted (Gobj.uid o) then
        emit t ~invariant:"stub-grace" ~object_id:(Gobj.id o)
          "a root slot names forwarded record uid %d when its grace period \
           ends and it is about to be recycled"
          (Gobj.uid o)
      else if Gobj.inrefs o <> 0 then
        emit t ~invariant:"stub-grace" ~object_id:(Gobj.id o)
          "forwarded record uid %d has %d incoming heap edges when its \
           grace period ends and it is about to be recycled"
          (Gobj.uid o) (Gobj.inrefs o))
    batch

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)

let on_phase t ~collector phase =
  t.checks <- t.checks + 1;
  t.collector <- collector;
  t.phase <- Vhook.phase_to_string phase;
  check_accounting t;
  if t.full then
    match phase with
    | Vhook.Mark_start -> t.mark_watermark <- Gobj.uid_watermark ()
    | Vhook.Mark_end ->
        check_satb t;
        check_marking_live t;
        check_crdt t
    | Vhook.Young_mark_end -> check_young_satb t
    | Vhook.Remset_scan -> check_remset_coverage t
    | Vhook.Safepoint_release ->
        check_region_contents t;
        check_reachability t
    | Vhook.Evac_start | Vhook.Evac_end | Vhook.Cycle_end -> ()
