(** Machinery shared by every collector: batched GC-thread cost
    accounting, parallel worker phases and the claim loop that feeds
    them, root scanning, the SATB mark cycle, the evacuation kernel,
    remembered-set scanning, the allocation stall, and the escalation
    path everyone ends on — a stop-the-world full compaction, then OOM. *)

open Heap

module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(* ------------------------------------------------------------------ *)
(* Batched cost accounting for GC threads.                              *)

module Ticker = struct
  type t = { mutable pending : int; workers : int }

  (** Ticks are paid to the engine in chunks of about this many ns. *)
  let batch = 20_000

  (** [workers] divides all billed cost: under a stop-the-world pause,
      [k <= cores] workers sharing the work finish in work/k wall time
      with no contention (all mutators are stopped), so serially executed
      STW phases bill cost/k — exact in this machine model.  Concurrent
      phases use real worker fibers instead and must keep [workers = 1]. *)
  let create ?(workers = 1) () =
    if workers < 1 then invalid_arg "Ticker.create";
    { pending = 0; workers }

  let flush t =
    if t.pending > 0 then begin
      let n = (t.pending + t.workers - 1) / t.workers in
      t.pending <- 0;
      Sim.Engine.tick n
    end

  (** Accumulate [n] ns, paying the engine in ~{!batch}-sized chunks so
      GC loops do not suspend on every object. *)
  let tick t n =
    t.pending <- t.pending + n;
    if t.pending >= batch * t.workers then flush t
end

(** A ticker for work done inside a stop-the-world pause, shared by one
    worker per core. *)
let stw_ticker rt = Ticker.create ~workers:(Sim.Engine.cores rt.RtM.engine) ()

(** Return [r] to the free list, billing the region reset to [tk]. *)
let release_region rt tk r =
  Heap_impl.release_region rt.RtM.heap r;
  Ticker.tick tk rt.RtM.costs.Costs.region_reset

(** Concurrent GC threads of every baseline collector. *)
let gc_threads = 2

(** How long an idle controller, Jade's included, sleeps before
    re-checking its triggers. *)
let poll_interval = 100 * Util.Units.us

(* ------------------------------------------------------------------ *)
(* Parallel GC worker phases.                                           *)

(** Run [n] GC worker fibers executing [f worker_index ticker] and block
    the calling fiber until all finish. *)
let run_workers rt ~n ~name f =
  let engine = rt.RtM.engine in
  let remaining = ref n in
  let done_c = Sim.Engine.cond (name ^ ".done") in
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.spawn engine ~daemon:true ~kind:Sim.Engine.Gc
         ~name:(Printf.sprintf "%s-%d" name i)
         (fun () ->
           let tk = Ticker.create () in
           f i tk;
           Ticker.flush tk;
           decr remaining;
           if !remaining = 0 then Sim.Engine.broadcast engine done_c))
  done;
  while !remaining > 0 do
    Sim.Engine.wait done_c
  done

(* ------------------------------------------------------------------ *)
(* Roots.                                                               *)

(** Scan all root sets, calling [f] on each live root; bills root-scan
    cost to the calling fiber (used under STW or at init-mark). *)
let scan_roots rt (tk : Ticker.t) f =
  let costs = rt.RtM.costs in
  RtM.iter_roots rt (fun o ->
      (* Empty slots (the null sentinel) still bill a root-scan tick:
         the stack scan touches every slot either way. *)
      Ticker.tick tk costs.Costs.root_scan;
      if o != Gobj.null then f (Gobj.resolve o))

(* ------------------------------------------------------------------ *)
(* SATB concurrent marking.                                             *)

module Marker = struct
  (** Which mark word the cycle uses; young and old cycles co-run and
      must not alias each other's mark state.  A young mark traces young
      regions only. *)
  type gen = Old_gen | Young_gen

  type t = {
    rt : RtM.t;
    gen : gen;
    remap : bool;  (** fix stale refs while tracing (ZGC-style remap) *)
    atomic_cost : bool;  (** bill a CAS per object (colored pointers) *)
    crdt : Crdt.t option;  (** record cross-region refs while marking *)
    satb : Gobj.t Util.Vec.t;  (** overwritten values enqueued by mutators *)
    stack : Gobj.t Util.Vec.t;  (** gray worklist *)
    mutable active : bool;
  }

  let create ?(gen = Old_gen) ?(remap = false) ?(atomic_cost = false) ?crdt
      rt =
    {
      rt;
      gen;
      remap;
      atomic_cost;
      crdt;
      satb = Util.Vec.create Gobj.null;
      stack = Util.Vec.create Gobj.null;
      active = false;
    }

  let in_scope t (o : Gobj.t) =
    match t.gen with
    | Old_gen -> true
    | Young_gen ->
        t.rt.RtM.heap.Heap_impl.regions.(Gobj.region o).Region.kind
        = Region.Young

  let mark t heap o =
    match t.gen with
    | Old_gen -> Heap_impl.mark_object heap o
    | Young_gen -> Heap_impl.mark_object_young heap o

  (** Called by the write barrier: pre-store snapshot of the overwritten
      value.  Cheap test first; the queue is drained by mark workers.
      The queued record is flagged so region release never recycles it
      while the queue may still name it. *)
  let satb_enqueue t (old_v : Gobj.t) =
    if t.active then begin
      Gobj.set_flag old_v Gobj.flag_satb_logged;
      Util.Vec.push t.satb old_v
    end

  let is_active t = t.active

  let rec enqueue_all ms old_v =
    match ms with
    | [] -> ()
    | m :: rest ->
        satb_enqueue m old_v;
        enqueue_all rest old_v

  (** The SATB pre-write barrier over the markers [ms]: while any of them
      marks, bill one barrier and snapshot the overwritten value into
      every active queue. *)
  let pre_write costs ms (old_v : Gobj.t) =
    if List.exists is_active ms then begin
      Sim.Engine.tick costs.Costs.satb_barrier;
      if old_v != Gobj.null then enqueue_all ms old_v
    end

  (* Visit one gray object: mark children, push newly marked ones.
     Colored-pointer marking (ZGC/GenZ) recolors every reference with an
     atomic op and traverses uncompressed 64-bit references, so both a
     per-reference CAS and the compressed-oops tax apply (§2.4). *)
  let visit t (tk : Ticker.t) (o : Gobj.t) =
    let heap = t.rt.RtM.heap in
    let costs = t.rt.RtM.costs in
    let size_cost = Costs.mark_size_cost costs (Gobj.size o) in
    let size_cost =
      if t.atomic_cost then
        size_cost * (100 + costs.Costs.compressed_oops_tax_pct) / 100
      else size_cost
    in
    Ticker.tick tk (costs.Costs.mark_obj + size_cost);
    let nf = Gobj.num_fields o in
    for i = 0 to nf - 1 do
      Ticker.tick tk costs.Costs.mark_ref;
      if t.atomic_cost then Ticker.tick tk costs.Costs.mark_atomic;
      let child = Gobj.get_field o i in
      if child != Gobj.null then begin
        let child' = Gobj.resolve child in
        if t.remap && child' != child then begin
          Ticker.tick tk costs.Costs.heal;
          Gobj.set_field o i child'
        end;
        (match t.crdt with
        | Some crdt when Gobj.region child' <> Gobj.region o ->
            Ticker.tick tk costs.Costs.crdt_record;
            Crdt.record crdt ~card:(Heap_impl.card_of_field heap o i)
              ~rid:(Gobj.region child')
        | _ -> ());
        if in_scope t child' && mark t heap child' then
          Util.Vec.push t.stack child'
      end
    done

  (* Gray an object discovered from roots or SATB. *)
  let gray t (o : Gobj.t) =
    let o = Gobj.resolve o in
    if in_scope t o && mark t t.rt.RtM.heap o then
      Util.Vec.push t.stack o

  let drain t tk =
    (* Allocation-free: test emptiness, then [Vec.pop_last] — an option
       per element would be pure garbage in the hottest GC loop.  Control
       flow is unchanged — in
       particular the periodic flush check still runs after {e every}
       iteration, including the terminal empty one (flushing ticks
       virtual time, so moving it would shift the schedule). *)
    let continue_ = ref true in
    while !continue_ do
      if not (Util.Vec.is_empty t.stack) then
        visit t tk (Util.Vec.pop_last t.stack)
      else if not (Util.Vec.is_empty t.satb) then
        gray t (Util.Vec.pop_last t.satb)
      else continue_ := false;
      (* Yield periodically so concurrent marking really is concurrent. *)
      if Util.Vec.length t.stack land 255 = 0 then Ticker.flush tk
    done

  (** Concurrent marking body for [n] workers; the caller wraps it between
      an init-mark and a final-mark STW. *)
  let concurrent_mark t ~workers =
    run_workers t.rt ~n:workers ~name:"mark" (fun _i tk ->
        drain t tk;
        (* Pick up late SATB entries until the queue stays empty. *)
        let rounds = ref 0 in
        while (not (Util.Vec.is_empty t.satb)) && !rounds < 1000 do
          incr rounds;
          drain t tk
        done)

  (** One SATB mark cycle of [t]'s generation, as every
      concurrent-marking collector runs it:
      - an init-mark pause opens the mark (after retiring the TLABs when
        [retire_tlabs]), runs [at_init ()], grays the roots, runs
        [at_roots tk] and, for an old mark, fires [Mark_start];
      - [workers] fibers mark concurrently, timed as [phase] when given;
      - a [final] pause re-scans the roots (mutators may have stashed
        unmarked references in stack slots, which have no barrier),
        drains what is left, closes the mark, runs [at_final tk] and
        fires [Mark_end] ([Young_mark_end] for a young mark). *)
  let cycle ?(retire_tlabs = false) ?phase ?(at_init = ignore)
      ?(at_roots = ignore) ?(at_final = ignore) ~final ~workers t =
    let rt = t.rt in
    let heap = rt.RtM.heap in
    let metrics = rt.RtM.metrics in
    Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Init_mark (fun () ->
        if retire_tlabs then RtM.retire_all_tlabs rt;
        (match t.gen with
        | Old_gen -> ignore (Heap_impl.begin_mark heap)
        | Young_gen -> ignore (Heap_impl.begin_young_mark heap));
        at_init ();
        t.active <- true;
        let tk = stw_ticker rt in
        scan_roots rt tk (gray t);
        at_roots tk;
        Ticker.flush tk;
        if t.gen = Old_gen then RtM.fire_phase rt Runtime.Vhook.Mark_start);
    let timed edge =
      match phase with
      | Some name -> edge metrics name ~now:(Sim.Engine.now rt.RtM.engine)
      | None -> ()
    in
    timed Metrics.phase_begin;
    concurrent_mark t ~workers;
    timed Metrics.phase_end;
    Runtime.Safepoint.stw rt.RtM.safepoint final (fun () ->
        let tk = stw_ticker rt in
        scan_roots rt tk (gray t);
        drain t tk;
        t.active <- false;
        (match t.gen with
        | Old_gen -> Heap_impl.end_mark heap
        | Young_gen -> Heap_impl.end_young_mark heap);
        at_final tk;
        Ticker.flush tk;
        RtM.fire_phase rt
          (match t.gen with
          | Old_gen -> Runtime.Vhook.Mark_end
          | Young_gen -> Runtime.Vhook.Young_mark_end))
end

(* ------------------------------------------------------------------ *)
(* Evacuation.                                                          *)

module Evac = struct
  (** A GC thread's destination buffer: one claimed region per kind. *)
  type dest = {
    rt : RtM.t;
    kind : Region.kind;
    mutable current : Region.t option;
  }

  exception Evacuation_failure

  let make_dest rt kind = { rt; kind; current = None }

  let dest_region d ~size =
    let ok r = Region.fits r size in
    match d.current with
    | Some r when ok r -> r
    | _ -> (
        match Heap_impl.claim_region d.rt.RtM.heap d.kind with
        | Some r ->
            d.current <- Some r;
            r
        | None -> raise Evacuation_failure)

  (** Move [o] to the top of region [r]: mint the copy, install the
      forwarding pointer (logged under [site]) and bill the copy.  Every
      relocation in the simulator goes through here. *)
  let relocate rt tk ~site (r : Region.t) (o : Gobj.t) =
    let heap = rt.RtM.heap in
    let copy =
      Gobj.remake ~pool:heap.Heap_impl.pool ~uids:heap.Heap_impl.uids o
        ~age:(Gobj.age o + 1) ~region:r.Region.rid ~offset:r.Region.top
    in
    Heap_impl.push_relocated heap r copy;
    Gobj.set_forward ~hooks:heap.Heap_impl.hooks ~site o copy;
    Ticker.tick tk (Costs.copy_cost rt.RtM.costs (Gobj.size o));
    copy

  (** Copy [o] to [d], installing the forwarding pointer; returns the new
      copy.  Idempotent: an already-forwarded object returns its copy.
      [racy] plants the check-then-act bug a real CAS install closes
      (sanitizer regression tests only): after seeing the slot empty the
      worker suspends, so a second worker can relocate the same object. *)
  let copy_object ?(racy = false) ?window d (tk : Ticker.t) (o : Gobj.t) =
    if Gobj.is_forwarded o then Gobj.resolve o
    else begin
        if racy then begin
          Ticker.flush tk;
          Sim.Engine.yield ()
        end;
        (match window with
        | Some w ->
            (* Check-then-act window spanning a quantum boundary: the
               slot was seen empty, now burn [w] ns of real work before
               installing.  Unlike [racy]'s yield, this only loses the
               race when the scheduler runs a competing worker inside
               the window. *)
            Ticker.flush tk;
            Sim.Engine.tick w
        | None -> ());
        let r = dest_region d ~size:(Gobj.size o) in
        let copy = relocate d.rt tk ~site:"Evac.copy_object" r o in
        let heap = d.rt.RtM.heap in
        heap.Heap_impl.bytes_allocated <-
          heap.Heap_impl.bytes_allocated + Gobj.size o;
        copy
    end

  (** The tenuring rule of every copying young collection: an object is
      promoted once it has survived [age] collections, or once the
      cycle's [survivors] (bytes kept young) overflow a sixteenth of the
      heap (HotSpot-style survivor overflow). *)
  type tenure = { age : int; cap : int; mutable survivors : int }

  let tenure rt ~age =
    { age; cap = rt.RtM.heap.Heap_impl.cfg.heap_bytes / 16; survivors = 0 }

  let promotes t (o : Gobj.t) = Gobj.age o >= t.age || t.survivors > t.cap

  (** Which mark decides liveness in {!evacuate_region}. *)
  type liveness =
    | Old_mark
        (** the last old mark; a region allocated since its snapshot is
            wholly live *)
    | Young_mark
        (** the current young mark: snapshot regions all predate the
            cycle, and objects born during it were allocated marked *)

  (** The evacuation kernel: copy every live, not yet forwarded object of
      [region] to the destination [pick o] chooses, then run
      [after tk o copy].  One [Evac_batch] reports the region when it
      copied anything.  {!Evacuation_failure} escapes when a destination
      runs out of regions. *)
  let evacuate_region rt ?(live = Old_mark) ?(after = fun _ _ _ -> ()) ~pick
      tk (region : Region.t) =
    let heap = rt.RtM.heap in
    let copied = ref 0 in
    let objects = ref 0 in
    Util.Vec.iter
      (fun (o : Gobj.t) ->
        if
          (not (Gobj.is_forwarded o))
          &&
          match live with
          | Old_mark ->
              Heap_impl.is_marked heap o
              || region.Region.alloc_epoch >= heap.Heap_impl.mark_epoch
          | Young_mark -> Heap_impl.is_marked_young heap o
        then begin
          let copy = copy_object (pick o) tk o in
          after tk o copy;
          copied := !copied + Gobj.size o;
          incr objects
        end)
      region.Region.objects;
    if !objects > 0 && RtM.tracing rt then
      RtM.trace rt
        (Runtime.Tracepoint.Evac_batch { objects = !objects; bytes = !copied })
end

(* ------------------------------------------------------------------ *)
(* The claim loop.                                                      *)

(** Run [f ctx tk item] over [items] with [n] GC workers, each with its
    own ticker [tk] and [init tk] context (e.g. a destination buffer).
    Workers claim items in index order, each exactly once, and stop
    claiming when the items run out, when [stop ()] turns true (checked
    between items), or once an item has raised
    {!Evac.Evacuation_failure}.  Returns the unprocessed remainder and
    whether an item failed.  The remainder lists the unclaimed items from
    the highest index down, then the failing items (latest failure
    first). *)
let parallel_drain rt ~n ~name ?(stop = fun () -> false) ~init items f =
  let len = Array.length items in
  let next = ref 0 in
  let leftover = ref [] in
  let failed = ref false in
  run_workers rt ~n ~name (fun _ tk ->
      let ctx = init tk in
      let continue_ = ref true in
      while !continue_ do
        if stop () || !failed || !next >= len then continue_ := false
        else begin
          let i = !next in
          incr next;
          match f ctx tk items.(i) with
          | () -> ()
          | exception Evac.Evacuation_failure ->
              failed := true;
              leftover := items.(i) :: !leftover
        end
      done);
  for i = !next to len - 1 do
    leftover := items.(i) :: !leftover
  done;
  (!leftover, !failed)

(* ------------------------------------------------------------------ *)
(* Reference updating.                                                  *)

(** Fix all stale references inside the live objects of [region]; used by
    Shenandoah's update-refs phase which walks the whole heap. *)
let update_refs_in_region rt (tk : Ticker.t) (region : Region.t) =
  let heap = rt.RtM.heap in
  let costs = rt.RtM.costs in
  Util.Vec.iter
    (fun (o : Gobj.t) ->
      if
        Heap_impl.is_marked heap o
        || region.Region.alloc_epoch >= heap.Heap_impl.mark_epoch
      then begin
        Ticker.tick tk
          (costs.Costs.mark_obj + Costs.mark_size_cost costs (Gobj.size o));
        for i = 0 to Gobj.num_fields o - 1 do
          Ticker.tick tk costs.Costs.mark_ref;
          let child = Gobj.get_field o i in
          if Gobj.is_forwarded child then begin
            Ticker.tick tk costs.Costs.heal;
            Gobj.set_field o i (Gobj.resolve child)
          end
        done
      end)
    region.Region.objects

(** A card heal's per-worker context: the worker's ticker and the heal
    cost, built once per worker so that {!update_refs_in_card} allocates
    nothing per card. *)
type healer = { heal_tk : Ticker.t; heal_cost : int }

let healer rt tk = { heal_tk = tk; heal_cost = rt.RtM.costs.Costs.heal }

let heal_slot h o i =
  let child = Gobj.get_field o i in
  if Gobj.is_forwarded child then begin
    Ticker.tick h.heal_tk h.heal_cost;
    Gobj.set_field o i (Gobj.resolve child)
  end

(** Scan one card, fixing stale references in the slots it covers; the
    remembered-set consumers (Young_gen's update-refs, Jade group
    heals). *)
let update_refs_in_card rt h card =
  Ticker.tick h.heal_tk rt.RtM.costs.Costs.card_scan;
  Heap_impl.scan_card rt.RtM.heap card h ~f:heal_slot

(** Release humongous regions whose object died per the just-completed
    mark (G1's "eager reclaim"; every collector needs it because
    humongous regions are excluded from collection sets).  Returns the
    count released. *)
let reclaim_dead_humongous rt (tk : Ticker.t) =
  let heap = rt.RtM.heap in
  let n = ref 0 in
  Array.iter
    (fun (r : Region.t) ->
      if
        (not (Region.is_free r))
        && r.Region.humongous
        && r.Region.alloc_epoch < heap.Heap_impl.mark_epoch
        && r.Region.live_bytes = 0
      then begin
        release_region rt tk r;
        incr n
      end)
    heap.Heap_impl.regions;
  if !n > 0 then RtM.notify_memory_freed rt;
  !n

(* ------------------------------------------------------------------ *)
(* Full STW compaction: everyone's last resort.                         *)

(** Stop the world, mark everything reachable, compact, update every
    reference and release the emptied regions.  Returns reclaimed
    regions.  [on_live_ref holder i child] is called for every surviving
    cross-object reference during the update sweep, letting collectors
    rebuild their remembered sets (every pre-compaction entry is stale
    once objects move). *)
let stw_full_compact ?(on_live_ref = fun _ _ _ -> ()) rt =
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  (* Phase fires carry a suffixed collector name: collector-specific
     verifier checks (e.g. Jade's CRDT agreement, reset before the
     compaction) must not run against this embedded full-heap mark. *)
  let vname = rt.RtM.collector.RtM.cname ^ "+full-compact" in
  Runtime.Safepoint.stw rt.RtM.safepoint Metrics.Full_gc (fun () ->
      RtM.retire_all_tlabs rt;
      (* Full GC "sufficiently utilizes all available CPU resources"
         (§4.3 and all baselines): parallelize over every core. *)
      let tk = stw_ticker rt in
      (* Mark. *)
      let _epoch = Heap_impl.begin_mark heap in
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Mark_start;
      let marker = Marker.create rt in
      marker.Marker.active <- true;
      scan_roots rt tk (Marker.gray marker);
      Marker.drain marker tk;
      marker.Marker.active <- false;
      Heap_impl.end_mark heap;
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Mark_end;
      (* True sliding compaction: needs zero headroom.  Victims are
         processed in ascending-liveness order; each live object goes to
         the tail of an earlier, already-compacted region when one has
         space, otherwise the victim itself is compacted in place and
         joins the destination pool.  Fully drained victims are released
         immediately. *)
      let victims = ref [] in
      Array.iter
        (fun (r : Region.t) ->
          if
            (not (Region.is_free r))
            && (not r.Region.humongous)
            && Region.live_ratio r < 0.95
          then victims := r :: !victims)
        heap.Heap_impl.regions;
      let victims =
        List.sort
          (fun (a : Region.t) b -> compare a.Region.live_bytes b.Region.live_bytes)
          !victims
      in
      let dest_pool : Region.t Queue.t = Queue.create () in
      let current_dest = ref None in
      (* A compacted region with room for [size] more bytes.  The current
         destination's option cell is handed back as is, so the
         per-object placement allocates nothing. *)
      let rec pick size =
        match !current_dest with
        | Some (d : Region.t) as cur when Region.fits d size -> cur
        | _ ->
            if not (Queue.is_empty dest_pool) then begin
              current_dest := Some (Queue.pop dest_pool);
              pick size
            end
            else (
              (* Previously released victims are claimable too. *)
              match Heap_impl.claim_region heap Region.Old with
              | Some _ as cur ->
                  current_dest := cur;
                  cur
              | None -> None)
      in
      let place_elsewhere (o : Gobj.t) =
        match pick (Gobj.size o) with
        | None -> false
        | Some d ->
            ignore
              (Evac.relocate rt tk ~site:"full_compact.place_elsewhere" d o);
            true
      in
      let reclaimed = ref 0 in
      (* Scratch vectors, refilled per victim. *)
      let live = Util.Vec.create Gobj.null and stay = Util.Vec.create Gobj.null in
      List.iter
        (fun (r : Region.t) ->
          (* Partition the live objects of [r]. *)
          Util.Vec.clear live;
          Util.Vec.clear stay;
          Util.Vec.iter
            (fun (o : Gobj.t) ->
              if (not (Gobj.is_forwarded o)) && Heap_impl.is_marked heap o
              then Util.Vec.push live o)
            r.Region.objects;
          Util.Vec.iter
            (fun o -> if not (place_elsewhere o) then Util.Vec.push stay o)
            live;
          if Util.Vec.is_empty stay then begin
            release_region rt tk r;
            incr reclaimed
          end
          else begin
            (* In-place slide: rebuild the region with only its live
               objects; it then joins the destination pool. *)
            Heap_impl.begin_region_rebuild heap r;
            (* Region.clear_objects, not a raw Vec.clear: the in-place
               slide re-pushes survivors, and the block-offset table must
               be invalidated with the object vector or later card scans
               would start from indices of the pre-slide layout. *)
            Region.clear_objects r;
            Util.Vec.iter
              (fun o ->
                ignore
                  (Evac.relocate rt tk ~site:"full_compact.slide_in_place" r o))
              stay;
            r.Region.live_bytes <- r.Region.top;
            Queue.push r dest_pool
          end)
        victims;
      ignore (reclaim_dead_humongous rt tk);
      (* Dense young regions were skipped by compaction (nothing to gain
         from copying them); promote them in place — their objects have
         survived a full collection and belong to the old generation.
         Without this, a dense young region would be bounce-copied by
         every subsequent young collection. *)
      Array.iter
        (fun (r : Region.t) ->
          if r.Region.kind = Region.Young then r.Region.kind <- Region.Old)
        heap.Heap_impl.regions;
      (* Update all references, then roots. *)
      Array.iter
        (fun (r : Region.t) ->
          if not (Region.is_free r) then begin
            update_refs_in_region rt tk r;
            Util.Vec.iter
              (fun (o : Gobj.t) ->
                if Heap_impl.is_marked heap o && not (Gobj.is_forwarded o) then
                  (* [Gobj.iter_fields] spelled out: its callback would
                     be a fresh closure over [o] per live object. *)
                  for i = 0 to Gobj.num_fields o - 1 do
                    let child = Gobj.get_field o i in
                    if child != Gobj.null then on_live_ref o i child
                  done)
              r.Region.objects
          end)
        heap.Heap_impl.regions;
      RtM.update_roots rt;
      let cleared = Heap_impl.process_weak_refs_marked heap in
      Ticker.tick tk (cleared * rt.RtM.costs.Costs.weak_ref_process);
      Ticker.flush tk;
      Metrics.add metrics "full_gc_count" 1;
      RtM.notify_memory_freed rt;
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Evac_end;
      RtM.fire_phase ~collector:vname rt Runtime.Vhook.Cycle_end;
      !reclaimed)

(* ------------------------------------------------------------------ *)
(* Escalation.                                                          *)

(** Free regions below which a collection has made no usable progress. *)
let low_watermark heap = max 2 (Heap_impl.num_regions heap / 50)

let below_low_watermark rt =
  let heap = rt.RtM.heap in
  Heap_impl.free_regions heap < low_watermark heap

(** The last rung of every collector's escalation ladder: a full
    compaction ([on_live_ref] as in {!stw_full_compact}), then
    out-of-memory if even that left the heap below the low watermark. *)
let full_gc_or_oom ?on_live_ref rt =
  ignore (stw_full_compact ?on_live_ref rt);
  if below_low_watermark rt then begin
    rt.RtM.oom <- true;
    RtM.notify_memory_freed rt
  end

let count_regions (heap : Heap_impl.t) kind =
  let n = ref 0 in
  for i = 0 to Array.length heap.Heap_impl.regions - 1 do
    if heap.Heap_impl.regions.(i).Region.kind = kind then incr n
  done;
  !n

(** Young regions (humongous regions are always old). *)
let young_count rt = count_regions rt.RtM.heap Region.Young

(** Old regions as a fraction of the heap (the old-cycle trigger). *)
let old_occupancy rt =
  let heap = rt.RtM.heap in
  float_of_int (count_regions heap Region.Old)
  /. float_of_int (Heap_impl.num_regions heap)

(* ------------------------------------------------------------------ *)
(* Installation.                                                        *)

(** Plug a collector into [rt] and start its controllers.  On allocation
    failure the mutator runs [on_alloc_failure] (the collector's request
    for memory), then stalls — parked, so safepoints need not wait for
    it — until memory is freed.  Each [(name, step)] of [controllers]
    becomes a daemon GC fiber, spawned in order, that runs [step ()]
    forever: one step decides on, and runs, at most one collection (or
    sleeps {!poll_interval}).  Between steps the controller holds no
    collection state, so each one starts at a quiescent point of the
    heap's grace periods ({!Heap.Grace}): a stub released while a cycle
    runs is not recycled before that cycle has ended. *)
let install rt ~name ~store_barrier ~load_extra_cost ~mutator_tax_pct
    ~on_alloc_failure controllers =
  let alloc_failure () =
    on_alloc_failure ();
    Runtime.Safepoint.park rt.RtM.safepoint;
    Sim.Engine.wait rt.RtM.mem_freed;
    Runtime.Safepoint.unpark rt.RtM.safepoint
  in
  RtM.install_collector rt
    {
      RtM.cname = name;
      store_barrier;
      load_extra_cost;
      mutator_tax_pct;
      alloc_failure;
    };
  let grace = rt.RtM.heap.Heap_impl.grace in
  List.iter
    (fun (name, step) ->
      let p = Grace.register grace in
      ignore
        (Sim.Engine.spawn rt.RtM.engine ~daemon:true ~kind:Sim.Engine.Gc ~name
           (fun () ->
             while true do
               Grace.quiescent grace p;
               step ()
             done)))
    controllers
