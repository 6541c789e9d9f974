(** Garbage-First (G1) collector model (Detlefs et al., §2 & §5 baselines).

    Young and mixed collections evacuate in STW pauses; old liveness comes
    from a concurrent SATB marking cycle triggered at an occupancy
    threshold (IHOP).  The eden budget adapts to the [-XX:MaxGCPauseMillis]
    soft limit: the "G1-10ms" configuration of the paper is this collector
    with a 10 ms target, trading throughput (smaller eden, more frequent
    pauses) for latency, exactly the effect Table 3 shows. *)

open Heap
module RtM = Runtime.Rt
module Metrics = Runtime.Metrics

(** Occupancy fraction that starts concurrent mark. *)
let ihop_pct = 0.45

(** Young collections an object survives before promotion. *)
let tenure_age = 2

type t = {
  rt : RtM.t;
  pause_target : int;  (** soft pause limit, ns *)
  remsets : Region_remsets.t;
  marker : Common.Marker.t;
  mutable marking : bool;
  mutable candidates : Region.t list;  (** mixed-collection victims *)
  cset : Region.t Util.Vec.t;  (** the pause's collection set *)
  cards : int Util.Vec.t;  (** the remset rebuild's dirty cards *)
  mutable young_budget : int;  (** regions of eden before a young GC *)
  mutable urgent : bool;  (** an allocation failed; collect now *)
  mutable last_pause_est : int;
}

(* ------------------------------------------------------------------ *)
(* Collection-set policy.                                               *)

(* Take mixed candidates while the predicted pause fits in the budget:
   copying cost plus remembered-set card scans (G1's pause prediction). *)
let take_mixed_slice t =
  let budget = ref (t.pause_target - t.last_pause_est) in
  let slice = ref [] and n = ref 0 in
  let continue_ = ref true in
  let stw_workers = Sim.Engine.cores t.rt.RtM.engine in
  while !continue_ do
    match t.candidates with
    | [] -> continue_ := false
    | r :: rest ->
        (* Pause prediction: copying plus remembered-set scanning plus the
           reference-fixing sweep, shared by the STW workers.  The 3x
           factor over raw copy cost matches measured mixed pauses. *)
        let est =
          (3 * Costs.copy_cost r.Region.live_bytes)
          + (Region_remsets.cardinal t.remsets r.Region.rid * Costs.card_scan)
        in
        let est = est / Int.max 1 stw_workers in
        if (!n > 0 && est > !budget) || r.Region.kind <> Region.Old then begin
          if r.Region.kind <> Region.Old then t.candidates <- rest
          else continue_ := false
        end
        else begin
          t.candidates <- rest;
          budget := !budget - est;
          slice := r :: !slice;
          incr n
        end
  done;
  !slice

let adapt_young_budget t ~pause =
  let target = t.pause_target in
  t.last_pause_est <- (t.last_pause_est + pause) / 2;
  let ratio = float_of_int target /. float_of_int (Int.max pause 1) in
  let ratio = Float.min 2.0 (Float.max 0.5 ratio) in
  let heap_regions = Heap_impl.num_regions t.rt.RtM.heap in
  let proposed = int_of_float (float_of_int t.young_budget *. ratio) in
  t.young_budget <- Int.max 2 (Int.min proposed (heap_regions * 6 / 10))

(* ------------------------------------------------------------------ *)
(* Pauses and concurrent cycle.                                         *)

let collect t ~mixed =
  let old_cset = if mixed then take_mixed_slice t else [] in
  let kind = if mixed then Metrics.Mixed_stw else Metrics.Young_stw in
  let t0 = Sim.Engine.now t.rt.RtM.engine in
  let extra_roots =
    if t.marking then [ t.marker.Common.Marker.stack; t.marker.Common.Marker.satb ]
    else []
  in
  let failed =
    Stw_collect.collect t.rt ~remsets:t.remsets ~tenure_age ~cset:t.cset
      ~old_cset ~extra_roots ~pause_kind:kind ()
  in
  adapt_young_budget t ~pause:(Sim.Engine.now t.rt.RtM.engine - t0);
  Metrics.add t.rt.RtM.metrics "g1.young_collections" 1;
  failed

let full_gc t =
  t.candidates <- [];
  Stw_collect.full_gc t.rt t.remsets

let remset_rebuild_wanted (r : Region.t) =
  (not (Region.is_free r)) && Stw_collect.remember_from r

(** One remset-rebuild worker's share, cards [lo] to [hi - 1] of [cards]:
    record each scanned card's cross-region references, then clean it.
    The slot visitor is built once per call and the card is the scan's
    context, so a card allocates nothing. *)
let rebuild_remset_cards heap remsets tk cards ~lo ~hi =
  let rebuild_slot card o i =
    let child = Gobj.get_field o i in
    if child != Gobj.null && Gobj.region (Gobj.resolve child) <> Gobj.region o
    then begin
      Common.Ticker.tick tk Costs.remset_insert;
      Region_remsets.add remsets
        ~target_rid:(Gobj.region (Gobj.resolve child))
        ~card
    end
  in
  for idx = lo to hi - 1 do
    let card = Util.Vec.get cards idx in
    Common.Ticker.tick tk Costs.card_scan;
    let holder_r = Heap_impl.region heap (Heap_impl.card_to_region heap card) in
    if remset_rebuild_wanted holder_r then
      Heap_impl.scan_card heap card card ~f:rebuild_slot;
    Heap_impl.clean_card heap card
  done

(* One full concurrent marking cycle: STW init, concurrent trace, STW
   remark (weak refs), concurrent remembered-set rebuild from the dirty
   card table, then candidate selection. *)
let run_mark_cycle t =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let metrics = rt.RtM.metrics in
  t.marking <- true;
  Metrics.phase_begin metrics "g1.conc_mark" ~now:(Sim.Engine.now rt.RtM.engine);
  Common.Marker.cycle t.marker ~final:Metrics.Remark
    ~workers:Common.gc_threads ~at_final:(fun tk ->
      let cleared = Heap_impl.process_weak_refs_marked heap in
      Common.Ticker.tick tk (cleared * Costs.weak_ref_process));
  Metrics.phase_end metrics "g1.conc_mark" ~now:(Sim.Engine.now rt.RtM.engine);
  (* Concurrent remembered-set rebuild: scan every dirty card, record
     cross-region references, clean the card (Table 7's G1 "Build"). *)
  Metrics.phase_begin metrics "g1.remset_build"
    ~now:(Sim.Engine.now rt.RtM.engine);
  (* Highest card first: chunk assignment below depends on the order. *)
  let cards = t.cards in
  Heap_impl.snapshot_dirty_cards heap cards;
  Metrics.add metrics "g1.cards_scanned" (Util.Vec.length cards);
  Common.run_workers rt ~n:Common.gc_threads ~name:"g1-rebuild" (fun w tk ->
      let n = Util.Vec.length cards in
      let chunk = (n + Common.gc_threads - 1) / Common.gc_threads in
      rebuild_remset_cards heap t.remsets tk cards ~lo:(w * chunk)
        ~hi:(Int.min n ((w + 1) * chunk)));
  Metrics.phase_end metrics "g1.remset_build" ~now:(Sim.Engine.now rt.RtM.engine);
  t.candidates <- Stw_collect.old_candidates heap;
  t.marking <- false;
  RtM.fire_phase rt Runtime.Vhook.Cycle_end

(* ------------------------------------------------------------------ *)
(* Controller daemon.                                                   *)

(* Every collection escalates on insufficient progress — ordinary
   collection, then marking + mixed collections, then a full compaction,
   then OOM — so a failed evacuation can never spin the controller. *)
let ensure_progress t =
  let failed = collect t ~mixed:(t.candidates <> []) in
  if failed || Common.below_low_watermark t.rt then begin
    if t.candidates = [] then run_mark_cycle t;
    let guard = ref 8 in
    while
      Common.below_low_watermark t.rt && t.candidates <> [] && !guard > 0
    do
      decr guard;
      ignore (collect t ~mixed:true)
    done;
    if Common.below_low_watermark t.rt then full_gc t
  end

let controller t () =
  let rt = t.rt in
  if t.urgent then begin
    t.urgent <- false;
    ensure_progress t
  end
  else if
    Common.young_count rt >= t.young_budget
    || Heap_impl.free_regions rt.RtM.heap
       <= Int.max 2 (Heap_impl.num_regions rt.RtM.heap / 16)
       && Common.young_count rt > 0
  then ensure_progress t
  else if
    (not t.marking) && t.candidates = [] && Common.old_occupancy rt >= ihop_pct
  then run_mark_cycle t
  else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

(* ------------------------------------------------------------------ *)
(* Plumbing.                                                            *)

let install ?(pause_target = 200 * Util.Units.ms) rt =
  let heap = rt.RtM.heap in
  let t =
    {
      rt;
      pause_target;
      remsets = Region_remsets.create heap;
      marker = Common.Marker.create rt;
      marking = false;
      candidates = [];
      cset = Common.region_buffer ();
      cards = Util.Vec.create 0;
      young_budget = Int.max 4 (Heap_impl.num_regions heap / 4);
      urgent = false;
      last_pause_est = Util.Units.ms;
    }
  in
  (* Verifier metadata: a per-target-region remset covers an old→young
     edge; a still-dirty card does too — refinement inserts inline, so
     the dirty bit is only a pre-rebuild backup. *)
  RtM.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "g1.remsets";
      rp_covers =
        (fun () ->
          Some
            (fun ~card ~target_rid ->
              (match Region_remsets.get t.remsets target_rid with
              | Some rs -> Remset.mem rs card
              | None -> false)
              || Heap_impl.card_is_dirty heap card));
    };
  let markers = [ t.marker ] in
  let store_barrier ~src ~field ~old_v ~new_v =
    Common.Marker.pre_write markers old_v;
    if new_v != Gobj.null && Gobj.region new_v <> Gobj.region src then begin
      (* Post-write barrier: dirty the card; refinement inserts the
         remembered-set entry inline. *)
      Sim.Engine.tick Costs.card_barrier;
      Heap_impl.dirty_card heap (Heap_impl.card_of_field heap src field);
      Stw_collect.barrier_insert rt t.remsets ~src ~field ~child:new_v
    end
  in
  Common.install rt ~name:"g1" ~store_barrier ~load_extra_cost:0
    ~mutator_tax_pct:0
    ~on_alloc_failure:(fun () -> t.urgent <- true)
    [ ("g1-controller", fun _ -> controller t) ];
  t
