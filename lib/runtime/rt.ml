(** The managed-runtime bundle tying engine, heap, metrics and the active
    collector together, plus the shared allocation path.

    The collector is plugged in as a record of closures ({!collector}) so
    that the mutator fast paths (allocation, reference load/store) stay
    generic while barrier behaviour and the allocation-failure policy stay
    collector-specific. *)

type collector = {
  cname : string;
  store_barrier :
    src:Heap.Gobj.t -> field:int -> old_v:Heap.Gobj.t -> new_v:Heap.Gobj.t -> unit;
      (** write barrier, runs in the storing mutator's fiber (may tick);
          [old_v]/[new_v] are raw slot values — {!Heap.Gobj.null} for an
          empty slot, never boxed *)
  load_extra_cost : int;  (** per-reference-load surcharge beyond LVB base *)
  mutator_tax_pct : int;
      (** % slowdown of all mutator work (compressed-oops-disabled tax) *)
  alloc_failure : unit -> unit;
      (** called from the allocating mutator's fiber when no free region is
          available; must return when a retry is sensible, and may park the
          caller, trigger a GC cycle, or set {!field-oom} *)
}

exception Out_of_memory of string

type t = {
  engine : Sim.Engine.t;
  heap : Heap.Heap_impl.t;
  costs : Heap.Costs.t;
  metrics : Metrics.t;
  safepoint : Safepoint.t;
  mem_freed : Sim.Engine.cond;  (** broadcast whenever regions are released *)
  globals : Heap.Gobj.t Util.Vec.t;
      (** global root slots; {!Heap.Gobj.null} = empty *)
  mutable root_sets : Heap.Gobj.t Util.Vec.t list;
      (** all root vectors: globals plus each mutator's stack *)
  mutable collector : collector;
  mutable retire_tlab_hooks : (unit -> unit) list;
      (** one per mutator; collectors call {!retire_all_tlabs} at cycle
          starts so partially-filled allocation regions become collectible *)
  mutable stalled_mutators : int;
  mutable oom : bool;
  mutable stop_flag : bool;  (** harness tells mutator loops to wind down *)
  mutable next_mid : int;
      (** mutator-id allocator — runtime-scoped (not a process global) so
          concurrent runs in sibling domains mint identical id streams *)
  prng : Util.Prng.t;
  (* -- correctness-tooling registry (lib/analysis); all empty/off by
     default and populated only when a sanitizer is installed or a
     collector registers its metadata sources. ----------------------- *)
  mutable phase_hook : (collector:string -> Vhook.phase -> unit) option;
      (** fired by collectors at phase boundaries via {!fire_phase} *)
  mutable remset_providers : Vhook.remset_provider list;
      (** collector-registered old→young coverage sources *)
  mutable crdt_source : (string * Heap.Crdt.t) option;
      (** (owning collector, table) — checked at that collector's
          [Mark_end] against the objects' mark epochs *)
  mutable verify_level : int;
      (** 0 = off, 1 = fast, 2 = full; written by the sanitizer so a
          second install request can be deduplicated *)
}

(* A collector that cannot reclaim anything: allocation failure is OOM.
   Used by unit tests that never exhaust the heap. *)
let null_collector : collector =
  {
    cname = "none";
    store_barrier = (fun ~src:_ ~field:_ ~old_v:_ ~new_v:_ -> ());
    load_extra_cost = 0;
    mutator_tax_pct = 0;
    alloc_failure = (fun () -> raise (Out_of_memory "no collector installed"));
  }

(* [seed] is required, not defaulted: every PRNG stream in library code
   must trace back to an explicit seed (no ambient randomness), so a
   run's configuration is visible at its construction site. *)
let create ~seed ~engine ~heap () =
  let costs = heap.Heap.Heap_impl.costs in
  let metrics = Metrics.create () in
  let globals = Util.Vec.create Heap.Gobj.null in
  {
    engine;
    heap;
    costs;
    metrics;
    safepoint = Safepoint.create engine metrics costs;
    mem_freed = Sim.Engine.cond "rt.mem_freed";
    globals;
    root_sets = [ globals ];
    collector = null_collector;
    retire_tlab_hooks = [];
    stalled_mutators = 0;
    oom = false;
    stop_flag = false;
    next_mid = 0;
    prng = Util.Prng.create seed;
    phase_hook = None;
    remset_providers = [];
    crdt_source = None;
    verify_level = 0;
  }

let install_collector t c = t.collector <- c

(** Emit an observability event ([lib/obs]); one load and one branch
    when no tracer is installed.  Callers must build the payload inside
    their own tracer check when allocation in the disabled case matters
    — this helper is for sites that pass a preconstructed payload. *)
let trace t payload =
  match t.metrics.Metrics.tracer with None -> () | Some f -> f payload

let tracing t = t.metrics.Metrics.tracer <> None

(** Announce a collector phase boundary to an installed sanitizer.  The
    hook runs synchronously in the calling fiber and must not tick, so a
    disabled sanitizer leaves simulated traces bit-identical. *)
let fire_phase ?collector t phase =
  (match t.metrics.Metrics.tracer with
  | Some f ->
      let collector =
        match collector with Some c -> c | None -> t.collector.cname
      in
      f
        (Tracepoint.Boundary
           { collector; boundary = Vhook.phase_to_string phase })
  | None -> ());
  match t.phase_hook with
  | None -> ()
  | Some f ->
      let collector =
        match collector with Some c -> c | None -> t.collector.cname
      in
      f ~collector phase

let register_remset_provider t p =
  t.remset_providers <- p :: t.remset_providers

let register_crdt_source t ~collector crdt =
  t.crdt_source <- Some (collector, crdt)

let register_root_set t v = t.root_sets <- v :: t.root_sets

let iter_roots t f = List.iter (fun v -> Util.Vec.iter f v) t.root_sets

(** Replace every root slot with the newest copy of its target (STW root
    fixup done at collection-cycle boundaries). *)
let update_roots t =
  List.iter
    (fun v ->
      Util.Vec.iteri
        (fun i o ->
          if Heap.Gobj.is_forwarded o then
            Util.Vec.set v i (Heap.Gobj.resolve o))
        v)
    t.root_sets

let notify_memory_freed t = Sim.Engine.broadcast t.engine t.mem_freed

(* ------------------------------------------------------------------ *)
(* Slow-path allocation.                                                *)

(** Each mutator uses a whole region as its TLAB (regions are small
    relative to the heap; this keeps every region single-writer so object
    offsets stay sorted).  Returns [None] when the heap is out of free
    regions — the caller must then invoke the collector's
    allocation-failure policy and retry. *)
let claim_tlab_region t = Heap.Heap_impl.claim_region t.heap Heap.Region.Young

let add_retire_hook t f = t.retire_tlab_hooks <- f :: t.retire_tlab_hooks

(** Detach every mutator from its current allocation region (called under
    STW at collection-cycle starts). *)
let retire_all_tlabs t = List.iter (fun f -> f ()) t.retire_tlab_hooks

(** Claim a whole region for a humongous allocation.  Humongous objects
    are allocated directly in the old generation (as in HotSpot): they
    are never young-evacuated, and their regions feed the old-occupancy
    triggers so dead ones are found by marking and eagerly reclaimed. *)
let claim_humongous_region t =
  match Heap.Heap_impl.claim_region t.heap Heap.Region.Old with
  | None -> None
  | Some r ->
      r.humongous <- true;
      Some r

let add_global t o =
  Util.Vec.push t.globals o;
  Util.Vec.length t.globals - 1

let get_global t i = Util.Vec.get t.globals i
