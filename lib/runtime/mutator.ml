(** Mutator (application thread) operations.

    Workloads drive the heap exclusively through this module: every
    allocation, reference load and reference store goes through the fast
    paths here, which charge the cost model, apply the active collector's
    barriers and poll the safepoint.  The loaded-value barrier is built in:
    a load whose target has been relocated is healed to the newest copy,
    exactly as in ZGC/Jade (§3.1).

    Costs of consecutive fast-path operations are accumulated locally and
    flushed to the engine at safepoint polls and blocking points, keeping
    host overhead low without changing any measured interval by more than
    a few virtual microseconds. *)

type t = {
  mid : int;
  rt : Rt.t;
  prng : Util.Prng.t;
  roots : Heap.Gobj.t Util.Vec.t;
      (** simulated stack slots; {!Heap.Gobj.null} marks an empty slot *)
  mutable tlab : Heap.Region.t option;
  mutable ops : int;  (** ops since the last safepoint poll *)
  mutable pending_ns : int;  (** accumulated unflushed CPU cost *)
  mutable tax_ns : int;
      (** cumulative mutator-tax surcharge ({!taxed}); the request driver
          reads deltas per request for the trace ({!take_tax}) *)
  grace : int;  (** participant index in the heap's grace periods *)
}

let poll_interval = 24

(* Mutator work is chunked so safepoint polls stay frequent even inside
   long [work] calls; 4 us keeps time-to-safepoint well under a quantum. *)
let work_chunk_ns = 4_000

let create rt =
  let mid = rt.Rt.next_mid in
  rt.Rt.next_mid <- mid + 1;
  let m =
    {
      mid;
      rt;
      prng = Util.Prng.split rt.Rt.prng;
      roots = Util.Vec.create Heap.Gobj.null;
      tlab = None;
      ops = 0;
      pending_ns = 0;
      tax_ns = 0;
      grace = Heap.Grace.register rt.Rt.heap.Heap.Heap_impl.grace;
    }
  in
  Safepoint.register rt.Rt.safepoint;
  Rt.register_root_set rt m.roots;
  Rt.add_retire_hook rt (fun () -> m.tlab <- None);
  m

let engine m = m.rt.Rt.engine

let flush m =
  if m.pending_ns > 0 then begin
    let n = m.pending_ns in
    m.pending_ns <- 0;
    Sim.Engine.tick n
  end

let now m =
  flush m;
  Sim.Engine.now (engine m)

let check_safepoint m =
  flush m;
  Safepoint.check m.rt.Rt.safepoint

let maybe_check m =
  m.ops <- m.ops + 1;
  if m.ops >= poll_interval then begin
    m.ops <- 0;
    check_safepoint m
  end

(* Apply the collector's mutator tax (e.g. compressed-oops disabled).
   The common case is a zero tax; skip the mul/div every op then. *)
let taxed m ns =
  let pct = m.rt.Rt.collector.mutator_tax_pct in
  if pct = 0 then ns
  else begin
    let extra = ns * pct / 100 in
    m.tax_ns <- m.tax_ns + extra;
    ns + extra
  end

(** Tax charged since the last call (the per-request delta the driver
    attaches to [Request_end] trace events). *)
let take_tax m =
  let t = m.tax_ns in
  m.tax_ns <- 0;
  t

let tick m ns = m.pending_ns <- m.pending_ns + taxed m ns

(** Burn [ns] of application CPU, polling safepoints along the way. *)
let work m ns =
  flush m;
  let remaining = ref (taxed m ns) in
  while !remaining > 0 do
    let c = Int.min !remaining work_chunk_ns in
    Sim.Engine.tick c;
    remaining := !remaining - c;
    Safepoint.check m.rt.Rt.safepoint
  done

let safe_sleep_until m wake =
  flush m;
  Safepoint.park m.rt.Rt.safepoint;
  Sim.Engine.sleep_until (engine m) wake;
  Safepoint.unpark m.rt.Rt.safepoint

(* ------------------------------------------------------------------ *)
(* Allocation.                                                          *)

let rec alloc_slow m ~size ~nrefs =
  let rt = m.rt in
  (match m.tlab with
  | Some r when not (Heap.Region.fits r size) -> m.tlab <- None
  | _ -> ());
  let claimed =
    match m.tlab with
    | Some r -> Some r
    | None ->
        let r = Rt.claim_tlab_region rt in
        (match r with
        | Some _ -> tick m Heap.Costs.alloc_tlab_refill
        | None -> ());
        m.tlab <- r;
        r
  in
  match claimed with
  | Some r -> Heap.Heap_impl.alloc_in rt.Rt.heap r ~size ~nrefs
  | None ->
      if rt.Rt.oom then
        raise (Rt.Out_of_memory "allocation failed after full collection");
      (* Allocation stall: same effect as a pause for this mutator (§2.2).
         The collector decides how to make progress (trigger a cycle,
         degenerate, enter chasing mode...) and returns when retrying makes
         sense. *)
      flush m;
      let t0 = Sim.Engine.now rt.Rt.engine in
      rt.Rt.stalled_mutators <- rt.Rt.stalled_mutators + 1;
      rt.Rt.collector.alloc_failure ();
      rt.Rt.stalled_mutators <- rt.Rt.stalled_mutators - 1;
      let dur = Sim.Engine.now rt.Rt.engine - t0 in
      if dur > 0 then
        Metrics.record_pause rt.Rt.metrics ~at:t0 ~dur Metrics.Alloc_stall;
      check_safepoint m;
      alloc_slow m ~size ~nrefs

(** Allocate an object with [nrefs] reference slots and [data_bytes] of
    payload in the mutator's TLAB. *)
let alloc m ~data_bytes ~nrefs =
  maybe_check m;
  let rt = m.rt in
  let size = Heap.Heap_impl.object_size ~nrefs ~data_bytes in
  if size > rt.Rt.heap.Heap.Heap_impl.cfg.region_bytes then
    invalid_arg "Mutator.alloc: object larger than a region";
  tick m Heap.Costs.alloc_fast;
  match m.tlab with
  | Some r when Heap.Region.fits r size ->
      Heap.Heap_impl.alloc_in rt.Rt.heap r ~size ~nrefs
  | _ -> alloc_slow m ~size ~nrefs

(* ------------------------------------------------------------------ *)
(* Reference loads and stores.                                          *)

(* Loaded-value barrier: resolve a (possibly stale) reference, healing the
   holding slot when the collector runs concurrent evacuation. *)
let heal_load m (holder : Heap.Gobj.t) i (v : Heap.Gobj.t) =
  if Heap.Gobj.is_forwarded v then begin
    tick m Heap.Costs.heal;
    let v' = Heap.Gobj.resolve v in
    Heap.Gobj.set_field holder i v';
    v'
  end
  else v

(** Load field [i] of [o]; the reference to [o] itself is resolved first
    (the caller may hold a stale pointer). *)
let read m (o : Heap.Gobj.t) i =
  maybe_check m;
  let rt = m.rt in
  tick m (Heap.Costs.load_barrier + rt.Rt.collector.load_extra_cost);
  let o = Heap.Gobj.resolve o in
  (* The slot value flows straight through: empty slots hold the null
     sentinel (never forwarded), so the hot path is one load, one
     header test, and no wrapper allocation at all. *)
  let v = Heap.Gobj.get_field o i in
  if Heap.Gobj.is_forwarded v then heal_load m o i v else v

(** Store [v] into field [i] of [o], running the collector's write
    barrier (SATB / card dirtying / remembered sets / RC logging). *)
let write m (o : Heap.Gobj.t) i v =
  maybe_check m;
  let rt = m.rt in
  let o = Heap.Gobj.resolve o in
  (* [null] is never forwarded, so storing an empty slot skips the
     resolve without a separate test. *)
  let v = if Heap.Gobj.is_forwarded v then Heap.Gobj.resolve v else v in
  let old_v = Heap.Gobj.get_field o i in
  rt.Rt.collector.store_barrier ~src:o ~field:i ~old_v ~new_v:v;
  Heap.Gobj.set_field o i v

(* ------------------------------------------------------------------ *)
(* Stack-root management for workloads.                                 *)

let push_root m o =
  Util.Vec.push m.roots o;
  Util.Vec.length m.roots - 1

let set_root m i o = Util.Vec.set m.roots i o

let get_root m i =
  let o = Util.Vec.get m.roots i in
  if Heap.Gobj.is_forwarded o then begin
    let o' = Heap.Gobj.resolve o in
    Util.Vec.set m.roots i o';
    o'
  end
  else o

(** Drop stack roots above index [n] (end-of-request cleanup). *)
let truncate_roots m n = Util.Vec.truncate m.roots n

(* Grace periods (recycling of stubs and held records, see
   {!Heap.Grace}): a mutator is online inside a request and offline
   between requests. *)
let begin_request m =
  Heap.Grace.online m.rt.Rt.heap.Heap.Heap_impl.grace m.grace

let end_request m =
  Heap.Grace.offline m.rt.Rt.heap.Heap.Heap_impl.grace m.grace

let finish m =
  flush m;
  Safepoint.deregister m.rt.Rt.safepoint;
  end_request m
