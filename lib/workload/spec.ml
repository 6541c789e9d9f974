(** Parametric object-graph workloads.

    Each application is an instance of one generator whose parameters set
    the object demographics GC behaviour depends on:

    - a *long-lived store*: a two-level directory (directory object →
      segment objects → per-slot linked chains of nodes) holding the
      application's live set.  Requests replace whole chains, generating
      old-generation garbage and cross-region references;
    - a per-mutator *medium-lived pool*: a ring of reference slots where a
      fraction of each request's allocations survive until overwritten,
      [pool_slots] requests later — the promotion traffic;
    - per-request *temporary chains* that die young (the weak generational
      hypothesis traffic);
    - optional *weak references* registered on a fraction of survivors.

    All reference traffic goes through {!Runtime.Mutator} so barriers,
    healing and safepoint polls are exercised on every operation. *)

type t = {
  name : string;
  mutators : int;
  (* long-lived store *)
  live_bytes : int;  (** target live-set size *)
  node_data : int;  (** payload bytes per store node *)
  chain_len : int;  (** nodes per store slot *)
  (* per-request behaviour *)
  temp_objs : int;  (** short-lived objects allocated per request *)
  temp_data_min : int;
  temp_data_max : int;
  survivors : int;  (** temps that survive into the medium pool *)
  pool_slots : int;  (** medium pool length (per mutator) *)
  store_reads : int;  (** store lookups (chain walks) per request *)
  update_pct : float;  (** probability of replacing a store chain *)
  cpu_ns : int;  (** pure compute per request *)
  weak_pct : float;  (** fraction of survivors registered as weak *)
}

let dir_fanout = 64

let node_refs = 2 (* next + aux *)

let node_size t = Heap.Heap_impl.object_size ~nrefs:node_refs ~data_bytes:t.node_data

let chain_bytes t = t.chain_len * node_size t

let num_slots t = Int.max 1 (t.live_bytes / chain_bytes t)

let seg_fanout t = (num_slots t + dir_fanout - 1) / dir_fanout

(** The largest object the workload allocates, in bytes: a region must
    hold it.  The directory, its segments, the store nodes, the
    per-mutator survivor pool (when there are survivors) and the largest
    temp. *)
let largest_object t =
  let refs_only nrefs = Heap.Heap_impl.object_size ~nrefs ~data_bytes:0 in
  List.fold_left Int.max (node_size t)
    [
      refs_only dir_fanout;
      refs_only (seg_fanout t);
      (if t.survivors > 0 then refs_only t.pool_slots else 0);
      Heap.Heap_impl.object_size ~nrefs:1 ~data_bytes:t.temp_data_max;
    ]

(** Rough bytes allocated per request (for allocation-rate estimates). *)
let alloc_bytes_per_request t =
  let temp_avg =
    Heap.Heap_impl.object_size ~nrefs:1
      ~data_bytes:((t.temp_data_min + t.temp_data_max) / 2)
  in
  (t.temp_objs * temp_avg)
  + int_of_float (t.update_pct *. float_of_int (chain_bytes t))

(* ------------------------------------------------------------------ *)
(* Store construction and access.                                       *)

type state = {
  spec : t;
  dir_root : int;  (** index of the directory object in the global roots *)
  slots : int;
  seg_fanout : int;
  (* per-mutator medium pools, keyed by mutator id *)
  pools : (int, int) Hashtbl.t;  (** mutator id -> root index of its pool *)
  next_pool_idx : (int, int) Hashtbl.t;
      (** mutator id -> next pool slot to overwrite; bound with [pools] *)
}

let dir rt st =
  let d = Runtime.Rt.get_global rt st.dir_root in
  if Heap.Gobj.is_null d then invalid_arg "store directory root was cleared"
  else Heap.Gobj.resolve d

(* Allocate one chain of [n] nodes, newest-first, leaving the head
   anchored in stack-root slot [anchor].

   Handle discipline: every allocation and reference write may reach a
   safepoint, and a copying collector only knows about objects reachable
   from roots — a handle held only in a host-language local across a
   safepoint is exactly the classic unrooted-JNI-handle bug.  So the
   chain head lives in [anchor] and the in-flight node in [aux] at every
   polling point. *)
let alloc_chain (m : Runtime.Mutator.t) spec n ~anchor ~aux =
  Runtime.Mutator.set_root m anchor Heap.Gobj.null;
  for _ = 1 to n do
    (* Poll inside alloc: the head so far is anchored. *)
    let node =
      Runtime.Mutator.alloc m ~data_bytes:spec.node_data ~nrefs:node_refs
    in
    Runtime.Mutator.set_root m aux node;
    (* Poll inside write: both node (aux) and head (anchor) are rooted.
       An empty anchor skips the write entirely (the write barrier would
       tick), exactly as the option-based code did. *)
    let head = Runtime.Mutator.get_root m anchor in
    if not (Heap.Gobj.is_null head) then Runtime.Mutator.write m node 0 head;
    Runtime.Mutator.set_root m anchor node;
    Runtime.Mutator.set_root m aux Heap.Gobj.null
  done;
  Runtime.Mutator.get_root m anchor

let setup spec rt (m : Runtime.Mutator.t) =
  let slots = num_slots spec in
  let segf = seg_fanout spec in
  (* The directory is globally rooted before any further polling. *)
  let d = Runtime.Mutator.alloc m ~data_bytes:0 ~nrefs:dir_fanout in
  let dir_root = Runtime.Rt.add_global rt d in
  let st =
    {
      spec;
      dir_root;
      slots;
      seg_fanout = segf;
      pools = Hashtbl.create 16;
      next_pool_idx = Hashtbl.create 16;
    }
  in
  let seg_slot = Runtime.Mutator.push_root m d in
  let anchor = Runtime.Mutator.push_root m d in
  let aux = Runtime.Mutator.push_root m d in
  for s = 0 to dir_fanout - 1 do
    let seg = Runtime.Mutator.alloc m ~data_bytes:0 ~nrefs:segf in
    Runtime.Mutator.set_root m seg_slot seg;
    Runtime.Mutator.write m d s seg;
    for i = 0 to segf - 1 do
      let slot = (s * segf) + i in
      if slot < slots then begin
        let head = alloc_chain m spec spec.chain_len ~anchor ~aux in
        if not (Heap.Gobj.is_null head) then begin
          (* The segment handle may be stale after a collection: go
             through the rooted slot. *)
          let seg = Runtime.Mutator.get_root m seg_slot in
          if not (Heap.Gobj.is_null seg) then
            Runtime.Mutator.write m seg i head
        end
      end
    done
  done;
  Runtime.Mutator.truncate_roots m seg_slot;
  st

(* Resolve this mutator's pool object, creating it on first use.  The pool
   lives at a stable index of the mutator's root set.  Runs once per
   request, so the lookup matches on [Not_found] rather than boxing a
   [find_opt] result. *)
let pool_of st (m : Runtime.Mutator.t) =
  match Hashtbl.find st.pools m.Runtime.Mutator.mid with
  | idx ->
      let p = Runtime.Mutator.get_root m idx in
      if Heap.Gobj.is_null p then invalid_arg "pool root was cleared" else p
  | exception Not_found ->
      let p = Runtime.Mutator.alloc m ~data_bytes:0 ~nrefs:st.spec.pool_slots in
      let idx = Runtime.Mutator.push_root m p in
      Hashtbl.replace st.pools m.Runtime.Mutator.mid idx;
      Hashtbl.replace st.next_pool_idx m.Runtime.Mutator.mid 0;
      p

let read_slot st rt (m : Runtime.Mutator.t) slot =
  let d = dir rt st in
  let s = slot / st.seg_fanout and i = slot mod st.seg_fanout in
  let seg = Runtime.Mutator.read m d s in
  if not (Heap.Gobj.is_null seg) then begin
    let cursor = ref (Runtime.Mutator.read m seg i) in
    while not (Heap.Gobj.is_null !cursor) do
      cursor := Runtime.Mutator.read m !cursor 0
    done
  end

let replace_slot st rt (m : Runtime.Mutator.t) slot ~anchor ~aux =
  let s = slot / st.seg_fanout and i = slot mod st.seg_fanout in
  let head = alloc_chain m st.spec st.spec.chain_len ~anchor ~aux in
  if not (Heap.Gobj.is_null head) then begin
    (* Re-read the segment after the allocating polls. *)
    let d = dir rt st in
    let seg = Runtime.Mutator.read m d s in
    if not (Heap.Gobj.is_null seg) then Runtime.Mutator.write m seg i head
  end

(* ------------------------------------------------------------------ *)
(* The request.                                                         *)

let request st rt (m : Runtime.Mutator.t) =
  let spec = st.spec in
  let prng = m.Runtime.Mutator.prng in
  (* The pool root must sit below any temp roots so end-of-request cleanup
     keeps it; creating it first pins it at a stable index. *)
  let pool = if spec.survivors > 0 then pool_of st m else Heap.Gobj.null in
  let roots_base = Util.Vec.length m.Runtime.Mutator.roots in
  (* Front half of the request's compute. *)
  Runtime.Mutator.work m (spec.cpu_ns / 2);
  (* Temporary allocation: a chain of short-lived objects kept anchored
     in stack roots at every polling point (see [alloc_chain]). *)
  let temp_root = Runtime.Mutator.push_root m (dir rt st) in
  let aux_root = Runtime.Mutator.push_root m (dir rt st) in
  Runtime.Mutator.set_root m temp_root Heap.Gobj.null;
  Runtime.Mutator.set_root m aux_root Heap.Gobj.null;
  for k = 0 to spec.temp_objs - 1 do
    let data = Util.Prng.int_in prng spec.temp_data_min spec.temp_data_max in
    let o = Runtime.Mutator.alloc m ~data_bytes:data ~nrefs:1 in
    Runtime.Mutator.set_root m aux_root o;
    (let p = Runtime.Mutator.get_root m temp_root in
     if not (Heap.Gobj.is_null p) then Runtime.Mutator.write m o 0 p);
    (let o = Runtime.Mutator.get_root m aux_root in
     if not (Heap.Gobj.is_null o) then Runtime.Mutator.set_root m temp_root o);
    Runtime.Mutator.set_root m aux_root Heap.Gobj.null;
    (* Interleave store reads with allocation, as real requests do. *)
    if
      spec.store_reads > 0
      && k mod (Int.max 1 (spec.temp_objs / Int.max 1 spec.store_reads)) = 0
    then read_slot st rt m (Util.Prng.int prng st.slots)
  done;
  (* Medium-lived survivors: the newest [survivors] temps go to the pool,
     overwriting (killing) entries [pool_slots] requests old.  The cursor
     walks down the temp chain through the rooted slot. *)
  (if not (Heap.Gobj.is_null pool) then begin
    (* [pool_of] bound this mutator's cursor with its pool. *)
    let idx0 = Hashtbl.find st.next_pool_idx m.Runtime.Mutator.mid in
    for j = 0 to spec.survivors - 1 do
      let o = Runtime.Mutator.get_root m temp_root in
      if not (Heap.Gobj.is_null o) then begin
        let next = Runtime.Mutator.read m o 0 in
        Runtime.Mutator.set_root m aux_root next;
        (* Detach the survivor from the temp chain: without this a single
           pool entry would pin the whole request's allocations. *)
        Runtime.Mutator.write m o 0 Heap.Gobj.null;
        (let o = Runtime.Mutator.get_root m temp_root in
         if not (Heap.Gobj.is_null o) then begin
           Runtime.Mutator.write m pool ((idx0 + j) mod spec.pool_slots) o;
           if spec.weak_pct > 0. && Util.Prng.chance prng spec.weak_pct
           then
             Heap.Heap_impl.register_weak rt.Runtime.Rt.heap o
         end);
        Runtime.Mutator.set_root m temp_root
          (Runtime.Mutator.get_root m aux_root);
        Runtime.Mutator.set_root m aux_root Heap.Gobj.null
      end
    done;
    Hashtbl.replace st.next_pool_idx m.Runtime.Mutator.mid
      ((idx0 + spec.survivors) mod spec.pool_slots)
  end);
  (* Long-lived churn. *)
  if Util.Prng.chance prng spec.update_pct then
    replace_slot st rt m
      (Util.Prng.int prng st.slots)
      ~anchor:temp_root ~aux:aux_root;
  (* Back half of the compute, then drop the temps. *)
  Runtime.Mutator.work m (spec.cpu_ns - (spec.cpu_ns / 2));
  Runtime.Mutator.truncate_roots m roots_base
