(** Virtual-time cost model.

    Every operation the simulator performs is billed a number of virtual
    nanoseconds from this table.  The constants were calibrated once so
    that the Table 1 experiment reproduces the published ratios between
    G1, ZGC and Shenandoah, then frozen for all other experiments
    (see DESIGN.md §5).  All figures are per-operation ns unless noted. *)

type t = {
  (* Allocation *)
  alloc_fast : int;  (** TLAB bump allocation, per object *)
  alloc_tlab_refill : int;
      (** claim a fresh region as the mutator's TLAB (CAS + zeroing setup) *)
  (* Copying / marking *)
  copy_per_byte_x10 : int;  (** object copy, tenths of ns per byte *)
  mark_obj : int;  (** visit one object during marking *)
  mark_per_byte_x10 : int;
      (** size-proportional tracing cost, tenths of ns per byte: scanning
          an object's reference map and polluting the cache scales with
          its footprint; calibrated against the paper's whole-heap
          marking times (~2.4 s for a 2 GB live set on 2 threads) *)
  mark_ref : int;  (** examine one outgoing reference *)
  mark_atomic : int;  (** extra CAS per object for colored-pointer marking *)
  (* Barriers *)
  satb_barrier : int;  (** SATB pre-write barrier when marking is active *)
  card_barrier : int;  (** post-write card dirtying *)
  remset_barrier : int;  (** direct remembered-set insertion (G1-style) *)
  load_barrier : int;  (** loaded-value-barrier fast path, per reference load *)
  colored_load_extra : int;  (** extra per-load cost of colored-pointer checks *)
  heal : int;  (** slow path: forwarding-chain chase + CAS to heal a ref *)
  (* Reference-count collectors *)
  rc_barrier : int;  (** LXR-style field-logging write barrier *)
  rc_process_ref : int;  (** process one increment/decrement during an RC pause *)
  (* Scanning *)
  card_scan : int;  (** scan one 512-byte card for references *)
  root_scan : int;  (** scan one root slot *)
  crdt_record : int;  (** record one outgoing region into the CRDT *)
  remset_insert : int;  (** set one card bit in a remembered set *)
  (* Pauses / coordination *)
  safepoint_sync : int;  (** bring all mutators to a safepoint (fixed) *)
  weak_ref_process : int;  (** process one discovered weak reference *)
  region_reset : int;  (** recycle one region (free-list bookkeeping) *)
  (* Mutator-side taxes *)
  compressed_oops_tax_pct : int;
      (** % slowdown of mutator graph work when compressed references must
          be disabled (colored pointers enlarge the address space 16x,
          §2.4), applied by ZGC/GenZ *)
}

let default =
  {
    alloc_fast = 14;
    alloc_tlab_refill = 450;
    copy_per_byte_x10 = 10; (* 1 ns/byte ~ 1 GB/s per thread *)
    mark_obj = 16;
    mark_per_byte_x10 = 20; (* 2 ns/byte: ~0.5 GB/s tracing per thread *)
    mark_ref = 4;
    mark_atomic = 24;
    satb_barrier = 6;
    card_barrier = 4;
    remset_barrier = 14;
    load_barrier = 1;
    colored_load_extra = 2;
    heal = 36;
    rc_barrier = 7;
    rc_process_ref = 6;
    card_scan = 230;
    root_scan = 12;
    crdt_record = 9;
    remset_insert = 8;
    safepoint_sync = 35_000;
    weak_ref_process = 60;
    region_reset = 350;
    compressed_oops_tax_pct = 12;
  }

let copy_cost t bytes = t.copy_per_byte_x10 * bytes / 10
let mark_size_cost t bytes = t.mark_per_byte_x10 * bytes / 10
