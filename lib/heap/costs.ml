(** Virtual-time cost model.

    Every operation the simulator performs is billed a number of virtual
    nanoseconds from these constants.  They were calibrated once so that
    the Table 1 experiment reproduces the published ratios between G1,
    ZGC and Shenandoah, then frozen for all other experiments (see
    DESIGN.md §5).  All figures are per-operation ns unless noted. *)

(* Allocation *)

(** TLAB bump allocation, per object *)
let alloc_fast = 14

(** claim a fresh region as the mutator's TLAB (CAS + zeroing setup) *)
let alloc_tlab_refill = 450

(* Copying / marking *)

(** object copy, tenths of ns per byte: 1 ns/byte ~ 1 GB/s per thread *)
let copy_per_byte_x10 = 10

(** visit one object during marking *)
let mark_obj = 16

(** size-proportional tracing cost, tenths of ns per byte (2 ns/byte:
    ~0.5 GB/s tracing per thread): scanning an object's reference map and
    polluting the cache scales with its footprint; calibrated against the
    paper's whole-heap marking times (~2.4 s for a 2 GB live set on 2
    threads) *)
let mark_per_byte_x10 = 20

(** examine one outgoing reference *)
let mark_ref = 4

(** extra CAS per object for colored-pointer marking *)
let mark_atomic = 24

(* Barriers *)

(** SATB pre-write barrier when marking is active *)
let satb_barrier = 6

(** post-write card dirtying *)
let card_barrier = 4

(** direct remembered-set insertion (G1-style) *)
let remset_barrier = 14

(** loaded-value-barrier fast path, per reference load *)
let load_barrier = 1

(** extra per-load cost of colored-pointer checks *)
let colored_load_extra = 2

(** extra per-load cost of the forwarding check: a collector that copies
    concurrently with uncolored pointers (Jade, Shenandoah, the
    uncolored generational variants) tests each loaded reference for a
    forwarded target *)
let fwd_check_load_extra = 1

(** slow path: forwarding-chain chase + CAS to heal a ref *)
let heal = 36

(* Reference-count collectors *)

(** LXR-style field-logging write barrier *)
let rc_barrier = 7

(** process one increment/decrement during an RC pause *)
let rc_process_ref = 6

(* Scanning *)

(** scan one 512-byte card for references *)
let card_scan = 230

(** scan one root slot *)
let root_scan = 12

(** record one outgoing region into the CRDT *)
let crdt_record = 9

(** set one card bit in a remembered set *)
let remset_insert = 8

(* Pauses / coordination *)

(** bring all mutators to a safepoint (fixed) *)
let safepoint_sync = 35_000

(** process one discovered weak reference *)
let weak_ref_process = 60

(** recycle one region (free-list bookkeeping) *)
let region_reset = 350

(* Mutator-side taxes *)

(** % slowdown of mutator graph work when compressed references must be
    disabled (colored pointers enlarge the address space 16x, §2.4),
    applied by ZGC/GenZ *)
let compressed_oops_tax_pct = 12

(** ns to copy an object of [bytes] bytes *)
let copy_cost bytes = copy_per_byte_x10 * bytes / 10

(** size-proportional ns to trace an object of [bytes] bytes *)
let mark_size_cost bytes = mark_per_byte_x10 * bytes / 10
