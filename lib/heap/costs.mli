(** Virtual-time cost model.

    Every operation the simulator performs is billed a number of virtual
    nanoseconds from this table.  The constants were calibrated once so
    that the Table 1 experiment reproduces the published ratios between
    G1, ZGC and Shenandoah, then frozen for all other experiments
    (see DESIGN.md §5).  All figures are per-operation ns unless noted.

    The record is concrete on purpose: experiments build variant tables
    with [{ Costs.default with ... }]. *)

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

val default : t
(** The frozen calibration (DESIGN.md §5). *)

val copy_cost : t -> int -> int
(** [copy_cost t bytes]: ns to copy an object of [bytes] bytes. *)

val mark_size_cost : t -> int -> int
(** [mark_size_cost t bytes]: size-proportional ns to trace an object. *)
