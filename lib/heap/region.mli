(** Equal-sized heap regions (§3.1).

    A region is a bump-allocated span holding the objects whose [region]
    field names it, in allocation (= offset) order.  A per-region
    block-offset table ([bot], HotSpot BOT style: one entry per card)
    maps each card to the first object overlapping it, so card scans
    start at the right object in O(1) instead of binary-searching the
    object vector per card; it is maintained incrementally by
    {!push_obj} and invalidated wholesale by {!reset}.  The table is
    allocated when the region first receives an object, so a region
    never claimed costs no per-card words.  [live_bytes] is
    the result of the last completed marking cycle and drives
    collection-set / group selection.

    The record is concrete: collectors read and write the bookkeeping
    fields ([kind], [in_cset], [group], ...) directly. *)

type kind = Free | Young | Old

val kind_to_string : kind -> string

val card_bytes : int
(** Card granularity of [bot], and of the heap's card table, remembered
    sets and CRDT: 512 bytes. *)

type t = {
  rid : int;
  size : int;
  mutable kind : kind;
  mutable top : int;  (** bump pointer: bytes used *)
  objects : Gobj.t Util.Vec.t;
  mutable bot : int array;
      (** block-offset table: per card, the index in [objects] of the
          first object whose bytes overlap the card; -1 when no object
          does.  Append-only between resets, exactly like [objects].
          Empty until the region first receives an object. *)
  mutable bot_filled : int;
      (** number of owned BOT entries.  Allocation is contiguous, so the
          owned entries are exactly the prefix covering [0, top): the
          per-allocation update extends the prefix without re-testing
          entries, and resets only refill the prefix. *)
  mutable live_bytes : int;  (** per last completed mark *)
  mutable marking_live : int;  (** accumulator of the in-progress mark *)
  mutable group : int;  (** Jade collection group, -1 when none *)
  mutable in_cset : bool;  (** selected for evacuation this cycle *)
  mutable alloc_epoch : int;  (** mark epoch current when first allocated *)
  mutable carried : int;
      (** carried-over slots: [objects] keeps, in slots
          [[length objects, carried)], the records a recycled heap's
          previous run left there ({!recycle}), each to be reissued in
          its own slot or handed to the pool ({!Heap_impl.alloc_in}).
          {!reset} and {!clear_objects} clear only the slots below the
          length, so the slots past it outlive a release and a slide.
          0 on a fresh heap, and once the pool took every slot. *)
}

val make : rid:int -> size:int -> t

(** {2 Occupancy} *)

val is_free : t -> bool
val free_bytes : t -> int
val used_bytes : t -> int
val object_count : t -> int

val live_ratio : t -> float
(** Fraction of the region's *capacity* occupied by live data per the
    last mark.  Capacity, not filled bytes: evacuating a region reclaims
    the whole region, so a barely-filled region whose few bytes are all
    live is still a cheap, profitable victim — dividing by [top] would
    make retired allocation buffers look dense and let them accumulate. *)

val garbage_bytes : t -> int
(** Region capacity reclaimed by evacuating this region. *)

val fits : t -> int -> bool
(** Can [size] more bytes be bump-allocated here? *)

(** {2 Object placement} *)

val push_obj : t -> Gobj.t -> unit
(** Append an already-constructed object at the current top.  The caller
    guarantees [fits].  Maintains the block-offset table incrementally
    (the region's first object allocates it); amortized O(1): every BOT
    entry is written at most once per region lifetime.  A record
    reissued in its own carried-over slot is found there and not stored
    again; the caller has handed any other record in that slot to the
    pool. *)

val clear_objects : t -> unit
(** Forget every object without touching liveness/kind bookkeeping: the
    full-GC in-place slide empties the region and immediately re-pushes
    its survivors.  The BOT is invalidated with the object vector, as
    later card scans must not see indices of the pre-slide layout.
    Carried-over slots stay. *)

(** {2 Card scanning} *)

val first_object_at : t -> off:int -> int
(** First index in [objects] whose span reaches byte offset [off] or
    later (equivalently: first object with [offset + size > off] —
    objects are disjoint and offset-sorted).  O(1) via the block-offset
    table; binary search covers the cold no-object-on-card case. *)

val iter_objects_in_range : t -> off:int -> len:int -> (Gobj.t -> unit) -> unit
(** Iterate objects whose bytes intersect [off, off+len).  The length is
    re-read on every step: [f] may suspend the calling fiber (batched GC
    cost accounting), and a concurrent collection cycle may reclaim this
    region meanwhile — the reset empties [objects], which safely ends the
    scan (the card's contents are gone with the region). *)

val reset : t -> unit
(** Reset to an empty, [Free] region and invalidate the block-offset
    table.  The caller has already freed the residents
    ({!Gobj.release_residents}).  Carried-over slots stay. *)

val recycle : t -> unit
(** Reset for the next run of a recycled heap ({!Heap_impl.create}): as
    {!reset}, with [alloc_epoch] back to 0, but the object vector keeps
    its records past its length ({!Util.Vec.forget}) and [carried]
    becomes their count.  O(1) but for the block-offset table.  The
    caller has handed the older carried-over slots to the pool. *)
