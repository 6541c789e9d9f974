(** The simulated heap: a fixed array of equal-sized regions, a free list,
    a global card table, and allocation bookkeeping shared by mutators
    (through TLABs, see the runtime library) and GC threads (evacuation
    destinations).

    Addresses.  A heap "address" is [(region id, byte offset)]; the global
    card index of an address is [rid * cards_per_region + offset / 512].
    This keeps card, remembered-set and CRDT arithmetic identical to a real
    flat address space while letting regions be recycled freely. *)

type config = {
  heap_bytes : int;
  region_bytes : int;
  pooling : bool;
      (** recycle dead records and field arrays, and forwarded records
          after their grace period, through the heap's {!Gobj.Pool}
          (host-side only; simulated state is identical either way —
          the flag exists for A/B allocation measurements) *)
}

val card_bytes : int
(** Card granularity of the card table, remembered sets and CRDT: 512. *)

val default_config : config

val config :
  ?heap_bytes:int ->
  ?region_bytes:int ->
  ?pooling:bool ->
  unit ->
  config
(** Validated constructor: [heap_bytes] must be a multiple of
    [region_bytes], which must be a multiple of [card_bytes].
    [pooling] (default on) recycles dead records/arrays at region
    release — host allocation behavior only, never simulated state. *)

type t = {
  cfg : config;
  cpr : int;
      (** [cfg.region_bytes / card_bytes], cached: card addressing
          (every barrier's dirty_card goes through {!card_of}) must not
          pay a division just to recover a config-constant ratio *)
  costs : Costs.t;
  uids : Gobj.uids;
      (** this domain's uid counter, resolved once at creation — object
          allocation and evacuation copies mint uids per object, and the
          cached handle spares them the DLS lookup ({!Gobj.uid_source}) *)
  hooks : Access.hooks;
      (** this domain's metadata-access hook slot, resolved once at
          creation ({!Access.hooks}); every hot-path log goes through it
          so a disabled detector costs one load and one branch instead
          of a DLS lookup per event.  Still observes hooks installed
          after creation — [Access.set_hook] mutates the slot's
          contents, never rebinds it. *)
  regions : Region.t array;
  claimed : Region.t option array;
      (** [Some r] per region, built once: {!claim_region} hands these
          back, so a claim allocates nothing *)
  free_q : int Util.Ring.t;
      (** free region ids, claimed in FIFO order; a ring, so a release
          allocates nothing *)
  mutable free_count : int;
  card_dirty : Util.Bitset.t;  (** global card table: dirtied by stores *)
  mutable next_obj_id : int;
  mutable mark_epoch : int;  (** current/most recent old/full marking id *)
  mutable young_epoch : int;  (** current/most recent young marking id *)
  mutable allocate_live : bool;
      (** while an old mark is running, new objects are born marked (SATB) *)
  mutable allocate_live_young : bool;
      (** same for a co-running young marking cycle *)
  mutable mark_floor : int;
      (** uid counter when the current/most recent old mark began:
          records at or above it were created after its snapshot *)
  mutable young_floor : int;  (** same for the young mark *)
  mutable bytes_allocated : int;  (** cumulative, for rate estimation *)
  mutable used : int;
      (** sum of non-free regions' bump pointers, maintained incrementally
          so {!used_bytes} is O(1) instead of a region-array fold *)
  pool : Gobj.Pool.t;
      (** freelists of dead records and field arrays, harvested at
          {!release_region} and drained by {!alloc_in} / evacuation
          copies — run-threaded like [uids] and [hooks], so the hot
          path never touches DLS *)
  grace : Grace.t;
      (** the limbo of released stubs and the grace periods that move
          them into [pool] *)
  weak_refs : Gobj.t Util.Vec.t;  (** referents of registered weak references *)
  mutable on_region_event : (Region.t -> claimed:bool -> unit) option;
      (** observability seam ([lib/obs]): fired after a claim takes
          effect and at the start of a release (while the region's kind
          and bump pointer are still readable).  The observer must not
          tick or mutate the heap; with [None] (the default) each site
          costs one load and one branch. *)
}

val create : config -> t
(** Build a fresh heap with every region free.  Restarts the uid space
    ({!Gobj.reset_uids}): a fresh heap is a fresh simulated world, and
    runs must be byte-reproducible within one process (replay needs it). *)

(** {2 Geometry and occupancy} *)

val num_regions : t -> int
val region : t -> int -> Region.t
val free_regions : t -> int
val used_regions : t -> int
val total_cards : t -> int
val cards_per_region : t -> int

val occupancy : t -> float
(** Occupancy as a fraction of the whole heap, at region granularity (the
    trigger metric used by all the collectors). *)

val used_bytes : t -> int

val push_relocated : t -> Region.t -> Gobj.t -> unit
(** Append an already-constructed (relocated) object at [r]'s bump
    pointer.  GC evacuation and compaction paths must use this instead of
    raw [Region.push_obj] so heap-level accounting stays exact. *)

val begin_region_rebuild : t -> Region.t -> unit
(** A collector about to rebuild [r] in place (full-GC slide) retires the
    region's current contents from the incremental {!used_bytes};
    survivors re-enter through {!push_relocated}. *)

(** {2 Cards} *)

val card_of : t -> rid:int -> offset:int -> int
val card_of_field : t -> Gobj.t -> int -> int
(** Card holding field slot [i] of [o]. *)

val card_to_region : t -> int -> int
val card_to_offset : t -> int -> int
(** First byte offset covered by the card inside its region. *)

val dirty_card : t -> int -> unit
val card_is_dirty : t -> int -> bool
val clean_card : t -> int -> unit
val iter_dirty_cards : (int -> unit) -> t -> unit

val scan_card : t -> int -> 'a -> f:('a -> Gobj.t -> int -> unit) -> unit
(** [scan_card t card ctx ~f] scans the objects overlapping [card] in its
    region, applying [f ctx] to each reference slot that falls inside the
    card.  The intersecting field window is computed arithmetically from
    the slot grid, visiting exactly the in-card field indices in order.
    The scan itself allocates nothing, so with a closed [f] (its state in
    [ctx]) a card costs no host allocation.  [f] may suspend; a region
    reset meanwhile ends the scan. *)

(** {2 Region lifecycle} *)

val claim_region : t -> Region.kind -> Region.t option
(** Claim a free region for allocation of the given kind. *)

val release_region : t -> Region.t -> unit
(** Release a region back to the free list; resident (non-evacuated)
    objects become garbage, the region's own cards are cleaned.  With
    [cfg.pooling], dead residents' records and field arrays are
    harvested into the heap's pool (see {!Gobj.Pool} for the ownership
    rules).  While any marking co-runs, SATB queues and mark stacks may
    hold bare references that bypass the edge counts, so only fresh,
    never-queued objects born after every active snapshot are harvested
    ({!Gobj.release_residents}).  Forwarded residents (stubs) may still
    be named from outside the heap, so they go to [grace]'s limbo and
    reach the pool only after a grace period ({!Grace}).  With no
    observer, no detector and nothing to harvest, a release allocates
    nothing. *)

val set_region_observer : t -> (Region.t -> claimed:bool -> unit) option -> unit
(** Install or remove the region-lifecycle observer ({!t.on_region_event}). *)

(** {2 Object allocation} *)

val alloc_in : t -> Region.t -> size:int -> nrefs:int -> Gobj.t
(** Allocate a fresh object at [r]'s bump pointer.  The caller has
    checked [Region.fits] and owns the region (mutator TLAB or GC
    destination).  Relocated copies keep their id through
    {!Gobj.remake} instead. *)

val object_size : nrefs:int -> data_bytes:int -> int
(** Round a requested payload size up to the slot grid, header included. *)

(** {2 Marking support} *)

val begin_mark : t -> int
(** Start an old/full marking cycle; returns the new epoch.  Young
    collections mark with {!begin_young_mark}, which leaves the old
    generation's results alone. *)

val end_mark : t -> unit
(** Close the old mark and publish every claimed region's live bytes. *)

val is_marked : t -> Gobj.t -> bool

val mark_object : t -> Gobj.t -> bool
(** Mark [o] in the current old epoch; returns false if it already was.
    The header's mark epoch is the only mark record; this also accounts
    the region's live bytes. *)

(** Young-generation marking: an independent mark word and epoch so a
    young cycle can overlap an old cycle without corrupting it. *)

val begin_young_mark : t -> int
val end_young_mark : t -> unit
val is_marked_young : t -> Gobj.t -> bool
val mark_object_young : t -> Gobj.t -> bool

(** {2 Weak references} *)

val register_weak : t -> Gobj.t -> unit

val process_weak_refs_marked : t -> int
(** Process registered weak references against the current mark
    (old/full collections): dead referents are dropped and the rest
    survive, resolved to their newest copies.  Returns the number
    cleared. *)

val process_weak_refs_freed_only : t -> int
(** Weak processing for young-only collections: a referent is dead only
    when its region was reclaimed (freed flag). *)
