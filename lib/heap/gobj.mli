(** Simulated heap objects: unboxed reference slots around a null
    sentinel, with pooled records and field arrays.

    An object is a record holding real reference slots ([fields]) to other
    objects, so marking genuinely traverses the graph and evacuation
    genuinely copies.  Reference slots are *unboxed*: an empty slot holds
    the distinguished {!null} sentinel instead of [None], so barrier
    reads, reference stores, mark-stack pushes and evacuation copies never
    box a reference in an [option] block ([tools/gcsim_lint] rule R5
    keeps [t option] out of the heap and collector trees).

    Relocation creates a copy record for the new location and installs it
    in the old copy's [forward] slot ({!null} = not relocated): references
    elsewhere in the heap keep pointing at the old record, which is
    exactly a stale reference in a concurrent copying collector, and
    healing replaces them with {!resolve}.  The new copy shares the
    [fields] array (the payload moved; there is one logical set of slots).

    Dead records and field arrays are recycled through a {!Pool} owned by
    {!Heap_impl.t}, and forwarded records (stubs) pass through a limbo
    first, drained by {!Grace} — see the ownership rules on {!Pool} and
    {!release_residents}.  The
    record is concrete: collectors read and mutate the reference-graph
    fields ([fields], [forward]) directly on their hot paths (every field
    is [mutable] so pooled records can be reinitialized in place).  The
    scalar header is packed into four words — [ids], [loc], [marks] and
    [meta] — read and written only through the accessors below, so a
    record is 6 fields (7 host words with its header) instead of 12. *)

type t = {
  mutable ids : int;  (** {!id} and {!uid}: [id lsl 31 lor uid] *)
  mutable fields : t array;  (** reference slots; {!null} = empty *)
  mutable forward : t;  (** newer copy; {!null} = not relocated *)
  mutable loc : int;
      (** {!region} and {!offset}: [region lsl 32 lor offset] *)
  mutable marks : int;
      (** {!inrefs}, {!mark} and {!ymark}:
          [inrefs lsl 40 lor mark lsl 20 lor ymark] *)
  mutable meta : int;
      (** {!size}, {!age} and {!flags}: [size lsl 28 lor age lsl 8 lor flags] *)
}

(** {2 Packed header}

    Each width is checked where its bound is set, never wrapped: uids
    when {!mint} hands one out, ids in {!Heap_impl.alloc_in},
    {!Heap_impl.create} checks region ids and region sizes,
    {!Heap_impl.begin_mark} and {!Heap_impl.begin_young_mark} check
    epochs, {!set_field} checks each [inrefs] increment, {!remake}
    checks ages, {!set_flag} checks flag bits, and the cold {!make}
    checks everything.  Out-of-range values raise [Invalid_argument].
    The accessors decode with a shift and a mask and test nothing. *)

val max_id : int
(** Largest logical id (2^31 - 1); the sentinel's id is -1. *)

val max_uid : int
(** Largest physical id {!mint} hands out (2^31 - 2); the sentinel's uid
    is the one above it, so no record shares it. *)

val id : t -> int
(** Logical identity, preserved across copies. *)

val uid : t -> int
(** Physical identity of this record: unique per copy, never reused
    (pooled records mint a fresh one); keys forwarding-install race
    checks. *)

val max_region : int
(** Largest region id a [loc] word holds (2^30 - 1); the sentinel's
    region is -1. *)

val max_offset : int
(** Largest byte offset a [loc] word holds (2^32 - 1). *)

val max_region_bytes : int
(** Largest region size whose offsets and object sizes all fit (2^32). *)

val max_epoch : int
(** Largest mark or young-mark epoch (2^20 - 1). *)

val max_inrefs : int
(** Largest {!inrefs} count (2^22 - 1). *)

val max_age : int
(** Largest age (2^20 - 1). *)

val flag_mask : int
(** The 8 flag bits. *)

val max_size : int
(** Largest object size in bytes (2^34 - 1). *)

val region : t -> int
(** Id of the region holding the record; -1 for {!null}. *)

val offset : t -> int
(** Byte offset of the header inside its region. *)

val set_loc : t -> region:int -> offset:int -> unit
(** Unchecked: the caller places the record inside a region of a heap
    whose geometry {!Heap_impl.create} checked. *)

val mark : t -> int
(** Epoch of the last old/full marking that reached the record. *)

val ymark : t -> int
(** Epoch of the last *young* marking that reached it — young and old
    cycles co-run, so their mark state must not alias. *)

val set_mark : t -> int -> unit
(** Unchecked: epochs are checked when a marking cycle begins. *)

val set_ymark : t -> int -> unit
(** Unchecked, like {!set_mark}. *)

val check_epoch : int -> unit
(** Raise [Invalid_argument] unless the epoch is in [0, max_epoch]. *)

val inrefs : t -> int
(** Heap reference slots currently holding this record, maintained at
    the {!set_field} choke point plus a decrement pass over dying holders
    at region release ({!retire_edges}).  Roots are deliberately not
    counted: a root-reachable object is marked and hence forwarded before
    its region is released, so the zero-[inrefs] recycling test never
    sees it.  Gates record recycling only — never a liveness source for
    the simulated collectors. *)

val size : t -> int
(** Bytes, header included. *)

val age : t -> int
(** Young collections survived; set by {!remake}. *)

val flags : t -> int

(** {2 The null sentinel} *)

val null : t
(** The distinguished empty-slot / not-forwarded sentinel.  Compared
    physically ([==]); never resident in a region, never marked,
    forwarded, enqueued or counted — its [forward] is itself, so
    {!resolve} is the identity on it. *)

val is_null : t -> bool

(** {2 Layout constants} *)

val header_bytes : int
val slot_bytes : int

val slot_shift : int
(** log2 [slot_bytes]: card scans shift, not divide. *)

(** {2 Flag bits} *)

val flag_weak_referent : int
val flag_humongous : int

val flag_unremapped : int
(** Set by ZGC on each record its relocation forwarded.  ZGC heals no
    reference at relocation: roots and heap slots keep naming the stub
    until the next cycle's mark remaps them, long after any grace period
    ends.  Never cleared, so such a stub never enters the limbo and is
    not recycled for the rest of the run. *)

val flag_satb_logged : int
(** Set when a marker's SATB queue takes a bare reference to the record;
    never cleared, so {!release_residents} never harvests a record such a
    queue may still hold. *)

(** {2 Physical identity (uids)}

    Uids are minted from one per-domain counter: region ids and offsets
    are both recycled, so only the record itself names "this copy of
    this object" unambiguously across a whole run.  Domain-local, not
    global: the parallel exploration/sweep drivers ([Util.Dpool]) build
    one heap per domain, and a shared counter would interleave uid
    streams host-nondeterministically. *)

type uids = int ref
(** A cached handle on this domain's uid counter, for paths that mint a
    uid per allocation or per evacuation copy: resolving the DLS slot
    once at heap creation and minting through the handle turns the
    per-object cost into a load, a compare and a store.  The handle must
    live in run-threaded state (e.g. {!Heap_impl.t}), mirroring the
    {!Access.hooks} discipline — [tools/gcsim_lint] rule R4 enforces
    this. *)

val uid_source : unit -> uids
(** Resolve this domain's uid counter once. *)

val mint : uids -> int
(** The next uid.  Raises [Invalid_argument] past {!max_uid}. *)

val out_of : string -> max:int -> 'a
(** [out_of what ~max] raises [Invalid_argument] saying that a run
    minted more [what]s (ids, uids) than the [max + 1] a record holds. *)

val uid_watermark : unit -> int
(** Current value of the uid counter.  The verifier records it when a
    marking snapshot is taken: any record with a uid at or above the
    watermark was created (allocated or copied) after the snapshot, and
    tri-color discipline does not constrain it. *)

val reset_uids : unit -> unit
(** Restart the uid space.  Called when a fresh heap is created
    ({!Heap_impl.create}): uids, like virtual time, are then a pure
    function of the run — two in-process runs of one configuration mint
    identical uids, which is what lets the schedule-space explorer
    promise byte-identical violation reports on replay, whether the
    runs share a domain (sequential) or not ([-j N]). *)

(** {2 Construction} *)

val make : id:int -> size:int -> nrefs:int -> region:int -> offset:int -> t
(** Fresh storage, with the DLS lookup for the uid and every header
    field range-checked; for cold paths and tests. *)

(** {2 Flags} *)

val has_flag : t -> int -> bool

val set_flag : t -> int -> unit
(** Checked against {!flag_mask}. *)

val clear_flag : t -> int -> unit
val is_humongous : t -> bool
val is_freed : t -> bool

(** {2 Forwarding} *)

val is_forwarded : t -> bool
(** One physical comparison against {!null} — no option match, no C
    call; this test guards every mutator load/store and root access. *)

val set_forward : hooks:Access.hooks -> site:string -> t -> t -> unit
(** Install the forwarding pointer of [t] and flag the copy as a
    forwarding target.  All relocation paths go through here so the race
    detector sees every install as a [Write] on the old copy's physical
    identity, logged under [site] — two unordered installs on one record
    are a double relocation.  The flag is cleared when [t] is reused
    after its grace period ({!Pool.take_copy_record}); while set, a
    stale reference can still resolve through [t] to the copy, so the
    copy is not reused itself.  A predecessor that is never recycled (a
    stale heap edge, a weak or unremapped flag, a region compacted
    in place and never released, or a predecessor of its own still
    flagged) thus keeps its whole chain of successors out of the pool.
    Callers pass their heap's cached [hooks] handle, so a disabled
    detector costs one load and one branch per install. *)

val resolve : t -> t
(** Newest copy of an object (identity: follows the forwarding chain).
    [resolve null] is [null], so field values resolve without a
    preceding emptiness test. *)

val forward_depth : t -> int
(** Length of the forwarding chain, for tests and cost accounting. *)

(** {2 Fields} *)

val num_fields : t -> int

val field_offset : t -> int -> int
(** Byte offset of field slot [i] inside the object's region. *)

val get_field : t -> int -> t
(** The raw slot value: {!null} when empty, possibly a stale (forwarded)
    record otherwise — callers resolve as needed.  Out-of-range indices
    return {!null} rather than raising: pooling may detach a freed
    object's field array mid card-scan, and the scan's remaining window
    then reads an empty object. *)

val set_field : t -> int -> t -> unit
(** Store [v] ({!null} clears the slot).  The single choke point for
    edge accounting: maintains the old and new referents' {!inrefs} so
    each live slot is counted exactly once.  Raises [Invalid_argument],
    storing nothing, when [v]'s count is already {!max_inrefs}.
    Out-of-range stores are dropped (same detached-array tolerance as
    {!get_field}). *)

val retire_edges : t -> unit
(** Decrement the {!inrefs} of every non-{!null} referent in [t]'s
    slots: region release calls it on each dying holder, so a dead slot
    stops counting before the holder's array is recycled. *)

val iter_fields : (int -> t -> unit) -> t -> unit
(** Apply to each non-{!null} field (index, referent). *)

(** {2 Pooling} *)

(** Freelists for dead records and their field arrays, and the queue of
    stubs past their grace period, owned by
    run-threaded heap state ({!Heap_impl.t}) — no DLS on the hot path.
    [take_*] misses fall back to fresh host allocation, so a pool is
    only ever an allocation cache, never a semantic dependency.
    Recycling is invisible to the simulated level: reinitialization
    matches a fresh literal and uids mint from the same counter. *)
module Pool : sig
  type obj = t

  type t

  val max_bucketed_nrefs : int
  (** Field arrays longer than this are left to the host GC. *)

  val create : unit -> t

  val put_array : t -> obj array -> unit
  (** Detach a dead holder's array into its exact-length bucket,
      clearing it to {!null} (no dead references retained). *)

  val take_array : t -> int -> obj array
  (** An all-{!null} array of exactly [n] slots: recycled when the
      bucket has one, freshly allocated otherwise. *)

  val put_record : t -> obj -> unit

  val put_stubs : t -> obj Util.Vec.t -> unit
  (** Queue a batch of stubs whose grace period has ended ({!Grace}),
      in release order; the pool owns the vector from then on.  Batches
      must arrive in release order too.  Nothing is tested yet. *)

  val take_record : t -> obj
  (** A dead record put by {!put_record} (the most recent first), or
      {!null} when there is none. *)

  val take_copy_record : t -> obj
  (** A record for a relocation copy ({!remake}): the oldest stub from
      {!put_stubs} that still has no {!inrefs} and no weak,
      unremapped or forwarding-target flag ({!set_forward}; the
      others are dropped on the way), else {!take_record}.  A stub taken
      clears its copy's forwarding-target flag when the copy still has its
      logical id.  Stubs back copies only: a copy is long-lived, while a
      short-lived object in an old host record would pay the host GC's
      write barrier on every later store of a young value into it. *)

  val stats : t -> int * int * int * int
  (** [(records_reused, arrays_reused, records_pooled, arrays_pooled)] *)
end

val alloc_with :
  pool:Pool.t ->
  uids:uids ->
  id:int ->
  size:int ->
  nrefs:int ->
  region:int ->
  offset:int ->
  t
(** Pool-aware allocation — the fast path.  Unchecked: {!Heap_impl}
    allocates only inside regions of a checked geometry. *)

val remake : pool:Pool.t -> uids:uids -> t -> age:int -> region:int -> offset:int -> t
(** Pool-aware copy record for relocation: logical identity, size, both
    mark epochs and flags carry over, [age] is checked against
    {!max_age}; the [fields] array is shared with the source (one logical
    set of slots); {!inrefs} starts at 0 — healing migrates each incoming
    edge from the old record through {!set_field}. *)

(** {2 Region release} *)

val harvest_all : int
(** The [floor] of a release while no mark runs: every dead resident
    may be harvested. *)

val harvest_none : int
(** The [floor] of a release that harvests nothing (pooling off). *)

val release_residents :
  Pool.t -> floor:int -> limbo:t Util.Vec.t -> t Util.Vec.t -> unit
(** Free the residents of a released region: each is flagged freed, and
    a dead one (unforwarded) gives its field array and, when nothing
    can name it again, its record to the pool.  While a mark runs,
    [floor] is the uid watermark of the latest active snapshot, and only
    a dead resident with a uid at or above it, age 0 and no
    {!flag_satb_logged} is harvested: the marker never visits an object
    born marked, and neither a copy's shared array nor a record an SATB
    queue holds is taken.  Outside marking [floor] is {!harvest_all};
    {!harvest_none} only flags.  A harvested holder's edges are retired
    ({!retire_edges}) before any record is tested, so a record whose
    holders all die with it is recycled in the same release.

    A forwarded resident (a stub) with no {!inrefs}, no weak
    registration and no {!flag_unremapped} is pushed onto [limbo]
    whatever the [floor] (except {!harvest_none}), untouched but for its
    freed flag.
    Something outside the heap may still name it, so it reaches the pool
    ({!Pool.put_stubs}) only at the end of a grace period ({!Grace}). *)
