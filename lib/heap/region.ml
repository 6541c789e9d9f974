(** Equal-sized heap regions (§3.1).

    A region is a bump-allocated span holding the objects whose [region]
    field names it, in allocation (= offset) order.  A per-region
    block-offset table ([bot], HotSpot BOT style: one entry per card)
    maps each card to the first object overlapping it, so card scans
    start at the right object in O(1) instead of binary-searching the
    object vector per card; it is maintained incrementally by
    {!push_obj} and invalidated wholesale by {!reset}.  The table is
    allocated when the region first receives an object: a short run
    claims only some of its heap's regions, and a region never claimed
    costs no per-card words.  [live_bytes] is
    the result of the last completed marking cycle and drives
    collection-set / group selection. *)

type kind = Free | Young | Old

let kind_to_string = function Free -> "free" | Young -> "young" | Old -> "old"

(** Card granularity of [bot], and of the heap's card table, remembered
    sets and CRDT. *)
let card_bytes = 512

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
      (** slots [[length objects, carried)] of [objects] hold the
          records a recycled heap's previous run left there, not yet
          reissued or handed to the pool, or the dummy where a release
          or slide cleared a slot below the length; 0 when there are
          none *)
}

let make ~rid ~size =
  {
    rid;
    size;
    kind = Free;
    top = 0;
    objects = Util.Vec.create ~capacity:64 Gobj.null;
    bot = [||];
    bot_filled = 0;
    live_bytes = 0;
    marking_live = 0;
    group = -1;
    in_cset = false;
    alloc_epoch = 0;
    carried = 0;
  }

let is_free t = t.kind = Free
let free_bytes t = t.size - t.top
let used_bytes t = t.top
let object_count t = Util.Vec.length t.objects

(** Fraction of the region's *capacity* occupied by live data per the
    last mark.  Capacity, not filled bytes: evacuating a region reclaims
    the whole region, so a barely-filled region whose few bytes are all
    live is still a cheap, profitable victim — dividing by [top] would
    make retired allocation buffers look dense and let them accumulate. *)
let live_ratio t = float_of_int t.live_bytes /. float_of_int t.size

(** Region capacity reclaimed by evacuating this region. *)
let garbage_bytes t = t.size - t.live_bytes

(** Can [size] more bytes be bump-allocated here? *)
let fits t size = t.top + size <= t.size

(** Card index of byte offset [off]; a shift, as [card_bytes] is a
    constant power of two. *)
let[@inline] card_index off = off / card_bytes

(** Append an already-constructed object at the current top. The caller
    guarantees [fits].  Maintains the block-offset table: allocation is
    contiguous, so the unowned cards the object overlaps are exactly
    [bot_filled ..= card(top + size - 1)] — extending the owned prefix
    needs no per-card ownership test, and the common small object costs
    one shift and one compare.  Amortized O(1): every BOT entry is
    written at most once per region lifetime.  The region's first object
    allocates the table. *)
let push_obj t (o : Gobj.t) =
  Gobj.set_loc o ~region:t.rid ~offset:t.top;
  let idx = Util.Vec.length t.objects in
  (* A record reissued in place is already in its slot. *)
  if idx < t.carried then Util.Vec.push_kept t.objects o
  else Util.Vec.push t.objects o;
  let size = Gobj.size o in
  if size > 0 then begin
    let c1 = card_index (t.top + size - 1) in
    if t.bot_filled <= c1 && Array.length t.bot = 0 then
      t.bot <- Array.make ((t.size + card_bytes - 1) / card_bytes) (-1);
    while t.bot_filled <= c1 do
      Array.unsafe_set t.bot t.bot_filled idx;
      t.bot_filled <- t.bot_filled + 1
    done
  end;
  t.top <- t.top + size

(* Forget every object without touching liveness/kind bookkeeping: the
   full-GC in-place slide empties the region and immediately re-pushes
   its survivors.  The BOT must be invalidated with the object vector or
   later card scans would start from indices of the pre-slide layout. *)
let clear_objects t =
  Util.Vec.clear t.objects;
  Array.fill t.bot 0 t.bot_filled (-1);
  t.bot_filled <- 0;
  t.top <- 0

(** First index in [objects] whose span reaches byte offset [off] or
    later (equivalently: first object with [offset + size > off] —
    objects are disjoint and offset-sorted).  O(1) via the block-offset
    table: the BOT entry of the card holding [off] is the first object
    overlapping that card, and only objects of that same card can end
    in ([card start], [off]], so at most a card's worth of objects are
    stepped over.  When no object overlaps the card, the answer is the
    first object of a later card; binary search covers that cold case. *)
let first_object_at t ~off =
  let n = Util.Vec.length t.objects in
  if off >= t.top then n
  else begin
    let c = card_index off in
    let b = if c < Array.length t.bot then Array.unsafe_get t.bot c else -1 in
    if b >= 0 then begin
      let i = ref b in
      while
        !i < n
        &&
        let o = Util.Vec.get t.objects !i in
        Gobj.offset o + Gobj.size o <= off
      do
        incr i
      done;
      !i
    end
    else begin
      (* No object overlaps [off]'s card: the first object at or past
         the card's end, found by binary search (cold path). *)
      let i =
        Util.Vec.find_first_geq t.objects ~key:off ~of_elt:Gobj.offset
      in
      if i > 0 then
        let prev = Util.Vec.get t.objects (i - 1) in
        if Gobj.offset prev + Gobj.size prev > off then i - 1 else i
      else i
    end
  end

(** Iterate objects whose bytes intersect [off, off+len).  The length is
    re-read on every step: [f] may suspend the calling fiber (batched GC
    cost accounting), and a concurrent collection cycle may reclaim this
    region meanwhile — the reset empties [objects], which safely ends the
    scan (the card's contents are gone with the region). *)
let iter_objects_in_range t ~off ~len f =
  let stop = off + len in
  let i = ref (first_object_at t ~off) in
  let continue_ = ref true in
  while !continue_ && !i < Util.Vec.length t.objects do
    let o = Util.Vec.get t.objects !i in
    if Gobj.offset o >= stop then continue_ := false
    else begin
      f o;
      incr i
    end
  done

(** Reset to an empty, [Free] region and invalidate the block-offset
    table.  The caller has already freed the residents
    ({!Gobj.release_residents}).  Carried-over slots stay. *)
let reset t =
  Util.Vec.clear t.objects;
  Array.fill t.bot 0 t.bot_filled (-1);
  t.bot_filled <- 0;
  t.kind <- Free;
  t.top <- 0;
  t.live_bytes <- 0;
  t.marking_live <- 0;
  t.group <- -1;
  t.in_cset <- false

(** Reset for the next run of a recycled heap: as {!reset}, except that
    the object vector keeps its records ({!Util.Vec.forget}) and they
    become the carried-over slots.  The caller has handed any older
    carried-over slots to the pool. *)
let recycle t =
  let n = Util.Vec.length t.objects in
  Util.Vec.forget t.objects;
  reset t;
  t.carried <- n;
  t.alloc_epoch <- 0
