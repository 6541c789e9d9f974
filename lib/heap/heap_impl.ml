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

(** Card granularity of the card table, remembered sets and CRDT. *)
let card_bytes = 512

let default_config =
  {
    heap_bytes = 64 * Util.Units.mib;
    region_bytes = 512 * Util.Units.kib;
    pooling = true;
  }

let config ?(heap_bytes = default_config.heap_bytes)
    ?(region_bytes = default_config.region_bytes)
    ?(pooling = default_config.pooling) () =
  if heap_bytes mod region_bytes <> 0 then
    invalid_arg "Heap.config: heap_bytes must be a multiple of region_bytes";
  if region_bytes mod card_bytes <> 0 then
    invalid_arg "Heap.config: region_bytes must be a multiple of card_bytes";
  { heap_bytes; region_bytes; pooling }

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
  free_q : int Util.Ring.t;  (** free region ids, claimed in FIFO order *)
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

let create cfg =
  (* A fresh heap is a fresh simulated world: restart the uid space so
     runs are byte-reproducible within one process (replay needs it). *)
  Gobj.reset_uids ();
  let nregions = cfg.heap_bytes / cfg.region_bytes in
  if nregions < 2 then invalid_arg "Heap.create: need at least two regions";
  if nregions > Crdt.max_region_id then
    invalid_arg "Heap.create: too many regions for CRDT encoding";
  (* The packed object header ([Gobj.t]'s [loc] and [meta] words) holds
     region ids, offsets and object sizes without a per-object test: ids
     are bounded by the stricter CRDT limit above, offsets and sizes by
     the region size. *)
  if cfg.region_bytes > Gobj.max_region_bytes then
    invalid_arg "Heap.create: region_bytes too large for the object header";
  let regions =
    Array.init nregions (fun rid ->
        Region.make ~card_bytes ~rid ~size:cfg.region_bytes ())
  in
  let free_q = Util.Ring.create (-1) in
  Array.iter (fun (r : Region.t) -> Util.Ring.push free_q r.rid) regions;
  let pool = Gobj.Pool.create () in
  {
    cfg;
    cpr = cfg.region_bytes / card_bytes;
    costs = Costs.default;
    uids = Gobj.uid_source ();
    hooks = Access.hooks ();
    regions;
    claimed = Array.map (fun r -> Some r) regions;
    free_q;
    free_count = nregions;
    card_dirty = Util.Bitset.create (cfg.heap_bytes / card_bytes);
    next_obj_id = 0;
    mark_epoch = 0;
    young_epoch = 0;
    allocate_live = false;
    allocate_live_young = false;
    mark_floor = 0;
    young_floor = 0;
    bytes_allocated = 0;
    used = 0;
    pool;
    grace = Grace.create pool;
    weak_refs = Util.Vec.create Gobj.null;
    on_region_event = None;
  }

let num_regions t = Array.length t.regions
let region t rid = t.regions.(rid)
let free_regions t = t.free_count
let used_regions t = num_regions t - t.free_count
let total_cards t = t.cfg.heap_bytes / card_bytes
let cards_per_region t = t.cpr

(** Occupancy as a fraction of the whole heap, at region granularity (the
    trigger metric used by all the collectors). *)
let occupancy t =
  float_of_int (used_regions t) /. float_of_int (num_regions t)

let used_bytes t = t.used

(** Append an already-constructed (relocated) object at [r]'s bump
    pointer.  GC evacuation and compaction paths must use this instead of
    raw [Region.push_obj] so heap-level accounting stays exact. *)
let push_relocated t (r : Region.t) (o : Gobj.t) =
  Region.push_obj r o;
  t.used <- t.used + Gobj.size o

(** A collector about to rebuild [r] in place (full-GC slide) retires the
    region's current contents from the incremental {!used_bytes};
    survivors re-enter through {!push_relocated}. *)
let begin_region_rebuild t (r : Region.t) = t.used <- t.used - r.top

(* ------------------------------------------------------------------ *)
(* Cards.                                                               *)

let card_of t ~rid ~offset = (rid * cards_per_region t) + (offset / card_bytes)

(** Card holding field slot [i] of [o]. *)
let card_of_field t (o : Gobj.t) i =
  card_of t ~rid:(Gobj.region o) ~offset:(Gobj.field_offset o i)

let card_to_region t card = card / cards_per_region t

(** First byte offset covered by [card] inside its region. *)
let card_to_offset t card = card mod cards_per_region t * card_bytes

let dirty_card t card =
  Access.log_with t.hooks Access.Atomic Access.Card ~key:card
    ~site:"Heap_impl.dirty_card";
  ignore (Util.Bitset.set t.card_dirty card)

let card_is_dirty t card = Util.Bitset.get t.card_dirty card

let clean_card t card =
  Access.log_with t.hooks Access.Atomic Access.Card ~key:card
    ~site:"Heap_impl.clean_card";
  Util.Bitset.clear t.card_dirty card

let iter_dirty_cards f t = Util.Bitset.iter_set f t.card_dirty

(** Scan the objects overlapping [card] in its region, applying
    [f ctx] to each reference slot that falls inside the card.  The
    intersecting field window is computed arithmetically — field [i]
    lives at byte [o.offset + header_bytes + i*slot_bytes], so the window
    is a pair of divisions instead of a per-field range check.  Visits
    exactly the field indices [foff >= off && foff < stop] would, in the
    same order.  The walk is its own loop and [f] gets its context as an
    argument, so a closed [f] makes the scan allocation-free.  The object
    count is re-read after every object: [f] may suspend the calling
    fiber (batched GC cost accounting), and a concurrent cycle may reset
    the region meanwhile — the reset empties [objects], which safely ends
    the scan (the card's contents are gone with the region). *)
let scan_card t card ctx ~f =
  let r = t.regions.(card_to_region t card) in
  if not (Region.is_free r) then begin
    let off = card_to_offset t card in
    let stop = off + card_bytes in
    let objects = r.Region.objects in
    let j = ref (Region.first_object_at r ~off) in
    while
      !j < Util.Vec.length objects
      && Gobj.offset (Util.Vec.get objects !j) < stop
    do
      let o = Util.Vec.get objects !j in
      let nf = Gobj.num_fields o in
      if nf > 0 then begin
        let base = Gobj.offset o + Gobj.header_bytes in
        let lo =
          if base >= off then 0
          else (off - base + Gobj.slot_bytes - 1) lsr Gobj.slot_shift
        in
        let hi =
          if stop <= base then 0
          else min nf ((stop - base + Gobj.slot_bytes - 1) lsr Gobj.slot_shift)
        in
        for i = lo to hi - 1 do
          f ctx o i
        done
      end;
      incr j
    done
  end

(* ------------------------------------------------------------------ *)
(* Region lifecycle.                                                    *)

(** Claim a free region for allocation of the given kind. *)
let claim_region t kind =
  if Util.Ring.is_empty t.free_q then None
  else begin
    let rid = Util.Ring.pop_exn t.free_q in
    t.free_count <- t.free_count - 1;
    let r = t.regions.(rid) in
    if not (Region.is_free r) then
      failwith
        (Printf.sprintf
           "Heap_impl.claim_region: region %d is on the free list but in \
            state %s (top=%d) — double claim or missed release"
           rid
           (Region.kind_to_string r.Region.kind)
           r.Region.top);
    Access.log_with t.hooks Access.Acquire Access.Region_ctl ~key:rid
      ~site:"Heap_impl.claim_region";
    r.kind <- kind;
    r.alloc_epoch <- t.mark_epoch;
    (match t.on_region_event with
    | Some f -> f r ~claimed:true
    | None -> ());
    t.claimed.(rid)
  end

let set_region_observer t f = t.on_region_event <- f

(** Release a region back to the free list; resident (non-evacuated)
    objects become garbage, the region's own cards are cleaned. *)
let release_region t (r : Region.t) =
  if Region.is_free r then
    failwith
      (Printf.sprintf
         "Heap_impl.release_region: region %d is already free — double \
          release"
         r.rid);
  (* Fired before the reset so the observer still sees the region's kind
     and bump pointer (how full it was when it died). *)
  (match t.on_region_event with
  | Some f -> f r ~claimed:false
  | None -> ());
  Access.log_with t.hooks Access.Release Access.Region_ctl ~key:r.rid
    ~site:"Heap_impl.release_region";
  (* Clean the region's whole card stripe word-wise.  When a detector is
     installed, the per-card clean events it relies on are still emitted
     — same resource, same key, same site, same order as the old
     card-by-card loop — before the batched clear, so the observed event
     sequence (Release edge, then each card's Atomic clean) is
     unchanged. *)
  let cpr = cards_per_region t in
  let c0 = r.rid * cpr in
  if Access.enabled t.hooks then
    for c = c0 to c0 + cpr - 1 do
      Access.log_with t.hooks Access.Atomic Access.Card ~key:c
        ~site:"Heap_impl.clean_card"
    done;
  Util.Bitset.clear_range t.card_dirty ~lo:c0 ~hi:(c0 + cpr);
  (* Free the residents, harvesting dead ones into the pool.
     Unforwarded residents at release time are exactly the dead ones:
     every live (marked or born-during-cycle) object was copied out
     before its region is released, so it carries a forwarding pointer.
     While any marking runs, SATB queues and mark stacks may hold bare
     references that bypass [inrefs], so only objects born after every
     active snapshot qualify (see {!Gobj.release_residents}).  The
     forwarded ones (stubs) go to the grace-period limbo instead.
     Host-side only — no events, no ticks, no simulated state. *)
  let floor =
    if not t.cfg.pooling then Gobj.harvest_none
    else if t.allocate_live then
      if t.allocate_live_young then max t.mark_floor t.young_floor
      else t.mark_floor
    else if t.allocate_live_young then t.young_floor
    else Gobj.harvest_all
  in
  Gobj.release_residents t.pool ~floor ~limbo:(Grace.limbo t.grace)
    r.Region.objects;
  t.used <- t.used - r.top;
  Region.reset r;
  Util.Ring.push t.free_q r.rid;
  t.free_count <- t.free_count + 1

(* ------------------------------------------------------------------ *)
(* Object allocation (bump within a region the caller owns).            *)

let fresh_obj_id t =
  let id = t.next_obj_id in
  if id > Gobj.max_id then Gobj.out_of "id" ~max:Gobj.max_id;
  t.next_obj_id <- id + 1;
  id

(** Allocate a fresh object at [r]'s bump pointer.  The caller has
    checked [Region.fits] and owns the region (mutator TLAB or GC
    destination). *)
let alloc_in t (r : Region.t) ~size ~nrefs =
  if not (Region.fits r size) then
    failwith
      (Printf.sprintf
         "Heap_impl.alloc_in: %d bytes do not fit region %d (%s, top=%d of \
          %d) — caller must check Region.fits first"
         size r.rid
         (Region.kind_to_string r.kind)
         r.top r.size);
  let o =
    Gobj.alloc_with ~pool:t.pool ~uids:t.uids ~id:(fresh_obj_id t) ~size
      ~nrefs ~region:r.rid ~offset:r.top
  in
  if t.allocate_live then Gobj.set_mark o t.mark_epoch;
  if t.allocate_live_young then Gobj.set_ymark o t.young_epoch;
  Region.push_obj r o;
  t.bytes_allocated <- t.bytes_allocated + size;
  t.used <- t.used + size;
  o

(** Round a requested payload size up to the slot grid, header included. *)
let object_size ~nrefs ~data_bytes =
  Gobj.header_bytes + (nrefs * Gobj.slot_bytes) + ((data_bytes + 7) / 8 * 8)

(* ------------------------------------------------------------------ *)
(* Marking support.                                                     *)

(** Start an old/full marking cycle; returns the new epoch. *)
let begin_mark t =
  Gobj.check_epoch (t.mark_epoch + 1);
  t.mark_epoch <- t.mark_epoch + 1;
  t.allocate_live <- true;
  t.mark_floor <- !(t.uids);
  Array.iter (fun (r : Region.t) -> r.marking_live <- 0) t.regions;
  t.mark_epoch

let end_mark t =
  t.allocate_live <- false;
  (* Publish marking results. *)
  Array.iter
    (fun (r : Region.t) ->
      if not (Region.is_free r) then
        r.live_bytes <-
          (if r.alloc_epoch >= t.mark_epoch then r.top (* born after snapshot *)
           else r.marking_live))
    t.regions

let is_marked t (o : Gobj.t) = Gobj.mark o >= t.mark_epoch

(** Mark [o] in the current old epoch; returns false if it already was.
    The header's mark epoch is the only mark record; this also accounts
    the region's live bytes. *)
let mark_object t (o : Gobj.t) =
  if Gobj.mark o >= t.mark_epoch then false
  else begin
    Access.log_with t.hooks Access.Atomic Access.Mark_bit ~key:(Gobj.uid o)
      ~site:"Heap_impl.mark_object";
    Gobj.set_mark o t.mark_epoch;
    let r = t.regions.(Gobj.region o) in
    r.marking_live <- r.marking_live + Gobj.size o;
    true
  end

(* -- young-generation marking: an independent mark word and epoch so a
   young cycle can overlap an old cycle without corrupting it. -------- *)

let begin_young_mark t =
  Gobj.check_epoch (t.young_epoch + 1);
  t.young_epoch <- t.young_epoch + 1;
  t.allocate_live_young <- true;
  t.young_floor <- !(t.uids);
  Array.iter
    (fun (r : Region.t) ->
      if r.kind = Region.Young then r.marking_live <- 0)
    t.regions;
  t.young_epoch

let end_young_mark t = t.allocate_live_young <- false

let is_marked_young t (o : Gobj.t) = Gobj.ymark o >= t.young_epoch

let mark_object_young t (o : Gobj.t) =
  if Gobj.ymark o >= t.young_epoch then false
  else begin
    Access.log_with t.hooks Access.Atomic Access.Mark_bit ~key:(Gobj.uid o)
      ~site:"Heap_impl.mark_object_young";
    Gobj.set_ymark o t.young_epoch;
    let r = t.regions.(Gobj.region o) in
    r.marking_live <- r.marking_live + Gobj.size o;
    true
  end

(* ------------------------------------------------------------------ *)
(* Weak references.                                                     *)

let register_weak t (o : Gobj.t) =
  Gobj.set_flag o Gobj.flag_weak_referent;
  Util.Vec.push t.weak_refs o

(** Process registered weak references: referents judged dead by [alive]
    are dropped and the rest survive, resolved to their newest copies and
    compacted in place.  Tracing collectors pass a mark test; young-only
    collections pass a freed-region test.  Returns the number cleared. *)
let process_weak_refs t ~alive =
  let refs = t.weak_refs in
  let n = Util.Vec.length refs in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let o = Gobj.resolve (Util.Vec.get refs i) in
    if (not (Gobj.is_freed o)) && alive o then begin
      Util.Vec.set refs !kept o;
      incr kept
    end
  done;
  Util.Vec.truncate refs !kept;
  n - !kept

(** Weak processing against the current mark (old/full collections). *)
let process_weak_refs_marked t = process_weak_refs t ~alive:(is_marked t)

(** Weak processing for young-only collections: a referent is dead only
    when its region was reclaimed (freed flag). *)
let process_weak_refs_freed_only t =
  process_weak_refs t ~alive:(fun _ -> true)
