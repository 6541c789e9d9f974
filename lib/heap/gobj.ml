(** Simulated heap objects: unboxed reference slots around a null
    sentinel, with pooled records and field arrays.

    An object is a record holding real reference slots ([fields]) to other
    objects, so marking genuinely traverses the graph and evacuation
    genuinely copies.  Reference slots are *unboxed*: an empty slot holds
    the distinguished {!null} sentinel instead of [None], so barrier
    reads, reference stores, mark-stack pushes and evacuation copies never
    box a reference in an [option] block — the host minor heap stays
    quiet on the per-reference fast path ([tools/gcsim_lint] rule R5
    keeps [t option] out of the heap and collector trees).

    Relocation creates a copy record for the new location and installs it
    in the old copy's [forward] slot ({!null} = not relocated): references
    elsewhere in the heap keep pointing at the old record, which is
    exactly a stale reference in a concurrent copying collector, and
    healing replaces them with {!resolve}.  The new copy shares the
    [fields] array (the payload moved; there is one logical set of slots).

    Record and array ownership (pooling): {!Heap_impl.release_region}
    recycles the storage of dead residents through a {!Pool} owned by the
    heap.  The rules are

    - an unforwarded (dead) record may be recycled at its release only
      when nothing can reach it again: its [inrefs] count of incoming
      heap edges is zero (a dangling stale edge must keep finding the
      record [freed], never conflated with a new identity), and it is
      not a registered weak referent;
    - a forwarded record (a stub: the live object was copied out) may
      still be named after its release by what the edge count does not
      see — an unrooted local of a request in flight, a gray stack, an
      SATB queue or a root not yet healed — so it is never recycled at
      the release.  With the same [inrefs] and flag tests it goes into
      limbo instead, keeping its [forward], its freed flag and its
      [fields] (shared with the live copy), so every read before the
      end of the limbo sees what it saw before; {!Grace} hands it to
      the pool once every participant online at the release has passed
      a quiescent point (a mutator between requests, a collector
      controller between steps or where a step holds no record outside
      the roots and heap slots, as Jade's old controller does when its
      mark ends), and it is reused, by a relocation copy before any
      dead record or by an allocation once no dead record is left, only
      if no record that can still be named forwards to it
      ({!flag_forward_target});
    - a [fields] array may be recycled from any dead unforwarded
      resident: dead holders are unreachable, and every guard on
      dangling edges ([is_freed]) fires before a field read, so nothing
      reads the detached holder's slots and field access is strict (an
      index out of range raises); a stub's array belongs to its live
      copy and is never taken;
    - while a mark runs, only a resident born after every active
      snapshot is harvested at its release, and only a fresh one (age
      0) that no SATB queue took: the marker never visits an object born
      marked, but a copy shares a pre-snapshot array and a queued record
      may still be popped ({!release_residents});
    - every other dead resident released while a mark runs is held
      back: flagged freed, its edges and array left alone, it waits in
      a second limbo beside the stubs.  No controller declares a
      quiescent point while a mark it runs is in progress, so when its
      grace period ends the marks running at the release have ended
      too, their final pauses having drained every gray stack and SATB
      queue, and it goes through the same harvest as a release outside
      marking;
    - [inrefs] is maintained at the {!set_field} choke point (install /
      overwrite) plus one decrement pass over dying holders at region
      release, so each logical edge is counted exactly once no matter
      how often healing rewrites it between records of one identity;
    - a recycled heap's regions keep the records its previous run left
      in them as carried-over slots, unreachable from the new run.
      Each is issued once more: reissued in its own slot ({!reissue}),
      or handed to the pool with the rules above for a dead or
      forwarded resident (the record, and its array only when
      unforwarded; {!hand_over}) when a copy lands on its slot or at
      the run's first pool miss, before any fresh host allocation.  A slot's record counts only when its
      [loc] names that region and it carries the retired run's
      {!flag_run} bit.

    Recycling never touches simulated state: a pooled record is
    reinitialized exactly like a fresh one and mints its uid from the
    same counter, so uids, traces and metrics are bit-identical with
    pooling on or off. *)

type t = {
  mutable ids : int;  (** packed [id] and [uid]; see below *)
  mutable fields : t array;  (** reference slots; {!null} = empty *)
  mutable forward : t;  (** newer copy; {!null} = not relocated *)
  mutable loc : int;  (** packed [region] and [offset] *)
  mutable marks : int;  (** packed [mark] and [ymark] epochs and [inrefs] *)
  mutable meta : int;  (** packed [size], [age] and [flags] *)
}

(* ------------------------------------------------------------------ *)
(* Packed header words.                                                 *)
(*
   ids   = id lsl 31 lor uid              uid: bits 0-30, id: bits 31-61
                                          (signed; the sentinel's -1
                                          survives [asr])
   loc   = region lsl 32 lor offset       offset: bits 0-31 (unsigned)
                                          region: bits 32-62 (signed; the
                                          sentinel's -1 survives [asr])
   marks = inrefs lsl 40 lor mark lsl 20 lor ymark
                                          ymark: bits 0-19, mark: 20-39,
                                          inrefs: bits 40-61 (read with
                                          [asr], so it stays a signed
                                          count in the top bits)
   meta  = size lsl 28 lor age lsl 8 lor flags
                                          flags: bits 0-7, age: 8-27,
                                          size: bits 28-61

   [id] is the logical identity, preserved across copies; [uid] the
   physical identity of one record, unique per copy and never reused
   (pooled records mint a fresh one), which keys forwarding-install race
   checks.  The sentinel's [ids] of -1 reads as id -1 and uid 2^31 - 1,
   one above the last uid {!mint} hands out, so no record shares its
   physical identity.  One run mints at most 2^31 - 1 uids: the most
   allocation-heavy configuration measured mints about 19 million per
   virtual second, so such a run must stay under about 114 virtual
   seconds.  The 20-bit epochs last at least 984 virtual seconds at the
   fastest marking measured, and [inrefs] never passed 1 on any workload
   (DESIGN.md section 12 has the rates and limits).

   [inrefs] counts the heap reference slots currently holding the
   record.  Roots are deliberately not counted: a root-reachable
   object is marked and hence forwarded before its region is ever
   released, so the zero-inrefs recycling test never sees it.

   Every width is checked where its bound is set, never wrapped: ids and
   uids when they are minted, region sizes when a heap is created,
   epochs when a marking cycle begins, the inrefs count on each
   increment in {!set_field}, ages when a copy is made, flags when one is
   set, and everything in the cold {!make}.  The hot accessors then
   decode with a shift and a mask and no test. *)

let uid_bits = 31
let uid_mask = (1 lsl uid_bits) - 1
let max_uid = uid_mask - 1 (* the all-ones uid is the sentinel's *)
let max_id = uid_mask
let offset_bits = 32
let max_offset = (1 lsl offset_bits) - 1
let max_region = (1 lsl (62 - offset_bits)) - 1
let max_region_bytes = 1 lsl offset_bits
let epoch_bits = 20
let max_epoch = (1 lsl epoch_bits) - 1
let mark_field = max_epoch lsl epoch_bits
let epochs_mask = (1 lsl (2 * epoch_bits)) - 1
let inrefs_shift = 2 * epoch_bits
let max_inrefs = (1 lsl (62 - inrefs_shift)) - 1
let inref_one = 1 lsl inrefs_shift
let inrefs_full = max_inrefs lsl inrefs_shift
let flag_bits = 8
let flag_mask = (1 lsl flag_bits) - 1
let age_bits = 20
let max_age = (1 lsl age_bits) - 1
let age_field = max_age lsl flag_bits
let size_shift = flag_bits + age_bits
let max_size = (1 lsl (62 - size_shift)) - 1

let[@inline] id t = t.ids asr uid_bits
let[@inline] uid t = t.ids land uid_mask
let[@inline] pack_loc ~region ~offset = (region lsl offset_bits) lor offset
let[@inline] region t = t.loc asr offset_bits
let[@inline] offset t = t.loc land max_offset
let[@inline] set_loc t ~region ~offset = t.loc <- pack_loc ~region ~offset
let[@inline] mark t = (t.marks lsr epoch_bits) land max_epoch
let[@inline] ymark t = t.marks land max_epoch
let[@inline] inrefs t = t.marks asr inrefs_shift

let[@inline] set_mark t e =
  t.marks <- (t.marks land lnot mark_field) lor (e lsl epoch_bits)

let[@inline] set_ymark t e = t.marks <- (t.marks land lnot max_epoch) lor e
let[@inline] size t = t.meta lsr size_shift
let[@inline] age t = (t.meta lsr flag_bits) land max_age
let[@inline] flags t = t.meta land flag_mask

let check_range what v ~max =
  if v < 0 || v > max then
    invalid_arg (Printf.sprintf "Gobj: %s %d outside [0, %d]" what v max)

let check_epoch e = check_range "epoch" e ~max:max_epoch

let header_bytes = 16
let slot_bytes = 8
let slot_shift = 3 (* log2 slot_bytes: card scans shift, not divide *)

(* Flag bits *)
let flag_weak_referent = 1

let flag_run = 2
(* the parity of the run that issued the record: a recycled heap's pool
   flips it at each recycle ({!Pool.restart}), so a carried-over record
   tells in one test whether the retired run issued it ({!carried_over}).
   Not a simulated flag: nothing in the simulation reads it. *)

let flag_freed = 4

let flag_unremapped = 8
(* set by ZGC on each record its relocation forwarded: roots and heap
   slots keep naming it until the next cycle's mark remaps them, long
   after any grace period ends, so it never enters the stub limbo. *)

let flag_satb_logged = 16
(* set when a marker's SATB queue takes a bare reference to the record;
   never cleared, so a dead record a queue may still hold is never
   harvested while a mark runs ({!release_residents}). *)

let flag_forward_target = 32
(* set on a copy when a forwarding pointer is installed to it, cleared
   when that predecessor is reused after its grace period: until then a
   stale reference can still resolve through the predecessor to this
   record, so it is not reused ({!Pool.take_record},
   {!Pool.take_copy_record}). *)

let no_fields : t array = [||]

(* The null sentinel: one distinguished record, compared physically.
   [forward] ties the knot so [resolve null] is [null] and the
   not-forwarded test is a single physical comparison. *)
let rec null =
  {
    ids = -1 (* id -1, like the region below; uid [max_uid + 1] *);
    fields = no_fields;
    forward = null;
    loc = pack_loc ~region:(-1) ~offset:0;
    marks = 0;
    meta = 0;
  }

let[@inline] is_null t = t == null

(* Physical identities are minted from one per-domain counter: region
   ids and offsets are both recycled, so only the record itself names
   "this copy of this object" unambiguously across a whole run.
   Domain-local, not global: the parallel exploration/sweep drivers
   ([Util.Dpool]) build one heap per domain, and a shared counter would
   interleave uid streams host-nondeterministically. *)
let uid_counter_key : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

(** A cached handle on this domain's uid counter, for paths that mint a
    uid per allocation or per evacuation copy: resolving the DLS slot
    once at heap creation and minting through the handle turns the
    per-object cost into a load, a compare and a store.  The handle must
    live in run-threaded state (e.g. {!Heap_impl.t}), mirroring the
    {!Access.hooks} discipline. *)
type uids = int ref

let uid_source () : uids = Domain.DLS.get uid_counter_key

(* A run that outgrows the 31-bit id or uid space stops with a message
   that says so; DESIGN.md section 12 gives the run lengths that fit. *)
let out_of what ~max =
  invalid_arg
    (Printf.sprintf
       "Gobj: out of %ss: one run mints at most %d (DESIGN.md section 12)"
       what (max + 1))

(* The one compare keeps the uid inside its 31 bits and off the
   sentinel's all-ones uid: past [max_uid] the counter raises instead of
   wrapping into another record's identity. *)
let[@inline] mint (c : uids) =
  let u = !c in
  if u > max_uid then out_of "uid" ~max:max_uid;
  c := u + 1;
  u

let fresh_uid () = mint (uid_source ())

(** Current value of the uid counter.  The verifier records it when a
    marking snapshot is taken: any record with a uid at or above the
    watermark was created (allocated or copied) after the snapshot, and
    tri-color discipline does not constrain it. *)
let uid_watermark () = !(Domain.DLS.get uid_counter_key)

(** Restart the uid space.  Called when a fresh heap is created
    ({!Heap_impl.create}): uids, like virtual time, are then a pure
    function of the run — two in-process runs of one configuration mint
    identical uids, which is what lets the schedule-space explorer
    promise byte-identical violation reports on replay, whether the
    runs share a domain (sequential) or not ([-j N]). *)
let reset_uids () = Domain.DLS.get uid_counter_key := 0

(** Checked constructor for cold paths and tests: pays the DLS lookup
    for the uid and range-checks every packed header field. *)
let make ~id ~size ~nrefs ~region ~offset =
  check_range "id" id ~max:max_id;
  check_range "region" region ~max:max_region;
  check_range "offset" offset ~max:max_offset;
  check_range "size" size ~max:max_size;
  {
    ids = (id lsl uid_bits) lor fresh_uid ();
    fields = (if nrefs = 0 then no_fields else Array.make nrefs null);
    forward = null;
    loc = pack_loc ~region ~offset;
    marks = 0;
    meta = size lsl size_shift;
  }

let has_flag t f = t.meta land f <> 0

let set_flag t f =
  check_range "flags" f ~max:flag_mask;
  t.meta <- t.meta lor f

let clear_flag t f = t.meta <- t.meta land lnot (f land flag_mask)

let is_freed t = has_flag t flag_freed

(* Physical comparison against the sentinel: one load and one pointer
   compare, no C call — this test guards every mutator load/store and
   root access. *)
let[@inline] is_forwarded t = t.forward != null

(** Install the forwarding pointer of [t].  All relocation paths go
    through here so the race detector sees every install as a [Write] on
    the old copy's physical identity — two unordered installs on one
    record are a double relocation.  Callers pass their heap's cached
    [hooks] handle so a disabled detector costs one load+branch per
    install instead of a DLS lookup. *)
let set_forward ~hooks ~site t copy =
  Access.log_with hooks Access.Write Access.Forward ~key:(uid t) ~site;
  copy.meta <- copy.meta lor flag_forward_target;
  t.forward <- copy

(** Newest copy of an object (identity: follows the forwarding chain).
    [resolve null] is [null]: the sentinel's knotted [forward] makes the
    empty slot a fixpoint, so callers can resolve a field value without
    testing it first. *)
let rec resolve t = if t.forward == null then t else resolve t.forward

(* Why a freed target reads as null: see the interface. *)
let live_target slot =
  let o = resolve slot in
  if is_freed o then null else o

(** Length of the forwarding chain, for tests and cost accounting. *)
let forward_depth t =
  let rec go t n = if t.forward == null then n else go t.forward (n + 1) in
  go t 0

let num_fields t = Array.length t.fields

(** Byte offset of field slot [i] inside the object's region. *)
let field_offset t i = offset t + header_bytes + (i * slot_bytes)

(* Field access is strict: a dead holder gives its array to the pool
   only when its region is released, and nothing reads or writes the
   slots of a released region's residents, so an index out of range is
   a simulator bug and raises [Invalid_argument]. *)
let get_field t i = t.fields.(i)

(* The single choke point for edge accounting: every reference install
   and overwrite (mutator stores, healing rewrites, evacuation scans)
   lands here, so [inrefs] counts each live slot exactly once.  The
   sentinel is never counted — its [inrefs] stays 0 forever.  The count
   lives in the top bits of [marks], so one add or subtract moves it and
   one compare (made before anything is written) keeps it in its width. *)
let set_field t i v =
  let fs = t.fields in
  (* Bounds-checked: an index out of range raises before anything is
     written. *)
  let old = fs.(i) in
  if old != v then begin
    if v != null then begin
      let m = v.marks in
      if m >= inrefs_full then
        check_range "inrefs" (inrefs v + 1) ~max:max_inrefs;
      v.marks <- m + inref_one
    end;
    if old != null then old.marks <- old.marks - inref_one;
    Array.unsafe_set fs i v
  end

(* Region release's decrement pass: a dying holder's slots stop counting
   towards their referents' [inrefs]. *)
let retire_edges t =
  let fs = t.fields in
  for i = 0 to Array.length fs - 1 do
    let c = Array.unsafe_get fs i in
    if c != null then c.marks <- c.marks - inref_one
  done

let iter_fields f t =
  for i = 0 to Array.length t.fields - 1 do
    let o = Array.unsafe_get t.fields i in
    if o != null then f i o
  done

(* ------------------------------------------------------------------ *)
(* Pooling.                                                             *)

(* A stub that may be reused: no weak registration or unremapped
   reference names it, and no record that can still be named forwards
   to it. *)
let stub_flags =
  flag_weak_referent lor flag_unremapped lor flag_forward_target

(** Freelists for dead records and their field arrays, and the queue of
    stubs past their grace period, owned by
    run-threaded heap state ({!Heap_impl.t}) — no DLS on the hot path.
    [take_*] misses fall back to fresh host allocation, so a pool is
    only ever an allocation cache, never a semantic dependency. *)
module Pool = struct
  type obj = t

  (* Field arrays are bucketed by exact length; longer ones are left to
     the host GC (rare: directory/segment fan-out objects). *)
  let max_bucketed_nrefs = 128

  type t = {
    records : obj Util.Vec.t;
    stubs : obj Util.Ring.t;
        (** stubs whose grace period has ended, in release order *)
    arrays : obj array Util.Vec.t array;  (** index = exact array length *)
    made : int array;
        (** index = array length: arrays of that length made fresh here,
            an upper bound on the bucket's length *)
    mutable run : int;
        (** the {!flag_run} bit of the records this run issues: 0 on a
            fresh pool, flipped by each {!restart} *)
    mutable refill : unit -> unit;
        (** hands every carried-over record of the heap to the
            freelists ({!set_refill}) *)
    mutable carried : bool;
        (** some region may still have carried-over slots: [refill] runs
            at the first miss, before any fresh host allocation *)
    mutable records_reused : int;
    mutable arrays_reused : int;
    mutable records_pooled : int;
    mutable arrays_pooled : int;
  }

  let create () =
    {
      records = Util.Vec.create null;
      stubs = Util.Ring.create null;
      arrays = Array.init (max_bucketed_nrefs + 1) (fun _ -> Util.Vec.create no_fields);
      made = Array.make (max_bucketed_nrefs + 1) 0;
      run = 0;
      refill = ignore;
      carried = false;
      records_reused = 0;
      arrays_reused = 0;
      records_pooled = 0;
      arrays_pooled = 0;
    }

  let set_refill p f = p.refill <- f

  (* Kept out of line: it runs once per recycled run. *)
  let[@inline never] refill p =
    p.carried <- false;
    p.refill ()

  (* Clear [a] and push it onto its size bucket, if it has one.  Cleared
     here, at the cold end (region release), so [take_array] hands back
     ready slots and the pool retains no dead references. *)
  let bucket p (a : obj array) =
    let n = Array.length a in
    if n > 0 && n <= max_bucketed_nrefs then begin
      Array.fill a 0 n null;
      Util.Vec.push p.arrays.(n) a
    end

  (** Detach [a] into its size bucket. *)
  let put_array p (a : obj array) =
    let n = Array.length a in
    if n > 0 && n <= max_bucketed_nrefs then begin
      bucket p a;
      p.arrays_pooled <- p.arrays_pooled + 1
    end

  (** An all-{!null} array of exactly [n] slots: recycled when the
      bucket has one, freshly allocated otherwise. *)
  let take_array p n =
    if n = 0 then no_fields
    else if n <= max_bucketed_nrefs then begin
      let b = p.arrays.(n) in
      if Util.Vec.is_empty b && p.carried then refill p;
      if Util.Vec.is_empty b then begin
        p.made.(n) <- p.made.(n) + 1;
        Array.make n null
      end
      else begin
        p.arrays_reused <- p.arrays_reused + 1;
        Util.Vec.pop_last b
      end
    end
    else Array.make n null

  let put_record p (o : obj) =
    Util.Vec.push p.records o;
    p.records_pooled <- p.records_pooled + 1

  (* Queue the stubs whose grace period has ended behind those queued
     before.  No stub is tested here: a record is read once, when it is
     taken for reuse. *)
  let put_stubs p (batch : obj Util.Ring.t) =
    p.records_pooled <- p.records_pooled + Util.Ring.length batch;
    Util.Ring.transfer ~src:batch ~dst:p.stubs

  (* The oldest stub that nothing names any more, or {!null}.  Each is
     tested again: one that gained a heap edge or a flag in limbo is
     dropped, and so is one whose predecessor was not reused before it
     (it still carries {!flag_forward_target}; the ring is in release
     order, so a predecessor released earlier comes out first).  A stub
     taken releases its copy from the flag, unless the copy died and
     its record was reissued under another id. *)
  let rec take_stub p =
    if Util.Ring.is_empty p.stubs then null
    else begin
      let o = Util.Ring.pop_exn p.stubs in
      if inrefs o = 0 && o.meta land stub_flags = 0 then begin
        let c = o.forward in
        if c.ids asr uid_bits = o.ids asr uid_bits then
          c.meta <- c.meta land lnot flag_forward_target;
        p.records_reused <- p.records_reused + 1;
        o
      end
      else take_stub p
    end

  (** A dead record to reinitialize, else the oldest stub that nothing
      names any more, or {!null} when there is neither. *)
  let take_record p =
    if Util.Vec.is_empty p.records && p.carried then refill p;
    if Util.Vec.is_empty p.records then take_stub p
    else begin
      p.records_reused <- p.records_reused + 1;
      Util.Vec.pop_last p.records
    end

  (* A record for a relocation copy: a stub past its grace period, else
     a dead record.  A copy is long-lived, so reusing an old host record
     for it costs little; an allocation takes dead records first, since
     a short-lived object placed in an old record pays the host GC's
     write barrier on every later store of a young value into it, and
     takes a stub only when no dead record is left. *)
  let take_copy_record p =
    let o = take_stub p in
    if o == null then take_record p else o

  let stats p =
    (p.records_reused, p.arrays_reused, p.records_pooled, p.arrays_pooled)

  (* A recycled heap's pool starts a new run ({!Heap_impl.create}): its
     stubs were named by the old run's roots and worklists, so they are
     dropped, and the counters restart because each run reports its own
     reuse.  The freelists stay; they are the point of recycling.  The
     run bit flips, so every record the old run issued now reads as the
     retired run's.  The freelists are sized here for the [carried]
     records and their arrays (a bucket never holds more arrays than
     were made for it), so handing them over later allocates nothing. *)
  let restart p ~carried =
    Util.Ring.clear p.stubs;
    p.run <- p.run lxor flag_run;
    p.carried <- carried > 0;
    Util.Vec.reserve p.records (Util.Vec.length p.records + carried);
    for n = 1 to max_bucketed_nrefs do
      let b = p.arrays.(n) in
      Util.Vec.reserve b (Util.Vec.length b + Int.min carried p.made.(n))
    done;
    p.records_reused <- 0;
    p.arrays_reused <- 0;
    p.records_pooled <- 0;
    p.arrays_pooled <- 0
end

(** Pool-aware allocation: the fast path.  A recycled
    record is reinitialized field-for-field like a literal and mints its
    uid from the same handle, so the simulated state cannot tell a
    pooled object from a fresh one. *)
(* The header of a reused record, as a fresh one is built: the two
   allocation paths ({!alloc_with}, {!reissue}) share it so that reuse
   never shows in simulated state.  A pointer already in place is not
   stored again. *)
let[@inline] init c ~ids ~fields ~loc ~meta =
  c.ids <- ids;
  if c.fields != fields then c.fields <- fields;
  if c.forward != null then c.forward <- null;
  c.loc <- loc;
  c.marks <- 0;
  c.meta <- meta

let alloc_with ~pool ~uids ~id ~size ~nrefs ~region ~offset =
  let fields = Pool.take_array pool nrefs in
  let c = Pool.take_record pool in
  let ids = (id lsl uid_bits) lor mint uids
  and loc = pack_loc ~region ~offset
  and meta = (size lsl size_shift) lor pool.Pool.run in
  if c == null then { ids; fields; forward = null; loc; marks = 0; meta }
  else begin
    init c ~ids ~fields ~loc ~meta;
    c
  end

(** Pool-aware copy record for relocation: logical identity, size, both
    mark epochs and flags carry over; the [fields] array is *shared* with
    [o] (one logical set of slots); [inrefs] starts at 0 — healing
    migrates each incoming edge from the old record through
    {!set_field}.  The record is a recycled stub when one is ready. *)
let remake ~pool ~uids (o : t) ~age ~region ~offset =
  check_range "age" age ~max:max_age;
  let c = Pool.take_copy_record pool in
  let ids = (o.ids land lnot uid_mask) lor mint uids
  and loc = pack_loc ~region ~offset
  and marks = o.marks land epochs_mask
  and meta = (o.meta land lnot age_field) lor (age lsl flag_bits) in
  if c == null then { ids; fields = o.fields; forward = null; loc; marks; meta }
  else begin
    c.ids <- ids;
    c.fields <- o.fields;
    c.forward <- null;
    c.loc <- loc;
    c.marks <- marks;
    c.meta <- meta;
    c
  end

(* ------------------------------------------------------------------ *)
(* Carried-over slots.                                                  *)

(* The retired run issued [o] at [region]: the one test that keeps a
   record listed in two slots from being issued twice.  A record
   reissued or pooled since carries this run's bit, and one issued at
   another region names that region.  {!null} names region -1. *)
let[@inline] carried_over pool ~region o =
  o.loc asr offset_bits = region && o.meta land flag_run <> pool.Pool.run

(** Allocation at a carried-over slot: the slot at the length of [objs],
    region [region]'s object vector.  A record the retired run issued
    there is reinitialized in place exactly as {!alloc_with} builds a
    record, and keeps its own field array, cleared, when it is
    unforwarded and the array has exactly [nrefs] slots; any other array
    of an unforwarded record goes to its bucket (a stub's is its
    copy's).  A slot whose record fails the test allocates through
    {!alloc_with}. *)
let reissue ~pool ~uids objs ~id ~size ~nrefs ~region ~offset =
  let c = Util.Vec.kept objs (Util.Vec.length objs) in
  if not (carried_over pool ~region c) then
    alloc_with ~pool ~uids ~id ~size ~nrefs ~region ~offset
  else begin
    let fs = c.fields and unforwarded = c.forward == null in
    (* The header first: it carries this run's bit, so the refill that a
       fresh array below may trigger passes over this slot. *)
    init c
      ~ids:((id lsl uid_bits) lor mint uids)
      ~fields:fs ~loc:(pack_loc ~region ~offset)
      ~meta:((size lsl size_shift) lor pool.Pool.run);
    pool.Pool.records_reused <- pool.Pool.records_reused + 1;
    if unforwarded && Array.length fs = nrefs then begin
      if nrefs > 0 then begin
        Array.fill fs 0 nrefs null;
        pool.Pool.arrays_reused <- pool.Pool.arrays_reused + 1
      end
    end
    else begin
      if unforwarded then Pool.bucket pool fs;
      c.fields <- Pool.take_array pool nrefs
    end;
    c
  end

(** Hand the carried-over records in slots [[lo, hi)] of region
    [region]'s object vector [objs] to the pool, with the rules the
    retired run's residents had: each record the retired run issued
    there once, and its field array only when it is unforwarded.  A
    handed-over record takes this run's bit, and no edge is retired: a
    reissued record starts from a zero header.  Not counted in
    {!Pool.stats}, which counts a run's own releases. *)
let hand_over pool ~region objs ~lo ~hi =
  for i = lo to hi - 1 do
    let o = Util.Vec.kept objs i in
    if carried_over pool ~region o then begin
      o.meta <- o.meta lxor flag_run;
      if o.forward == null then Pool.bucket pool o.fields;
      Util.Vec.push pool.Pool.records o
    end
  done

(* ------------------------------------------------------------------ *)
(* Region release.                                                      *)

let harvest_none = max_int
let harvest_all = -1

(* A dead resident whose storage may go to the pool now: unforwarded
   (live objects were copied out and carry a forwarding pointer) and,
   while a mark runs ([floor >= 0]), born after every active snapshot,
   fresh (age 0: a copy shares its source's pre-snapshot array) and
   never taken by an SATB queue.  [harvest_none] fails the uid test for
   every record. *)
let[@inline] harvestable ~floor o =
  o.forward == null
  && (floor < 0
     || (o.ids land uid_mask >= floor
        && o.meta land (age_field lor flag_satb_logged) = 0))

(* Kept here, next to the header tests and pool pushes it runs per
   resident, by choice: the workspace builds without [-opaque], so those
   would inline into [Heap_impl] too, but a build with [--profile dev]
   would make each of them a real call there.  The loops index the vector
   directly: a [Util.Vec.iter] closure over [floor] would cost a host
   allocation per release. *)
let release_residents pool ~floor ~stubs ~held (objs : t Util.Vec.t) =
  (* Two passes keep the edge accounting exactly once: first every
     harvested holder retires its outgoing edges, then storage is
     recycled, so a record whose only holders die with it is free by
     the time the second pass tests it.  Field arrays of dead holders
     are always safe to take (dangling-edge guards test [is_freed]
     before any field read); records only when no stale edge or weak
     registration can still name them.  Stubs that pass the same tests
     and are not unremapped go to [stubs], and dead residents a running
     mark keeps back go to [held], both untouched (see the ownership
     rules above). *)
  let n = Util.Vec.length objs in
  if floor <> harvest_none then begin
    for i = 0 to n - 1 do
      let o = Util.Vec.get objs i in
      if harvestable ~floor o then retire_edges o
    done
  end;
  for i = 0 to n - 1 do
    let o = Util.Vec.get objs i in
    if harvestable ~floor o then begin
      Pool.put_array pool o.fields;
      o.fields <- no_fields;
      if inrefs o = 0 && o.meta land flag_weak_referent = 0 then
        Pool.put_record pool o
    end
    else if floor <> harvest_none then begin
      if o.forward == null then Util.Vec.push held o
      else if
        inrefs o = 0
        && o.meta land (flag_weak_referent lor flag_unremapped) = 0
      then Util.Ring.push stubs o
    end;
    o.meta <- o.meta lor flag_freed
  done
