(* Tests for the heap substrate: regions, objects, cards, marking, weak
   references, CRDT, remembered sets. *)

open Heap

let kib = Util.Units.kib
let mib = Util.Units.mib

let mk_heap ?(heap_bytes = 4 * mib) ?(region_bytes = 256 * kib) () =
  Heap_impl.create (Heap_impl.config ~heap_bytes ~region_bytes ())

let claim_exn heap kind =
  match Heap_impl.claim_region heap kind with
  | Some r -> r
  | None -> Alcotest.fail "no free region"

let alloc heap r ~size ~nrefs = Heap_impl.alloc_in heap r ~size ~nrefs

(* ------------------------------------------------------------------ *)

let test_config_validation () =
  Alcotest.check_raises "heap multiple of region"
    (Invalid_argument "Heap.config: heap_bytes must be a multiple of region_bytes")
    (fun () ->
      ignore (Heap_impl.config ~heap_bytes:mib ~region_bytes:(384 * kib) ()));
  Alcotest.check_raises "region multiple of card"
    (Invalid_argument "Heap.config: region_bytes must be a multiple of card_bytes")
    (fun () ->
      ignore
        (Heap_impl.config ~heap_bytes:(1000 * 1024) ~region_bytes:1000 ()))

let test_claim_release () =
  let heap = mk_heap () in
  let n = Heap_impl.num_regions heap in
  Alcotest.(check int) "all free initially" n (Heap_impl.free_regions heap);
  let r = claim_exn heap Region.Young in
  Alcotest.(check int) "one claimed" (n - 1) (Heap_impl.free_regions heap);
  Alcotest.(check bool) "kind set" true (r.Region.kind = Region.Young);
  let o = alloc heap r ~size:64 ~nrefs:2 in
  Alcotest.(check int) "bump" 64 r.Region.top;
  Heap_impl.release_region heap r;
  Alcotest.(check int) "released" n (Heap_impl.free_regions heap);
  Alcotest.(check bool) "object freed flag" true (Gobj.is_freed o);
  Alcotest.(check bool) "region reset" true (Region.is_free r && r.Region.top = 0)

(* The incremental used-bytes counter must track the region fold it
   replaced through every path that moves bytes: fresh allocation,
   evacuation-style relocation, in-place rebuild, and release. *)
let test_used_bytes_incremental () =
  let heap = mk_heap () in
  let folded () =
    Array.fold_left
      (fun acc (r : Region.t) -> acc + r.Region.top)
      0 heap.Heap_impl.regions
  in
  let check_consistent label =
    Alcotest.(check int) (label ^ ": counter matches fold") (folded ())
      (Heap_impl.used_bytes heap)
  in
  Alcotest.(check int) "fresh heap unused" 0 (Heap_impl.used_bytes heap);
  let r1 = claim_exn heap Region.Young in
  let o1 = alloc heap r1 ~size:64 ~nrefs:1 in
  let _o2 = alloc heap r1 ~size:128 ~nrefs:0 in
  check_consistent "after allocs";
  (* Relocate o1 into another region, as evacuation does. *)
  let r2 = claim_exn heap Region.Old in
  Heap_impl.push_relocated heap r2 o1;
  check_consistent "after relocation";
  (* In-place rebuild: empty r1 and re-push one survivor. *)
  Heap_impl.begin_region_rebuild heap r1;
  Util.Vec.clear r1.Region.objects;
  r1.Region.top <- 0;
  Heap_impl.push_relocated heap r1 _o2;
  check_consistent "after rebuild";
  Heap_impl.release_region heap r1;
  check_consistent "after release";
  Heap_impl.release_region heap r2;
  Alcotest.(check int) "all released" 0 (Heap_impl.used_bytes heap)

let test_exhaustion () =
  let heap = mk_heap () in
  let n = Heap_impl.num_regions heap in
  for _ = 1 to n do
    ignore (claim_exn heap Region.Old)
  done;
  Alcotest.(check bool) "claim fails when empty" true
    (Heap_impl.claim_region heap Region.Old = None)

let test_object_size () =
  (* header 16 + 2 slots of 8 + payload rounded to 8. *)
  Alcotest.(check int) "size arithmetic" (16 + 16 + 24)
    (Heap_impl.object_size ~nrefs:2 ~data_bytes:20)

let test_object_offsets_sorted () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Young in
  let sizes = [ 64; 128; 32; 256; 48 ] in
  let objs = List.map (fun s -> alloc heap r ~size:s ~nrefs:0) sizes in
  let offsets = List.map (fun (o : Gobj.t) -> Gobj.offset o) objs in
  Alcotest.(check (list int)) "bump offsets" [ 0; 64; 192; 224; 480 ] offsets

let test_forwarding_resolve () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let a = alloc heap r ~size:64 ~nrefs:0 in
  let b = alloc heap r ~size:64 ~nrefs:0 in
  let c = alloc heap r ~size:64 ~nrefs:0 in
  a.Gobj.forward <- b;
  b.Gobj.forward <- c;
  Alcotest.(check bool) "resolve follows chain" true (Gobj.resolve a == c);
  Alcotest.(check int) "depth" 2 (Gobj.forward_depth a);
  Alcotest.(check bool) "unforwarded resolves to self" true (Gobj.resolve c == c)

let test_card_math () =
  let heap = mk_heap ~region_bytes:(256 * kib) () in
  let cards_per_region = Heap_impl.cards_per_region heap in
  Alcotest.(check int) "cards per region" 512 cards_per_region;
  let card = Heap_impl.card_of heap ~rid:3 ~offset:1024 in
  Alcotest.(check int) "card index" ((3 * 512) + 2) card;
  Alcotest.(check int) "card -> region" 3 (Heap_impl.card_to_region heap card);
  Alcotest.(check int) "card -> offset" 1024 (Heap_impl.card_to_offset heap card)

let test_card_of_field () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  (* Push a filler so the test object starts at offset 500 (card 0 ends
     at 512; slot placement must pick the right card). *)
  ignore (alloc heap r ~size:500 ~nrefs:0);
  let o = alloc heap r ~size:64 ~nrefs:4 in
  (* field 0 at offset 500+16 = 516 -> card 1. *)
  Alcotest.(check int) "field card"
    ((r.Region.rid * Heap_impl.cards_per_region heap) + 1)
    (Heap_impl.card_of_field heap o 0)

let test_scan_card_finds_slots () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let target = alloc heap r ~size:32 ~nrefs:0 in
  let holder = alloc heap r ~size:64 ~nrefs:3 in
  Gobj.set_field holder 1 target;
  let card = Heap_impl.card_of_field heap holder 1 in
  let hits = ref [] in
  Heap_impl.scan_card heap card () ~f:(fun () o i ->
      if Gobj.get_field o i != Gobj.null then hits := (Gobj.id o, i) :: !hits);
  Alcotest.(check (list (pair int int)))
    "found the populated slot"
    [ (Gobj.id holder, 1) ]
    !hits

let count_slot n _ _ = incr n

(* The walk is its own loop: with a closed callback, scanning a card
   costs no host allocation however many objects and slots it holds. *)
let test_scan_card_allocates_nothing () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let target = alloc heap r ~size:32 ~nrefs:0 in
  for _ = 1 to 40 do
    let holder = alloc heap r ~size:64 ~nrefs:4 in
    Gobj.set_field holder 2 target
  done;
  (* Mid-span: 40 holders of 64 bytes cover the region's first 2.5 KiB. *)
  let card = Heap_impl.card_of heap ~rid:r.Region.rid ~offset:1024 in
  let slots = ref 0 in
  Heap_impl.scan_card heap card slots ~f:count_slot;
  Alcotest.(check bool) "the card holds slots" true (!slots > 8);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Heap_impl.scan_card heap card slots ~f:count_slot
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. w0)

(* The free-region FIFO is a ring and claims hand back prebuilt options:
   in steady state a release-then-claim cycle of a region whose only
   resident stays out of the pool and the limbo (a stub a stale heap
   edge still names) costs no host allocation. *)
let test_release_claim_allocates_nothing () =
  let heap = mk_heap () in
  let home = claim_exn heap Region.Old in
  let copy = alloc heap home ~size:64 ~nrefs:1 in
  let stub =
    Gobj.make ~id:(Gobj.id copy) ~size:64 ~nrefs:0 ~region:0 ~offset:0
  in
  Gobj.set_forward ~hooks:heap.Heap_impl.hooks ~site:"test" stub copy;
  let holder = alloc heap home ~size:64 ~nrefs:1 in
  Gobj.set_field holder 0 stub;
  let cycle () =
    let r = claim_exn heap Region.Young in
    Heap_impl.push_relocated heap r stub;
    Heap_impl.release_region heap r
  in
  (* Every region's object vector and block-offset table reach their
     steady size on the first pass around the FIFO. *)
  for _ = 1 to 2 * Heap_impl.num_regions heap do
    cycle ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    cycle ()
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. w0);
  Alcotest.(check int) "nothing in limbo" 0
    (Grace.in_limbo heap.Heap_impl.grace)

let test_dirty_cards () =
  let heap = mk_heap () in
  Heap_impl.dirty_card heap 7;
  Heap_impl.dirty_card heap 9;
  Alcotest.(check bool) "dirty" true (Heap_impl.card_is_dirty heap 7);
  let acc = ref [] in
  Heap_impl.iter_dirty_cards (fun c -> acc := c :: !acc) heap;
  Alcotest.(check (list int)) "iter" [ 9; 7 ] (List.sort (fun a b -> compare b a) !acc);
  Heap_impl.clean_card heap 7;
  Alcotest.(check bool) "cleaned" false (Heap_impl.card_is_dirty heap 7)

let test_release_clears_own_cards () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:2 in
  let card = Heap_impl.card_of_field heap o 0 in
  Heap_impl.dirty_card heap card;
  Heap_impl.release_region heap r;
  Alcotest.(check bool) "card cleaned on release" false
    (Heap_impl.card_is_dirty heap card)

(* Batching regression: release_region clears its card stripe word-wise,
   but a detector installed while the heap is live — note: AFTER heap
   creation, so this also pins the cached-hook contract — must still see
   the same event sequence the per-card loop produced: the region's
   Release edge first, then one Atomic clean event per card of the
   stripe, all before the next claimer's Acquire. *)
let test_release_event_order_under_detector () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  ignore (alloc heap r ~size:64 ~nrefs:2);
  (* Exhaust the FIFO free list so the next claim after the release can
     only return [r] itself — making the Release->Acquire pair below an
     edge on one region. *)
  while Heap_impl.free_regions heap > 0 do
    ignore (claim_exn heap Region.Old)
  done;
  let events = ref [] in
  Access.set_hook
    (Some (fun op res ~key ~site:_ -> events := (op, res, key) :: !events));
  Fun.protect ~finally:Access.reset (fun () ->
      let rid = r.Region.rid in
      Heap_impl.release_region heap r;
      let r2 = claim_exn heap Region.Old in
      Alcotest.(check int) "same region recycled" rid r2.Region.rid;
      let seq = List.rev !events in
      let cpr = Heap_impl.cards_per_region heap in
      let c0 = rid * cpr in
      let release_pos = ref (-1) and acquire_pos = ref (-1) in
      let cleans = ref [] in
      List.iteri
        (fun i (op, res, key) ->
          match (op, res) with
          | Access.Release, Access.Region_ctl when key = rid ->
              release_pos := i
          | Access.Acquire, Access.Region_ctl when key = rid ->
              acquire_pos := i
          | Access.Atomic, Access.Card -> cleans := (i, key) :: !cleans
          | _ -> ())
        seq;
      let cleans = List.rev !cleans in
      Alcotest.(check bool) "release edge seen" true (!release_pos >= 0);
      Alcotest.(check bool) "acquire edge seen" true (!acquire_pos >= 0);
      Alcotest.(check bool) "release before acquire" true
        (!release_pos < !acquire_pos);
      Alcotest.(check (list int)) "one clean event per card, in order"
        (List.init cpr (fun i -> c0 + i))
        (List.map snd cleans);
      Alcotest.(check bool) "cleans between release and acquire" true
        (List.for_all
           (fun (i, _) -> i > !release_pos && i < !acquire_pos)
           cleans))

(* The arithmetic field-window scan plus the block-offset table must
   visit exactly the (object, field) pairs — in exactly the order — that
   the naive "every object, every field, range-check the slot offset"
   reference does, over random heaps: zero-field objects, objects
   spanning card boundaries, near-region-sized (humongous) objects, and
   freshly reset-and-reused regions. *)
let scan_card_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"scan_card/BOT matches naive all-fields reference"
       QCheck2.Gen.(
         pair
           (list_size (int_range 0 40)
              (pair (int_range 0 12) (int_range 0 600)))
           (list_size (int_range 0 40)
              (pair (int_range 0 12) (int_range 0 600))))
       (fun (specs1, specs2) ->
         let heap = mk_heap ~heap_bytes:(64 * kib) ~region_bytes:(8 * kib) () in
         let fill r specs =
           List.iter
             (fun (nrefs, data_bytes) ->
               (* An occasional near-region-sized object: spans most cards. *)
               let data_bytes =
                 if data_bytes >= 590 then 6 * kib else data_bytes
               in
               let size = Heap_impl.object_size ~nrefs ~data_bytes in
               if Region.fits r size then
                 ignore (alloc heap r ~size ~nrefs))
             specs
         in
         let check_region (r : Region.t) =
           let cpr = Heap_impl.cards_per_region heap in
           let card_bytes = Heap_impl.card_bytes in
           let ok = ref true in
           for local = 0 to cpr - 1 do
             let card = (r.Region.rid * cpr) + local in
             let off = local * card_bytes in
             let got = ref [] in
             Heap_impl.scan_card heap card () ~f:(fun () o i ->
                 got := (Gobj.uid o, i) :: !got);
             let expected = ref [] in
             Util.Vec.iter
               (fun (o : Gobj.t) ->
                 for i = 0 to Gobj.num_fields o - 1 do
                   let foff = Gobj.field_offset o i in
                   if foff >= off && foff < off + card_bytes then
                     expected := (Gobj.uid o, i) :: !expected
                 done)
               r.Region.objects;
             if !got <> !expected then ok := false
           done;
           !ok
         in
         let r = claim_exn heap Region.Old in
         (* A region that never held an object owns no BOT and scans
            empty. *)
         let untouched_ok = Array.length r.Region.bot = 0 && check_region r in
         fill r specs1;
         let pass1 = check_region r in
         let held = Region.object_count r > 0 in
         (* Release and re-claim.  The free list is FIFO, so [r2] is a
            region that never held an object. *)
         Heap_impl.release_region heap r;
         let r2 = claim_exn heap Region.Old in
         let empty_ok = Array.length r2.Region.bot = 0 && check_region r2 in
         fill r2 specs2;
         let pass2 = check_region r2 in
         (* Claim on until [r] comes back: a reset region keeps its BOT,
            which must have been invalidated with the region. *)
         let rec reclaim () =
           let r3 = claim_exn heap Region.Old in
           if r3 == r then r3 else reclaim ()
         in
         let r3 = reclaim () in
         let reset_ok =
           (Array.length r3.Region.bot > 0) = held && check_region r3
         in
         fill r3 specs1;
         untouched_ok && pass1 && empty_ok && pass2 && reset_ok
         && check_region r3))

(* Region.first_object_at (BOT fast path + binary-search fallback) vs a
   naive linear scan, at arbitrary byte offsets — not just the
   card-aligned ones scan_card produces. *)
let first_object_at_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"first_object_at matches naive linear scan"
       QCheck2.Gen.(
         list_size (int_range 0 30) (pair (int_range 0 6) (int_range 0 400)))
       (fun specs ->
         let heap = mk_heap ~heap_bytes:(64 * kib) ~region_bytes:(8 * kib) () in
         let r = claim_exn heap Region.Old in
         List.iter
           (fun (nrefs, data_bytes) ->
             let size = Heap_impl.object_size ~nrefs ~data_bytes in
             if Region.fits r size then ignore (alloc heap r ~size ~nrefs))
           specs;
         let n = Util.Vec.length r.Region.objects in
         let naive off =
           let rec go i =
             if i >= n then n
             else
               let o = Util.Vec.get r.Region.objects i in
               if Gobj.offset o + Gobj.size o > off then i else go (i + 1)
           in
           go 0
         in
         let ok = ref true in
         let step = max 1 (r.Region.size / 512) in
         let off = ref 0 in
         while !off <= r.Region.size do
           if Region.first_object_at r ~off:!off <> naive !off then ok := false;
           off := !off + step
         done;
         !ok))

(* ------------------------------------------------------------------ *)
(* Marking *)

let test_mark_accounting () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let a = alloc heap r ~size:64 ~nrefs:0 in
  let b = alloc heap r ~size:128 ~nrefs:0 in
  ignore (alloc heap r ~size:32 ~nrefs:0);
  ignore (Heap_impl.begin_mark heap);
  (* Make the region pre-date the snapshot. *)
  r.Region.alloc_epoch <- heap.Heap_impl.mark_epoch - 1;
  Alcotest.(check bool) "first mark" true (Heap_impl.mark_object heap a);
  Alcotest.(check bool) "second mark is no-op" false (Heap_impl.mark_object heap a);
  ignore (Heap_impl.mark_object heap b);
  Heap_impl.end_mark heap;
  Alcotest.(check int) "live bytes published" 192 r.Region.live_bytes;
  Alcotest.(check int) "garbage (capacity-based)" (r.Region.size - 192)
    (Region.garbage_bytes r)

(* The header's mark epoch is the only mark record: marking a region's
   objects, the region's first old mark included, costs no host words.
   [Gc.minor] empties the minor heap first, so the probe's own result
   tuple cannot be promoted into the major count inside the window. *)
let test_mark_allocates_nothing () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  for _ = 1 to 100 do
    ignore (alloc heap r ~size:64 ~nrefs:1)
  done;
  ignore (Heap_impl.begin_mark heap);
  Gc.minor ();
  let _, _, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let objects = r.Region.objects in
  for i = 0 to Util.Vec.length objects - 1 do
    ignore (Heap_impl.mark_object heap (Util.Vec.get objects i))
  done;
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  Heap_impl.end_mark heap;
  Alcotest.(check int) "every object marked" (100 * 64) r.Region.live_bytes;
  Alcotest.(check (float 0.)) "minor words" 0. (minor1 -. minor0);
  Alcotest.(check (float 0.)) "major words" 0. (major1 -. major0)

let test_born_after_snapshot_fully_live () =
  let heap = mk_heap () in
  ignore (Heap_impl.begin_mark heap);
  let r = claim_exn heap Region.Old in
  ignore (alloc heap r ~size:100 ~nrefs:0);
  Heap_impl.end_mark heap;
  Alcotest.(check int) "born-after region fully live" r.Region.top
    r.Region.live_bytes

let test_allocate_live_during_mark () =
  let heap = mk_heap () in
  ignore (Heap_impl.begin_mark heap);
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:0 in
  Alcotest.(check bool) "born marked" true (Heap_impl.is_marked heap o);
  Heap_impl.end_mark heap;
  let o2 = alloc heap r ~size:64 ~nrefs:0 in
  Alcotest.(check bool) "born unmarked after mark" false
    (Heap_impl.is_marked heap o2)

(* ------------------------------------------------------------------ *)
(* Weak references *)

let test_weak_refs_marked_judge () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let live = alloc heap r ~size:64 ~nrefs:0 in
  let dead = alloc heap r ~size:64 ~nrefs:0 in
  Heap_impl.register_weak heap live;
  Heap_impl.register_weak heap dead;
  ignore (Heap_impl.begin_mark heap);
  r.Region.alloc_epoch <- heap.Heap_impl.mark_epoch - 1;
  ignore (Heap_impl.mark_object heap live);
  Heap_impl.end_mark heap;
  let cleared = Heap_impl.process_weak_refs_marked heap in
  Alcotest.(check int) "one survivor" 1
    (Util.Vec.length heap.Heap_impl.weak_refs);
  Alcotest.(check int) "one cleared" 1 cleared;
  Alcotest.(check int) "one referent stays registered" 1
    (Util.Vec.length heap.Heap_impl.weak_refs);
  Alcotest.(check bool) "the live one" true
    (Util.Vec.get heap.Heap_impl.weak_refs 0 == live)

let test_weak_refs_freed_judge () =
  let heap = mk_heap () in
  let r1 = claim_exn heap Region.Young in
  let r2 = claim_exn heap Region.Young in
  let kept = alloc heap r1 ~size:64 ~nrefs:0 in
  let freed = alloc heap r2 ~size:64 ~nrefs:0 in
  ignore freed;
  Heap_impl.register_weak heap kept;
  Heap_impl.register_weak heap freed;
  Heap_impl.release_region heap r2;
  let cleared = Heap_impl.process_weak_refs_freed_only heap in
  Alcotest.(check int) "survivor" 1 (Util.Vec.length heap.Heap_impl.weak_refs);
  Alcotest.(check int) "cleared" 1 cleared

let test_weak_follows_forwarding () =
  let heap = mk_heap () in
  let r1 = claim_exn heap Region.Young in
  let r2 = claim_exn heap Region.Old in
  let old_copy = alloc heap r1 ~size:64 ~nrefs:0 in
  let new_copy = alloc heap r2 ~size:64 ~nrefs:0 in
  old_copy.Gobj.forward <- new_copy;
  Heap_impl.register_weak heap old_copy;
  Heap_impl.release_region heap r1;
  (* The referent moved before its region was freed: it survives. *)
  let cleared = Heap_impl.process_weak_refs_freed_only heap in
  Alcotest.(check int) "survivor via forwarding" 1
    (Util.Vec.length heap.Heap_impl.weak_refs);
  Alcotest.(check int) "none cleared" 0 cleared

(* ------------------------------------------------------------------ *)
(* CRDT *)

let test_crdt_basic () =
  let c = Crdt.create ~total_cards:64 in
  Alcotest.(check bool) "empty" true (Crdt.get c 5 = Crdt.Empty);
  Crdt.record c ~card:5 ~rid:10;
  Alcotest.(check bool) "one" true (Crdt.get c 5 = Crdt.One 10);
  Crdt.record c ~card:5 ~rid:10;
  Alcotest.(check bool) "dedup" true (Crdt.get c 5 = Crdt.One 10);
  Crdt.record c ~card:5 ~rid:20;
  Alcotest.(check bool) "two" true (Crdt.get c 5 = Crdt.Two (10, 20));
  Crdt.record c ~card:5 ~rid:20;
  Alcotest.(check bool) "dedup second" true (Crdt.get c 5 = Crdt.Two (10, 20));
  Crdt.record c ~card:5 ~rid:30;
  Alcotest.(check bool) "overflow on third" true (Crdt.get c 5 = Crdt.Overflow);
  Crdt.record c ~card:5 ~rid:40;
  Alcotest.(check bool) "overflow sticky" true (Crdt.get c 5 = Crdt.Overflow);
  Crdt.reset c;
  Alcotest.(check bool) "reset" true (Crdt.get c 5 = Crdt.Empty)

let test_crdt_rid_zero_and_max () =
  let c = Crdt.create ~total_cards:4 in
  Crdt.record c ~card:0 ~rid:0;
  Alcotest.(check bool) "rid 0 encodes" true (Crdt.get c 0 = Crdt.One 0);
  Crdt.record c ~card:0 ~rid:Crdt.max_region_id;
  Alcotest.(check bool) "max rid encodes" true
    (Crdt.get c 0 = Crdt.Two (0, Crdt.max_region_id));
  Alcotest.check_raises "rid out of range" (Invalid_argument "Crdt.record: rid")
    (fun () -> Crdt.record c ~card:1 ~rid:(Crdt.max_region_id + 1))

let crdt_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"crdt matches a set model"
       QCheck2.Gen.(list (int_range 0 5))
       (fun rids ->
         let c = Crdt.create ~total_cards:1 in
         List.iter (fun rid -> Crdt.record c ~card:0 ~rid) rids;
         let distinct = List.sort_uniq compare rids in
         match Crdt.get c 0 with
         | Crdt.Empty -> distinct = []
         | Crdt.One r -> distinct = [ r ]
         | Crdt.Two (a, b) ->
             List.length distinct = 2
             && List.mem a distinct && List.mem b distinct && a <> b
         | Crdt.Overflow -> List.length distinct >= 3))

let test_crdt_memory_size () =
  let c = Crdt.create ~total_cards:1000 in
  Alcotest.(check int) "4 bytes per card" 4000 (Crdt.byte_size c)

(* The entries are allocated by the first [record]: an untouched table
   reads Empty on every card, owns no per-card words, and still rejects
   cards outside it. *)
let test_crdt_first_use () =
  let cards = 100_000 in
  let c = Crdt.create ~total_cards:cards in
  Alcotest.(check bool) "untouched table owns no entries" true
    (Obj.reachable_words (Obj.repr c) < 64);
  Alcotest.(check bool) "untouched first card" true (Crdt.get c 0 = Crdt.Empty);
  Alcotest.(check bool) "untouched last card" true
    (Crdt.get c (cards - 1) = Crdt.Empty);
  Alcotest.(check int) "untouched stats" 0 (fst (Crdt.stats c));
  Crdt.reset c;
  Alcotest.(check bool) "reset keeps it untouched" true
    (Obj.reachable_words (Obj.repr c) < 64);
  let raises what f =
    Alcotest.(check bool) (what ^ " raises") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "untouched card past the end" (fun () -> Crdt.get c cards);
  raises "untouched negative card" (fun () -> Crdt.get c (-1));
  Crdt.record c ~card:7 ~rid:3;
  Alcotest.(check bool) "first record" true (Crdt.get c 7 = Crdt.One 3);
  Alcotest.(check bool) "neighbour still empty" true (Crdt.get c 8 = Crdt.Empty);
  Alcotest.(check int) "total cards" cards (Crdt.total_cards c);
  raises "touched card past the end" (fun () -> Crdt.get c cards);
  raises "record past the end" (fun () -> Crdt.record c ~card:cards ~rid:3)

(* ------------------------------------------------------------------ *)
(* Remsets *)

let test_remset () =
  let rs = Remset.create ~name:"t" ~total_cards:128 in
  Alcotest.(check bool) "new add" true (Remset.add rs 10);
  Alcotest.(check bool) "dup add" false (Remset.add rs 10);
  Alcotest.(check bool) "mem" true (Remset.mem rs 10);
  Alcotest.(check int) "cardinal" 1 (Remset.cardinal rs);
  Remset.remove rs 10;
  Alcotest.(check int) "removed" 0 (Remset.cardinal rs);
  ignore (Remset.add rs 5);
  Remset.clear rs;
  Alcotest.(check int) "cleared" 0 (Remset.cardinal rs);
  (* 1 bit per card -> heap/4096 bytes, the paper's arithmetic. *)
  Alcotest.(check int) "memory" 16 (Remset.byte_size rs)

(* ------------------------------------------------------------------ *)
(* Null sentinel + record pool. *)

(* The sentinel must stay inert under arbitrary heap traffic: never
   marked, never forwarded, never surfaced by field iteration or card
   scans (so no tracer can enqueue it — barrier SATB paths test against
   it explicitly), never edge-counted, and invisible to used-bytes.
   Random alloc/link/mark/scan/release sequences probe all of that at
   once; the [pure] wrapper keeps each QCheck case independent. *)
let sentinel_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"null sentinel stays inert"
       QCheck2.Gen.(
         pair (int_range 0 1000)
           (list_size (int_range 0 50) (pair (int_range 0 6) (int_range 0 300))))
       (fun (salt, specs) ->
         let heap = mk_heap ~heap_bytes:(64 * kib) ~region_bytes:(8 * kib) () in
         let r = claim_exn heap Region.Old in
         let objs =
           List.filter_map
             (fun (nrefs, data_bytes) ->
               let size = Heap_impl.object_size ~nrefs ~data_bytes in
               if Region.fits r size then Some (alloc heap r ~size ~nrefs)
               else None)
             specs
         in
         let arr = Array.of_list objs in
         let n = Array.length arr in
         (* Random edges, with explicit null stores mixed in. *)
         List.iteri
           (fun k (nrefs, data_bytes) ->
             if n > 0 && nrefs > 0 then begin
               let o = arr.(k mod n) in
               let i = data_bytes mod max 1 (Gobj.num_fields o) in
               if Gobj.num_fields o > 0 then
                 if (salt + k) mod 3 = 0 then Gobj.set_field o i Gobj.null
                 else Gobj.set_field o i arr.((salt + k) mod n)
             end)
           specs;
         let used_before = Heap_impl.used_bytes heap in
         (* Mark everything; the sentinel is never handed to the marker
            by any scan, so its word must stay untouched. *)
         ignore (Heap_impl.begin_mark heap);
         Array.iter (fun o -> ignore (Heap_impl.mark_object heap o)) arr;
         Heap_impl.end_mark heap;
         let saw_null = ref false in
         Array.iter
           (fun o ->
             Gobj.iter_fields
               (fun _ child -> if Gobj.is_null child then saw_null := true)
               o)
           arr;
         let cpr = Heap_impl.cards_per_region heap in
         for local = 0 to cpr - 1 do
           Heap_impl.scan_card heap
             ((r.Region.rid * cpr) + local)
             ()
             ~f:(fun () o _ -> if Gobj.is_null o then saw_null := true)
         done;
         (* Writing null over every slot must not move used-bytes. *)
         Array.iter
           (fun o ->
             for i = 0 to Gobj.num_fields o - 1 do
               Gobj.set_field o i Gobj.null
             done)
           arr;
         let used_after = Heap_impl.used_bytes heap in
         (* Release triggers the pool harvest (pooling defaults on);
            the sentinel must survive it untouched too. *)
         Heap_impl.release_region heap r;
         (not !saw_null) && used_before = used_after
         && (not (Heap_impl.is_marked heap Gobj.null))
         && (not (Gobj.is_forwarded Gobj.null))
         && Gobj.null.Gobj.forward == Gobj.null
         && Gobj.inrefs Gobj.null = 0
         && (not (Gobj.is_freed Gobj.null))
         && Gobj.num_fields Gobj.null = 0))

(* The record pool must actually recycle (the fence below is vacuous
   otherwise) and recycling must be deterministic: the same
   alloc/link/release sequence on two fresh heaps mints the same uid
   stream and the same field-array lengths, recycled records included. *)
let test_pool_recycles_deterministically () =
  let build () =
    let heap = mk_heap () in
    let uids = ref [] in
    let note (o : Gobj.t) = uids := (Gobj.uid o, Gobj.num_fields o) :: !uids in
    let r = claim_exn heap Region.Old in
    let dead = alloc heap r ~size:64 ~nrefs:3 in
    note dead;
    Heap_impl.release_region heap r;
    (* The freed record and its 3-slot array sit in the pool now. *)
    let r2 = claim_exn heap Region.Old in
    let recycled = alloc heap r2 ~size:64 ~nrefs:3 in
    note recycled;
    let same_record = recycled == dead in
    for _ = 1 to 20 do
      if Region.fits r2 96 then note (alloc heap r2 ~size:96 ~nrefs:2)
    done;
    (same_record, List.rev !uids)
  in
  let same_a, uids_a = build () in
  let same_b, uids_b = build () in
  Alcotest.(check bool) "pool recycled the dead record" true same_a;
  Alcotest.(check bool) "recycling deterministic across heaps" true
    (same_a = same_b && uids_a = uids_b);
  (* A recycled record is born live with a fresh uid. *)
  (match uids_a with
  | (u_dead, _) :: (u_recycled, nf) :: _ ->
      Alcotest.(check bool) "fresh uid on recycle" true (u_recycled <> u_dead);
      Alcotest.(check int) "field array length restored" 3 nf
  | _ -> Alcotest.fail "uid stream too short");
  (* Pooling off: the same sequence mints fresh records. *)
  let heap = Heap_impl.create (Heap_impl.config ~pooling:false ()) in
  let r = claim_exn heap Region.Old in
  let dead = alloc heap r ~size:64 ~nrefs:3 in
  Heap_impl.release_region heap r;
  let r2 = claim_exn heap Region.Old in
  let fresh = alloc heap r2 ~size:64 ~nrefs:3 in
  Alcotest.(check bool) "pooling off never recycles" true (fresh != dead)

(* A relocation as the evacuation kernel makes it: a copy of [o] at the
   top of [dest], with [o]'s forwarding pointer installed. *)
let relocate heap dest (o : Gobj.t) =
  let copy =
    Gobj.remake ~pool:heap.Heap_impl.pool ~uids:heap.Heap_impl.uids o ~age:1
      ~region:dest.Region.rid ~offset:dest.Region.top
  in
  Heap_impl.push_relocated heap dest copy;
  Gobj.set_forward ~hooks:heap.Heap_impl.hooks ~site:"test" o copy;
  copy

(* The records of the next [n] relocation copies, where recycled stubs
   go. *)
let next_copies heap n =
  let src = claim_exn heap Region.Young and dest = claim_exn heap Region.Old in
  List.init n (fun _ -> relocate heap dest (alloc heap src ~size:64 ~nrefs:1))

(* A forwarded record (stub) with no incoming heap edge goes to limbo at
   its region's release, untouched but for the freed flag, and is
   reissued (as a relocation copy) only after every participant online
   at the release has passed a quiescent point.  Its field array stays
   with the copy. *)
let test_stub_waits_for_grace () =
  let heap = mk_heap () in
  let grace = heap.Heap_impl.grace in
  let mutator = Grace.register grace and controller = Grace.register grace in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let stub = alloc heap r ~size:64 ~nrefs:2 in
  let child = alloc heap home ~size:64 ~nrefs:0 in
  Gobj.set_field stub 1 child;
  let fields = stub.Gobj.fields in
  let copy = relocate heap home stub in
  Heap_impl.release_region heap r;
  let untouched what =
    Alcotest.(check bool) (what ^ ": stub still forwards") true
      (stub.Gobj.forward == copy && Gobj.is_freed stub);
    Alcotest.(check bool) (what ^ ": array shared with the copy") true
      (stub.Gobj.fields == fields && copy.Gobj.fields == fields
      && Gobj.get_field copy 1 == child)
  in
  Alcotest.(check int) "in limbo" 1 (Grace.in_limbo grace);
  untouched "released";
  (* The controller's quiescent point opens a period that waits on the
     mutator, still inside its request. *)
  Grace.quiescent grace controller;
  untouched "period open";
  Alcotest.(check bool) "not reissued before the grace point" true
    (List.for_all (fun o -> o != stub) (next_copies heap 4));
  Grace.offline grace mutator;
  Alcotest.(check int) "limbo drained" 0 (Grace.in_limbo grace);
  (match next_copies heap 1 with
  | [ o ] -> Alcotest.(check bool) "reissued after it" true (o == stub)
  | _ -> assert false);
  Alcotest.(check bool) "the copy keeps its array" true
    (copy.Gobj.fields == fields && Gobj.get_field copy 1 == child
    && stub.Gobj.fields != fields)

(* A stub that something may still name never reaches the pool: a stale
   heap edge, a weak registration, an unremapped ZGC reference, or a
   predecessor that was not recycled before it and can still resolve
   through it.  With pooling off no stub enters limbo at all. *)
let test_stub_exclusions () =
  let heap = mk_heap () in
  let grace = heap.Heap_impl.grace in
  let p = Grace.register grace in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let stub () = alloc heap r ~size:64 ~nrefs:1 in
  let named = stub () and weak = stub () and unremapped = stub () in
  let holder = alloc heap home ~size:64 ~nrefs:1 in
  Gobj.set_field holder 0 named;
  Heap_impl.register_weak heap weak;
  List.iter (fun o -> ignore (relocate heap home o)) [ named; weak; unremapped ];
  Gobj.set_flag unremapped Gobj.flag_unremapped;
  (* [named]'s copy moves on: its predecessor is never recycled, so it
     is not either. *)
  let second = claim_exn heap Region.Old in
  let named' = named.Gobj.forward in
  ignore (relocate heap second named');
  let excluded = [ named; weak; unremapped; named' ] in
  Heap_impl.release_region heap r;
  Heap_impl.release_region heap home;
  Alcotest.(check int) "only the copy without an edge or flag in limbo" 1
    (Grace.in_limbo grace);
  Grace.offline grace p;
  Alcotest.(check int) "limbo drained" 0 (Grace.in_limbo grace);
  Alcotest.(check bool) "none reissued" true
    (List.for_all (fun o -> not (List.memq o excluded)) (next_copies heap 8));
  (* Each stub below has a copy that moved on again.  A copy released
     after its predecessor is recycled once the predecessor has been;
     one released before it never is. *)
  Grace.online grace p;
  let dest = claim_exn heap Region.Old in
  let chain () =
    let r1 = claim_exn heap Region.Young and r2 = claim_exn heap Region.Young in
    let head = alloc heap r1 ~size:64 ~nrefs:1 in
    let mid = relocate heap r2 head in
    ignore (relocate heap dest mid);
    (r1, r2, head, mid)
  in
  let early1, early2, early_head, early_mid = chain () in
  let late1, late2, late_head, late_mid = chain () in
  List.iter (Heap_impl.release_region heap) [ early2; early1; late1; late2 ];
  Alcotest.(check int) "all four in limbo" 4 (Grace.in_limbo grace);
  Grace.offline grace p;
  let reissued = next_copies heap 8 in
  Alcotest.(check (list bool)) "the copy released first stays out"
    [ false; true; true; true ]
    (List.map
       (fun o -> List.memq o reissued)
       [ early_mid; early_head; late_head; late_mid ]);
  (* Pooling off: a stub with no edge stays out of limbo. *)
  let heap = Heap_impl.create (Heap_impl.config ~pooling:false ()) in
  let grace = heap.Heap_impl.grace in
  let p = Grace.register grace in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let o = alloc heap r ~size:64 ~nrefs:1 in
  ignore (relocate heap home o);
  Heap_impl.release_region heap r;
  Alcotest.(check int) "pooling off: no limbo" 0 (Grace.in_limbo grace);
  Grace.offline grace p;
  Alcotest.(check bool) "pooling off: never reissued" true
    (List.for_all (fun x -> x != o) (next_copies heap 8))

(* While a mark runs, region release harvests only a dead resident born
   after every active snapshot, fresh (age 0) and never SATB-queued: the
   marker never visits such an object, so nothing but [inrefs] can name
   it.  A resident allocated before the snapshot, a copy (which shares
   its source's array) and a queued record keep record and array alike.
   [start] opens the marks under test on [heap]. *)
let check_harvest_while_marking ~start () =
  let heap = mk_heap () in
  let pool = heap.Heap_impl.pool and uids = heap.Heap_impl.uids in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let target () = alloc heap home ~size:64 ~nrefs:0 in
  let dead_holder () =
    let o = alloc heap r ~size:64 ~nrefs:2 in
    let x = target () in
    Gobj.set_field o 0 x;
    (o, x)
  in
  let pre, pre_x = dead_holder () in
  let src = alloc heap home ~size:64 ~nrefs:2 in
  start heap;
  let post, post_x = dead_holder () in
  let copy =
    Gobj.remake ~pool ~uids src ~age:1 ~region:r.Region.rid ~offset:r.Region.top
  in
  Heap_impl.push_relocated heap r copy;
  Gobj.set_forward ~hooks:heap.Heap_impl.hooks ~site:"test" src copy;
  let logged, logged_x = dead_holder () in
  Gobj.set_flag logged Gobj.flag_satb_logged;
  let kept = [ ("pre-snapshot", pre); ("copy", copy); ("SATB-logged", logged) ] in
  let arrays = List.map (fun (_, o) -> o.Gobj.fields) kept in
  let _, _, records0, arrays0 = Gobj.Pool.stats pool in
  Heap_impl.release_region heap r;
  let _, _, records1, arrays1 = Gobj.Pool.stats pool in
  Alcotest.(check (pair int int)) "one record, one array harvested" (1, 1)
    (records1 - records0, arrays1 - arrays0);
  Alcotest.(check int) "post-snapshot array taken" 0 (Gobj.num_fields post);
  Alcotest.(check int) "its edge retired" 0 (Gobj.inrefs post_x);
  List.iter2
    (fun (what, o) a ->
      Alcotest.(check bool) (what ^ " keeps its array") true (o.Gobj.fields == a);
      Alcotest.(check bool) (what ^ " freed") true (Gobj.is_freed o))
    kept arrays;
  Alcotest.(check (pair int int)) "untouched holders keep their edges" (1, 1)
    (Gobj.inrefs pre_x, Gobj.inrefs logged_x);
  (* The one pooled record is the post-snapshot resident; the next
     allocation after it is fresh, never one of the untouched records. *)
  let r2 = claim_exn heap Region.Young in
  let first = alloc heap r2 ~size:64 ~nrefs:2 in
  let second = alloc heap r2 ~size:64 ~nrefs:2 in
  Alcotest.(check bool) "post-snapshot record recycled" true (first == post);
  Alcotest.(check bool) "untouched records stay out of the pool" true
    (List.for_all (fun (_, o) -> second != o) kept)

let test_harvest_old_mark () =
  check_harvest_while_marking ~start:(fun h -> ignore (Heap_impl.begin_mark h)) ()

let test_harvest_young_mark () =
  check_harvest_while_marking
    ~start:(fun h -> ignore (Heap_impl.begin_young_mark h))
    ()

(* With both marks open the later snapshot decides: an object born
   between the two is pre-snapshot for the young mark and stays. *)
let test_harvest_both_marks () =
  check_harvest_while_marking
    ~start:(fun h ->
      ignore (Heap_impl.begin_mark h);
      let r = claim_exn h Region.Old in
      ignore (alloc h r ~size:64 ~nrefs:0);
      ignore (Heap_impl.begin_young_mark h))
    ();
  let heap = mk_heap () in
  ignore (Heap_impl.begin_mark heap);
  let r = claim_exn heap Region.Young in
  let between = alloc heap r ~size:64 ~nrefs:2 in
  ignore (Heap_impl.begin_young_mark heap);
  Heap_impl.release_region heap r;
  Alcotest.(check int) "born between the snapshots: array kept" 2
    (Gobj.num_fields between)

(* ------------------------------------------------------------------ *)
(* Packed object header. *)

(* Every accessor must read back exactly what was stored, at the edges of
   each width and in between, and no setter may disturb a neighbouring
   field of the same word. *)
let packed_header_roundtrip =
  let edges lo hi = QCheck2.Gen.(oneof [ pure lo; pure hi; int_range lo hi ]) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"header accessors round-trip at the width limits"
       QCheck2.Gen.(
         tup4
           (triple
              (oneof [ pure Crdt.max_region_id; edges 0 Gobj.max_region ])
              (oneof [ pure (Heap_impl.default_config.region_bytes - 1); edges 0 Gobj.max_offset ])
              (edges 0 Gobj.max_size))
           (pair (edges 0 Gobj.max_age) (edges 0 Gobj.flag_mask))
           (triple (edges 0 Gobj.max_epoch) (edges 0 Gobj.max_epoch)
              (int_range 0 8))
           (pair (edges 0 Gobj.max_id) (edges 0 Gobj.max_uid)))
       (fun ( (region, offset, size),
              (age, flags),
              (mark, ymark, inrefs),
              (id, uid) ) ->
         let src = Gobj.make ~id ~size ~nrefs:1 ~region:0 ~offset:0 in
         let fresh =
           Gobj.id src = id && Gobj.region src = 0 && Gobj.offset src = 0
           && Gobj.size src = size && Gobj.age src = 0 && Gobj.flags src = 0
           && Gobj.mark src = 0 && Gobj.ymark src = 0 && Gobj.inrefs src = 0
         in
         if flags > 0 then Gobj.set_flag src flags;
         Gobj.set_mark src mark;
         Gobj.set_ymark src ymark;
         (* [inrefs] shares the epochs' word: counting edges in and out
            must leave both epochs alone. *)
         let holders =
           List.init inrefs (fun _ ->
               Gobj.make ~id:0 ~size:24 ~nrefs:1 ~region:0 ~offset:0)
         in
         List.iter (fun h -> Gobj.set_field h 0 src) holders;
         let counted =
           Gobj.inrefs src = inrefs && Gobj.mark src = mark
           && Gobj.ymark src = ymark
         in
         List.iter Gobj.retire_edges holders;
         let retired = Gobj.inrefs src = 0 && Gobj.mark src = mark in
         (* New holders (fresh arrays) count the edges again. *)
         List.iter
           (fun h ->
             h.Gobj.fields <- [| Gobj.null |];
             Gobj.set_field h 0 src)
           holders;
         (* A relocation copy takes the new place, age and uid, carries
            id, size, flags and both epochs over, and counts no edges. *)
         let o =
           Gobj.remake ~pool:(Gobj.Pool.create ()) ~uids:(ref uid) src ~age
             ~region ~offset
         in
         let all () =
           Gobj.id o = id && Gobj.uid o = uid && Gobj.inrefs o = 0
           && Gobj.region o = region && Gobj.offset o = offset && Gobj.size o = size
           && Gobj.age o = age && Gobj.flags o = flags && Gobj.mark o = mark
           && Gobj.ymark o = ymark
         in
         let stored = all () in
         (* Rewriting a field with its own value, or moving the record to
            the same place, is a no-op on every other field. *)
         Gobj.set_mark o mark;
         Gobj.set_ymark o ymark;
         Gobj.set_loc o ~region ~offset;
         let idempotent = all () in
         Gobj.clear_flag o Gobj.flag_mask;
         Gobj.set_ymark o 0;
         let cleared =
           Gobj.flags o = 0 && Gobj.ymark o = 0 && Gobj.mark o = mark
           && Gobj.age o = age && Gobj.size o = size
         in
         fresh && counted && retired && stored && idempotent && cleared))

let test_packed_header_sentinel () =
  Alcotest.(check int) "sentinel id" (-1) (Gobj.id Gobj.null);
  Alcotest.(check int) "sentinel uid is one above the last minted"
    (Gobj.max_uid + 1) (Gobj.uid Gobj.null);
  Alcotest.(check int) "sentinel inrefs" 0 (Gobj.inrefs Gobj.null);
  Alcotest.(check int) "sentinel region" (-1) (Gobj.region Gobj.null);
  Alcotest.(check int) "sentinel offset" 0 (Gobj.offset Gobj.null);
  Alcotest.(check int) "sentinel size" 0 (Gobj.size Gobj.null);
  Alcotest.(check int) "sentinel marks" 0 (Gobj.mark Gobj.null + Gobj.ymark Gobj.null);
  Alcotest.(check int) "sentinel age and flags" 0 (Gobj.age Gobj.null + Gobj.flags Gobj.null)

let test_packed_header_checked () =
  let raises what f =
    Alcotest.(check bool) (what ^ " raises") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let mk ?(size = 16) ?(region = 0) ?(offset = 0) () =
    ignore (Gobj.make ~id:0 ~size ~nrefs:0 ~region ~offset)
  in
  raises "id above max" (fun () ->
      Gobj.make ~id:(Gobj.max_id + 1) ~size:16 ~nrefs:0 ~region:0 ~offset:0);
  raises "negative id" (fun () ->
      Gobj.make ~id:(-1) ~size:16 ~nrefs:0 ~region:0 ~offset:0);
  raises "region above max" (fun () -> mk ~region:(Gobj.max_region + 1) ());
  raises "negative region" (fun () -> mk ~region:(-1) ());
  raises "offset above max" (fun () -> mk ~offset:(Gobj.max_offset + 1) ());
  raises "size above max" (fun () -> mk ~size:(Gobj.max_size + 1) ());
  raises "negative size" (fun () -> mk ~size:(-8) ());
  let o = Gobj.make ~id:0 ~size:16 ~nrefs:0 ~region:0 ~offset:0 in
  raises "flag outside the flag bits" (fun () -> Gobj.set_flag o (Gobj.flag_mask + 1));
  raises "epoch above max" (fun () -> Gobj.check_epoch (Gobj.max_epoch + 1));
  let heap = mk_heap () in
  let pool = heap.Heap_impl.pool and uids = heap.Heap_impl.uids in
  raises "copy age above max" (fun () ->
      Gobj.remake ~pool ~uids o ~age:(Gobj.max_age + 1) ~region:0 ~offset:0);
  (* Region geometry is checked once, when the heap is created — before
     any region is built, so the oversized request costs nothing. *)
  let region_bytes = 2 * Gobj.max_region_bytes in
  raises "region_bytes above max" (fun () ->
      Heap_impl.create (Heap_impl.config ~heap_bytes:(2 * region_bytes) ~region_bytes ()));
  (* Epochs are checked when a cycle begins: the last representable
     epoch still marks and reads back, the one after it raises. *)
  heap.Heap_impl.mark_epoch <- Gobj.max_epoch - 1;
  heap.Heap_impl.young_epoch <- Gobj.max_epoch - 1;
  Alcotest.(check int) "last old epoch" Gobj.max_epoch (Heap_impl.begin_mark heap);
  Alcotest.(check int) "last young epoch" Gobj.max_epoch (Heap_impl.begin_young_mark heap);
  let r = claim_exn heap Region.Old in
  let live = alloc heap r ~size:64 ~nrefs:1 in
  Alcotest.(check bool) "born marked at the last epoch" true
    (Heap_impl.is_marked heap live && Heap_impl.is_marked_young heap live);
  Heap_impl.end_mark heap;
  Heap_impl.end_young_mark heap;
  raises "old epoch overflow" (fun () -> Heap_impl.begin_mark heap);
  raises "young epoch overflow" (fun () -> Heap_impl.begin_young_mark heap)

(* Ids and uids are checked where they are minted: the last one still
   comes out, the one after it raises instead of wrapping. *)
let test_packed_header_minting () =
  let raises what f =
    Alcotest.(check bool) (what ^ " raises") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let uids = ref Gobj.max_uid in
  Alcotest.(check int) "last uid" Gobj.max_uid (Gobj.mint uids);
  raises "minting the sentinel's uid" (fun () -> Gobj.mint uids);
  Alcotest.(check bool) "the failure names the uid space" true
    (match Gobj.mint uids with
    | _ -> false
    | exception Invalid_argument m ->
        String.starts_with ~prefix:"Gobj: out of uids" m);
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  heap.Heap_impl.next_obj_id <- Gobj.max_id;
  let last = alloc heap r ~size:64 ~nrefs:0 in
  Alcotest.(check int) "last id" Gobj.max_id (Gobj.id last);
  raises "id minting past max" (fun () -> alloc heap r ~size:64 ~nrefs:0);
  (* [uids] is this domain's counter: restart it for the tests after. *)
  Fun.protect ~finally:Gobj.reset_uids (fun () ->
      heap.Heap_impl.next_obj_id <- 0;
      heap.Heap_impl.uids := Gobj.max_uid + 1;
      raises "uid minting past max in a heap" (fun () ->
          alloc heap r ~size:64 ~nrefs:0))

(* [inrefs] counts up to its maximum with both epochs intact; the store
   past it raises and writes nothing.  Every fresh one-slot array stands
   for another holder, so the count climbs without a decrement. *)
let test_packed_header_inrefs_limit () =
  let target = Gobj.make ~id:1 ~size:16 ~nrefs:0 ~region:0 ~offset:0 in
  Gobj.set_mark target Gobj.max_epoch;
  Gobj.set_ymark target Gobj.max_epoch;
  let holder = Gobj.make ~id:2 ~size:24 ~nrefs:1 ~region:0 ~offset:0 in
  for _ = 1 to Gobj.max_inrefs do
    holder.Gobj.fields <- [| Gobj.null |];
    Gobj.set_field holder 0 target
  done;
  Alcotest.(check int) "inrefs at max" Gobj.max_inrefs (Gobj.inrefs target);
  Alcotest.(check (pair int int)) "epochs at max"
    (Gobj.max_epoch, Gobj.max_epoch)
    (Gobj.mark target, Gobj.ymark target);
  let other = Gobj.make ~id:3 ~size:16 ~nrefs:0 ~region:0 ~offset:0 in
  holder.Gobj.fields <- [| Gobj.null |];
  Gobj.set_field holder 0 other;
  Alcotest.(check bool) "overflowing store raises" true
    (match Gobj.set_field holder 0 target with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "failed store left the slot" true
    (Gobj.get_field holder 0 == other);
  Alcotest.(check (pair int int)) "failed store left both counts"
    (Gobj.max_inrefs, 1)
    (Gobj.inrefs target, Gobj.inrefs other);
  Gobj.retire_edges holder;
  Alcotest.(check int) "retired" 0 (Gobj.inrefs other);
  Alcotest.(check (pair int int)) "epochs still at max"
    (Gobj.max_epoch, Gobj.max_epoch)
    (Gobj.mark target, Gobj.ymark target)

(* A relocation copy keeps both epochs and starts with no incoming
   edges; healing moves each edge over through [set_field]. *)
let test_packed_header_remake () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = alloc heap r ~size:64 ~nrefs:1 in
  let holder = alloc heap r ~size:64 ~nrefs:1 in
  Gobj.set_field holder 0 o;
  Gobj.set_mark o 5;
  Gobj.set_ymark o 9;
  let copy =
    Gobj.remake ~pool:heap.Heap_impl.pool ~uids:heap.Heap_impl.uids o ~age:1
      ~region:r.Region.rid ~offset:0
  in
  Alcotest.(check (pair int int)) "source counts its edge" (1, 0)
    (Gobj.inrefs o, Gobj.inrefs copy);
  Alcotest.(check (pair int int)) "both epochs kept" (5, 9)
    (Gobj.mark copy, Gobj.ymark copy);
  Alcotest.(check bool) "same id, fresh uid" true
    (Gobj.id copy = Gobj.id o && Gobj.uid copy <> Gobj.uid o);
  Gobj.set_field holder 0 copy;
  Alcotest.(check (pair int int)) "healing moves the edge" (0, 1)
    (Gobj.inrefs o, Gobj.inrefs copy);
  Alcotest.(check (pair int int)) "epochs survive the heal" (5, 9)
    (Gobj.mark copy, Gobj.ymark copy)

(* The header is four packed words plus two references: a record
   spends 6 fields, not the 12 of one field per scalar. *)
let test_packed_header_size () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Young in
  let o = alloc heap r ~size:64 ~nrefs:2 in
  Alcotest.(check bool) "at most 6 fields" true (Obj.size (Obj.repr o) <= 6)

let () =
  Alcotest.run "heap"
    [
      ( "regions",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "claim/release" `Quick test_claim_release;
          Alcotest.test_case "used bytes incremental" `Quick
            test_used_bytes_incremental;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "object size" `Quick test_object_size;
          Alcotest.test_case "offsets sorted" `Quick test_object_offsets_sorted;
          Alcotest.test_case "forwarding resolve" `Quick test_forwarding_resolve;
        ] );
      ( "cards",
        [
          Alcotest.test_case "card math" `Quick test_card_math;
          Alcotest.test_case "card of field" `Quick test_card_of_field;
          Alcotest.test_case "scan card" `Quick test_scan_card_finds_slots;
          Alcotest.test_case "scan card allocates nothing" `Quick
            test_scan_card_allocates_nothing;
          Alcotest.test_case "dirty cards" `Quick test_dirty_cards;
          Alcotest.test_case "release then claim allocates nothing" `Quick
            test_release_claim_allocates_nothing;
          Alcotest.test_case "release clears cards" `Quick
            test_release_clears_own_cards;
          Alcotest.test_case "release event order under detector" `Quick
            test_release_event_order_under_detector;
          scan_card_model;
          first_object_at_model;
        ] );
      ( "marking",
        [
          Alcotest.test_case "accounting" `Quick test_mark_accounting;
          Alcotest.test_case "marking allocates nothing" `Quick
            test_mark_allocates_nothing;
          Alcotest.test_case "born after snapshot" `Quick
            test_born_after_snapshot_fully_live;
          Alcotest.test_case "allocate live during mark" `Quick
            test_allocate_live_during_mark;
        ] );
      ( "weak refs",
        [
          Alcotest.test_case "marked judge" `Quick test_weak_refs_marked_judge;
          Alcotest.test_case "freed judge" `Quick test_weak_refs_freed_judge;
          Alcotest.test_case "follows forwarding" `Quick test_weak_follows_forwarding;
        ] );
      ( "crdt",
        [
          Alcotest.test_case "basic" `Quick test_crdt_basic;
          Alcotest.test_case "rid bounds" `Quick test_crdt_rid_zero_and_max;
          crdt_model;
          Alcotest.test_case "memory size" `Quick test_crdt_memory_size;
          Alcotest.test_case "entries on first record" `Quick
            test_crdt_first_use;
        ] );
      ( "remset+forwarding",
        [ Alcotest.test_case "remset" `Quick test_remset ] );
      ( "packed header",
        [
          packed_header_roundtrip;
          Alcotest.test_case "sentinel encoding" `Quick test_packed_header_sentinel;
          Alcotest.test_case "out-of-range values raise" `Quick test_packed_header_checked;
          Alcotest.test_case "id and uid minting" `Quick test_packed_header_minting;
          Alcotest.test_case "inrefs limit" `Quick test_packed_header_inrefs_limit;
          Alcotest.test_case "remake keeps epochs, zeroes inrefs" `Quick
            test_packed_header_remake;
          Alcotest.test_case "record size" `Quick test_packed_header_size;
        ] );
      ( "sentinel+pool",
        [
          sentinel_model;
          Alcotest.test_case "pool recycles deterministically" `Quick
            test_pool_recycles_deterministically;
          Alcotest.test_case "harvest under an old mark" `Quick
            test_harvest_old_mark;
          Alcotest.test_case "harvest under a young mark" `Quick
            test_harvest_young_mark;
          Alcotest.test_case "harvest under both marks" `Quick
            test_harvest_both_marks;
          Alcotest.test_case "stub waits for a grace period" `Quick
            test_stub_waits_for_grace;
          Alcotest.test_case "stubs something may name stay out" `Quick
            test_stub_exclusions;
        ] );
    ]
