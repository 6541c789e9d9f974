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

(* The target a card scan may follow: null for an empty slot, the
   newest copy for a forwarded object, null for a freed one, including
   a stub whose copy has been freed since. *)
let test_live_target () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old and dead_r = claim_exn heap Region.Young in
  let o = alloc heap r ~size:64 ~nrefs:0 and copy = alloc heap r ~size:64 ~nrefs:0 in
  let stub = alloc heap r ~size:64 ~nrefs:0 in
  let dead = alloc heap dead_r ~size:64 ~nrefs:0 in
  stub.Gobj.forward <- dead;
  Alcotest.(check bool) "null" true (Gobj.live_target Gobj.null == Gobj.null);
  Alcotest.(check bool) "live, unforwarded" true (Gobj.live_target o == o);
  o.Gobj.forward <- copy;
  Alcotest.(check bool) "forwarded: the copy" true (Gobj.live_target o == copy);
  Heap_impl.release_region heap dead_r;
  Alcotest.(check bool) "target freed" true (Gobj.is_freed dead);
  Alcotest.(check bool) "freed: null" true (Gobj.live_target dead == Gobj.null);
  Alcotest.(check bool) "stub of a freed copy: null" true
    (Gobj.live_target stub == Gobj.null)

(* Each test reads the region the object names, and only it; a freed
   object's region is free, neither young nor old. *)
let test_region_tests () =
  let heap = mk_heap () in
  let y = claim_exn heap Region.Young and o = claim_exn heap Region.Old in
  let f = claim_exn heap Region.Old in
  let yo = alloc heap y ~size:64 ~nrefs:0 and oo = alloc heap o ~size:64 ~nrefs:0 in
  let fo = alloc heap f ~size:64 ~nrefs:0 in
  Heap_impl.release_region heap f;
  let tests x =
    [ Heap_impl.is_young heap x; Heap_impl.is_old heap x; Heap_impl.in_cset heap x ]
  in
  Alcotest.(check (list bool)) "young object" [ true; false; false ] (tests yo);
  Alcotest.(check (list bool)) "old object" [ false; true; false ] (tests oo);
  Alcotest.(check (list bool)) "freed object" [ false; false; false ] (tests fo);
  o.Region.in_cset <- true;
  Alcotest.(check (list bool)) "only the old region in the cset" [ false; true ]
    [ Heap_impl.in_cset heap yo; Heap_impl.in_cset heap oo ]

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
   spanning card boundaries, near-region-sized objects, and
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

(* Host minor words [f ()] allocates, after a warm-up call. *)
let words_when_warm f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The collectors read entries through [Crdt.code]: it agrees with
   [Crdt.get] on every kind of entry and allocates nothing, where [get]
   boxes each [One] and [Two]. *)
let test_crdt_code_unboxed () =
  let c = Crdt.create ~total_cards:8 in
  let untouched = Crdt.code c 0 in
  Crdt.record c ~card:1 ~rid:0;
  Crdt.record c ~card:2 ~rid:7;
  Crdt.record c ~card:2 ~rid:Crdt.max_region_id;
  List.iter (fun rid -> Crdt.record c ~card:3 ~rid) [ 1; 2; 3 ];
  let decode code =
    if code = Crdt.code_empty then Crdt.Empty
    else if code = Crdt.code_overflow then Crdt.Overflow
    else if Crdt.code_second code < 0 then Crdt.One (Crdt.code_first code)
    else Crdt.Two (Crdt.code_first code, Crdt.code_second code)
  in
  Alcotest.(check bool) "untouched table reads empty" true
    (untouched = Crdt.code_empty);
  let kinds =
    [ (0, Crdt.Empty); (1, Crdt.One 0); (2, Crdt.Two (7, Crdt.max_region_id));
      (3, Crdt.Overflow) ]
  in
  List.iter
    (fun (card, want) ->
      let name = Printf.sprintf "card %d" card in
      Alcotest.(check bool) (name ^ ": get") true (Crdt.get c card = want);
      Alcotest.(check bool) (name ^ ": code agrees") true
        (decode (Crdt.code c card) = want))
    kinds;
  Alcotest.check_raises "code checks the card" (Invalid_argument "Crdt.get: card")
    (fun () -> ignore (Crdt.code c 8));
  let sink = ref 0 in
  Alcotest.(check (float 0.)) "code: minor words" 0.
    (words_when_warm (fun () ->
         for _ = 1 to 1_000 do
           for card = 0 to 3 do
             let code = Crdt.code c card in
             if code <> Crdt.code_empty && code <> Crdt.code_overflow then
               sink := !sink + Crdt.code_first code + Crdt.code_second code
           done
         done));
  Alcotest.(check bool) "sink used" true (!sink > 0);
  let buf = Util.Vec.create 0 in
  Crdt.push_nonempty c buf;
  Alcotest.(check (list int)) "non-empty cards in card order" [ 1; 2; 3 ]
    (Util.Vec.to_list buf)

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

(* The two ways a record leaves the pool: an allocation ([alloc_in])
   or a relocation copy ([remake]). *)
type path = Alloc | Copy

let path_name = function Alloc -> "allocation" | Copy -> "copy"

(* [arm heap path n] prepares [n] takes along [path] and returns the
   function that makes them and lists the records they got.  A copy's
   source is allocated when the takes are armed, so arm them before the
   stubs under test reach the pool, or the sources would take them. *)
let arm heap path n =
  match path with
  | Alloc ->
      let r = claim_exn heap Region.Young in
      fun () -> List.init n (fun _ -> alloc heap r ~size:64 ~nrefs:1)
  | Copy ->
      let src = claim_exn heap Region.Young and dest = claim_exn heap Region.Old in
      let sources = List.init n (fun _ -> alloc heap src ~size:64 ~nrefs:1) in
      fun () -> List.map (relocate heap dest) sources

(* A forwarded record (stub) with no incoming heap edge goes to limbo at
   its region's release, untouched but for the freed flag, and is
   reissued, by an allocation or as a relocation copy, only after every
   participant online at the release has passed a quiescent point.  Its
   field array stays with the copy. *)
let test_stub_waits_for_grace () =
  List.iter
    (fun path ->
      let name what = path_name path ^ ": " ^ what in
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
      let early = arm heap path 4 and late = arm heap path 1 in
      Heap_impl.release_region heap r;
      let untouched what =
        Alcotest.(check bool) (name what ^ ": stub still forwards") true
          (stub.Gobj.forward == copy && Gobj.is_freed stub);
        Alcotest.(check bool) (name what ^ ": array shared with the copy") true
          (stub.Gobj.fields == fields && copy.Gobj.fields == fields
          && Gobj.get_field copy 1 == child)
      in
      Alcotest.(check int) (name "in limbo") 1 (Grace.in_limbo grace);
      untouched "released";
      (* The controller's quiescent point opens a period that waits on
         the mutator, still inside its request. *)
      Grace.quiescent grace controller;
      untouched "period open";
      Alcotest.(check bool) (name "not reissued before the grace point") true
        (List.for_all (fun o -> o != stub) (early ()));
      untouched "taken around";
      Grace.offline grace mutator;
      Alcotest.(check int) (name "limbo drained") 0 (Grace.in_limbo grace);
      (match late () with
      | [ o ] -> Alcotest.(check bool) (name "reissued after it") true (o == stub)
      | _ -> assert false);
      Alcotest.(check bool) (name "the copy keeps its array") true
        (copy.Gobj.fields == fields && Gobj.get_field copy 1 == child
        && stub.Gobj.fields != fields))
    [ Alloc; Copy ]

(* A stub that something may still name is never reissued, by an
   allocation or as a relocation copy: a stale heap edge, at its release
   or gained in limbo, a weak registration, an unremapped ZGC reference,
   or a predecessor that was not recycled before it and can still
   resolve through it.  With
   pooling off no stub enters limbo at all. *)
let test_stub_exclusions () =
  List.iter
    (fun path ->
      let name what = path_name path ^ ": " ^ what in
      let heap = mk_heap () in
      let grace = heap.Heap_impl.grace in
      let p = Grace.register grace in
      let home = claim_exn heap Region.Old in
      let r = claim_exn heap Region.Young in
      let stub () = alloc heap r ~size:64 ~nrefs:1 in
      let named = stub () and weak = stub () and unremapped = stub () in
      let stale = stub () in
      let holder = alloc heap home ~size:64 ~nrefs:1 in
      Gobj.set_field holder 0 named;
      Heap_impl.register_weak heap weak;
      List.iter
        (fun o -> ignore (relocate heap home o))
        [ named; weak; unremapped; stale ];
      Gobj.set_flag unremapped Gobj.flag_unremapped;
      (* [named]'s copy moves on: its predecessor is never recycled, so
         it is not either. *)
      let second = claim_exn heap Region.Old in
      let named' = named.Gobj.forward in
      ignore (relocate heap second named');
      let excluded = [ named; weak; unremapped; named'; stale ] in
      Heap_impl.release_region heap r;
      Heap_impl.release_region heap home;
      Alcotest.(check int) (name "only the stubs without an edge or flag in limbo") 2
        (Grace.in_limbo grace);
      (* [stale] gains a heap edge in limbo. *)
      Gobj.set_field (alloc heap second ~size:64 ~nrefs:1) 0 stale;
      let take = arm heap path 8 in
      Grace.offline grace p;
      Alcotest.(check int) (name "limbo drained") 0 (Grace.in_limbo grace);
      Alcotest.(check bool) (name "none reissued") true
        (List.for_all (fun o -> not (List.memq o excluded)) (take ()));
      (* Each stub below has a copy that moved on again.  A copy
         released after its predecessor is recycled once the
         predecessor has been; one released before it never is. *)
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
      let take = arm heap path 8 in
      List.iter (Heap_impl.release_region heap) [ early2; early1; late1; late2 ];
      Alcotest.(check int) (name "all four in limbo") 4 (Grace.in_limbo grace);
      Grace.offline grace p;
      let reissued = take () in
      Alcotest.(check (list bool)) (name "the copy released first stays out")
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
      let take = arm heap path 8 in
      Heap_impl.release_region heap r;
      Alcotest.(check int) (name "pooling off: no limbo") 0 (Grace.in_limbo grace);
      Grace.offline grace p;
      Alcotest.(check bool) (name "pooling off: never reissued") true
        (List.for_all (fun x -> x != o) (take ())))
    [ Alloc; Copy ]

(* An allocation takes a dead record while the freelist has one, then
   the queued stubs, oldest first, and a fresh host record only when
   neither is left. *)
let test_alloc_takes_stubs_last () =
  let heap = mk_heap () in
  let grace = heap.Heap_impl.grace in
  let p = Grace.register grace in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let older = alloc heap r ~size:64 ~nrefs:1 in
  let newer = alloc heap r ~size:64 ~nrefs:1 in
  let dead = alloc heap r ~size:64 ~nrefs:1 in
  let arrays = List.map (fun (o : Gobj.t) -> o.Gobj.fields) [ older; newer ] in
  let copies = List.map (relocate heap home) [ older; newer ] in
  Heap_impl.release_region heap r;
  Grace.offline grace p;
  Alcotest.(check int) "limbo drained" 0 (Grace.in_limbo grace);
  let fresh = claim_exn heap Region.Young in
  (match List.init 4 (fun _ -> alloc heap fresh ~size:64 ~nrefs:1) with
  | [ a; b; c; d ] ->
      Alcotest.(check (list bool)) "the dead record, then the stubs, oldest first"
        [ true; true; true ]
        [ a == dead; b == older; c == newer ];
      Alcotest.(check bool) "then a fresh record" false
        (List.memq d [ dead; older; newer ])
  | _ -> assert false);
  Alcotest.(check bool) "a reissued stub reads as a fresh record" true
    (List.for_all
       (fun (o : Gobj.t) ->
         (not (Gobj.is_forwarded o)) && (not (Gobj.is_freed o))
         && Gobj.inrefs o = 0 && Gobj.num_fields o = 1
         && Gobj.is_null (Gobj.get_field o 0))
       [ older; newer ]);
  Alcotest.(check bool) "the copies keep their arrays" true
    (List.for_all2 (fun (c : Gobj.t) a -> c.Gobj.fields == a) copies arrays)

(* Each grace period moves its stubs onto the pool's one stub queue, in
   release order behind those of earlier periods, and relocation copies
   take them back in that order.  The first period of a round finds the
   queue empty (the rings exchange arrays), the second finds it full
   (the stubs are moved one by one).  Once the rings have grown, none of
   it allocates. *)
let test_stub_queue_order_no_alloc () =
  let pool = Gobj.Pool.create () in
  let grace = Grace.create pool in
  let p = Grace.register grace in
  let hooks = Access.hooks () in
  let n = 40 in
  let make i = Gobj.make ~id:i ~size:64 ~nrefs:1 ~region:0 ~offset:(i * 80) in
  let stubs = Array.init n make and copies = Array.init n make in
  let residents = Util.Vec.create Gobj.null in
  (* Release stubs [lo, hi) in one region and let their period end. *)
  let period ~lo ~hi =
    Util.Vec.clear residents;
    for i = lo to hi - 1 do
      Gobj.set_forward ~hooks ~site:"test" stubs.(i) copies.(i);
      Util.Vec.push residents stubs.(i)
    done;
    Grace.release grace ~floor:Gobj.harvest_all residents;
    Grace.quiescent grace p
  in
  let in_order = ref true in
  let round () =
    period ~lo:0 ~hi:(n / 2);
    period ~lo:(n / 2) ~hi:n;
    for i = 0 to n - 1 do
      if Gobj.Pool.take_copy_record pool != stubs.(i) then in_order := false
    done;
    if not (Gobj.is_null (Gobj.Pool.take_copy_record pool)) then
      in_order := false
  in
  round ();
  Alcotest.(check bool) "taken back in release order" true !in_order;
  Alcotest.(check (float 0.)) "a round: minor words" 0. (words_when_warm round);
  Alcotest.(check bool) "still in release order" true !in_order;
  Alcotest.(check int) "limbo empty" 0 (Grace.in_limbo grace)

(* Records the pool hands out until it has none, and the arrays of
   length [n] it hands out until it has none: physically distinct if
   nothing was pooled twice. *)
let drain_pool (pool : Gobj.Pool.t) ~nrefs =
  let records = ref [] in
  let rec take () =
    let o = Gobj.Pool.take_record pool in
    if not (Gobj.is_null o) then begin
      records := o :: !records;
      take ()
    end
  in
  take ();
  let arrays = ref [] in
  let rec take_arrays () =
    let _, before, _, _ = Gobj.Pool.stats pool in
    let a = Gobj.Pool.take_array pool nrefs in
    let _, after, _, _ = Gobj.Pool.stats pool in
    if after > before then begin
      arrays := a :: !arrays;
      take_arrays ()
    end
  in
  take_arrays ();
  (!records, !arrays)

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (List.memq x rest)) && distinct rest

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

(* The dead residents a running mark's floor kept back at their release
   (pre-snapshot, copy, SATB-logged) are held in the grace limbo past
   the mark's end, their edges and arrays untouched, until a grace
   period over them ends.  Then they are harvested as outside marking:
   every holder's edges retired, each record and array pooled exactly
   once.  [start] and [stop] open and close the mark under test inside
   one step of the only controller, whose next quiescent point ends the
   period. *)
let check_deferred_harvest ~start ~stop () =
  let heap = mk_heap () in
  let pool = heap.Heap_impl.pool and grace = heap.Heap_impl.grace in
  let controller = Grace.register grace in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let target () = alloc heap home ~size:64 ~nrefs:0 in
  let pre = alloc heap r ~size:64 ~nrefs:2 in
  let src = alloc heap home ~size:64 ~nrefs:2 in
  start heap;
  let copy = relocate heap r src in
  let logged = alloc heap r ~size:64 ~nrefs:2 in
  Gobj.set_flag logged Gobj.flag_satb_logged;
  let deferred = [ pre; copy; logged ] in
  let arrays = List.map (fun (o : Gobj.t) -> o.Gobj.fields) deferred in
  let targets =
    List.map
      (fun o ->
        let x = target () in
        Gobj.set_field o 0 x;
        x)
      deferred
  in
  Heap_impl.release_region heap r;
  Alcotest.(check int) "three held" 3 (Grace.in_limbo grace);
  let nothing_pooled what =
    Alcotest.(check (list int)) ("nothing pooled " ^ what) [ 0; 0 ]
      (let _, _, records, arrays = Gobj.Pool.stats pool in [ records; arrays ]);
    Alcotest.(check (list int)) ("edges kept " ^ what) [ 1; 1; 1 ]
      (List.map Gobj.inrefs targets)
  in
  nothing_pooled "while the mark runs";
  stop heap;
  Alcotest.(check int) "still held after the mark's end" 3
    (Grace.in_limbo grace);
  nothing_pooled "at the mark's end";
  Grace.quiescent grace controller;
  Alcotest.(check int) "limbo drained" 0 (Grace.in_limbo grace);
  Alcotest.(check (list int)) "edges retired" [ 0; 0; 0 ]
    (List.map Gobj.inrefs targets);
  let records, pooled_arrays = drain_pool pool ~nrefs:2 in
  Alcotest.(check int) "each record pooled once" 3 (List.length records);
  Alcotest.(check bool) "the held records" true
    (distinct records && List.for_all (fun o -> List.memq o records) deferred);
  Alcotest.(check int) "each array pooled once" 3 (List.length pooled_arrays);
  Alcotest.(check bool) "the held arrays" true
    (distinct pooled_arrays
    && List.for_all (fun a -> List.memq a pooled_arrays) arrays)

let test_deferred_old_mark () =
  check_deferred_harvest
    ~start:(fun h -> ignore (Heap_impl.begin_mark h))
    ~stop:Heap_impl.end_mark ()

let test_deferred_young_mark () =
  check_deferred_harvest
    ~start:(fun h -> ignore (Heap_impl.begin_young_mark h))
    ~stop:Heap_impl.end_young_mark ()

(* With an old and a young mark open in the steps of two controllers,
   the period over a record released under both ends only when both
   controllers have passed a quiescent point: the first one to finish
   its step opens it and it waits on the other. *)
let test_deferred_both_marks () =
  List.iter
    (fun (what, first, second) ->
      let heap = mk_heap () in
      let pool = heap.Heap_impl.pool and grace = heap.Heap_impl.grace in
      let old_ctl = Grace.register grace and young_ctl = Grace.register grace in
      let ctl = function `Old -> old_ctl | `Young -> young_ctl in
      let stop = function
        | `Old -> Heap_impl.end_mark
        | `Young -> Heap_impl.end_young_mark
      in
      let r = claim_exn heap Region.Young in
      let dead = alloc heap r ~size:64 ~nrefs:2 in
      ignore (Heap_impl.begin_mark heap);
      ignore (Heap_impl.begin_young_mark heap);
      Heap_impl.release_region heap r;
      stop first heap;
      Grace.quiescent grace (ctl first);
      Alcotest.(check (pair int int)) (what ^ " ends first: nothing pooled")
        (0, 1)
        (let _, _, records, _ = Gobj.Pool.stats pool in
         (records, Grace.in_limbo grace));
      Alcotest.(check int) (what ^ " ends first: array kept") 2
        (Gobj.num_fields dead);
      stop second heap;
      Grace.quiescent grace (ctl second);
      Alcotest.(check bool) (what ^ " ends first: pooled after the second")
        true
        (Gobj.Pool.take_record pool == dead && Gobj.num_fields dead = 0))
    [ ("old", `Old, `Young); ("young", `Young, `Old) ]

(* A held record that a heap edge or a weak registration can still name
   gives its array when its grace period ends, never its record. *)
let test_deferred_named_records_stay () =
  let heap = mk_heap () in
  let pool = heap.Heap_impl.pool and grace = heap.Heap_impl.grace in
  let controller = Grace.register grace in
  let home = claim_exn heap Region.Old in
  let r = claim_exn heap Region.Young in
  let held = alloc heap r ~size:64 ~nrefs:2 in
  let weak = alloc heap r ~size:64 ~nrefs:2 in
  Gobj.set_field (alloc heap home ~size:64 ~nrefs:1) 0 held;
  Heap_impl.register_weak heap weak;
  ignore (Heap_impl.begin_mark heap);
  Heap_impl.release_region heap r;
  Heap_impl.end_mark heap;
  Grace.quiescent grace controller;
  let records, arrays = drain_pool pool ~nrefs:2 in
  Alcotest.(check int) "no record" 0 (List.length records);
  Alcotest.(check int) "both arrays" 2 (List.length arrays);
  Alcotest.(check (pair int int)) "arrays detached" (0, 0)
    (Gobj.num_fields held, Gobj.num_fields weak)

(* A mutator inside a request when a mark's release held a record back
   may still hold it in an unrooted local, so the record is not reissued
   before the mutator leaves that request, even after the mark and its
   controller's step have ended. *)
let test_deferred_waits_for_requests () =
  let heap = mk_heap () in
  let grace = heap.Heap_impl.grace in
  let mutator = Grace.register grace and controller = Grace.register grace in
  let r = claim_exn heap Region.Young in
  let dead = alloc heap r ~size:64 ~nrefs:2 in
  ignore (Heap_impl.begin_mark heap);
  Heap_impl.release_region heap r;
  Heap_impl.end_mark heap;
  Grace.quiescent grace controller;
  let fresh = claim_exn heap Region.Young in
  let next n = List.init n (fun _ -> alloc heap fresh ~size:64 ~nrefs:2) in
  Alcotest.(check bool) "not reissued inside the request" true
    (List.for_all (fun o -> o != dead) (next 4));
  Grace.offline grace mutator;
  Alcotest.(check bool) "reissued after it" true (List.hd (next 1) == dead)

let test_deferred_pooling_off () =
  let heap =
    Heap_impl.create
      (Heap_impl.config ~heap_bytes:(4 * mib) ~region_bytes:(256 * kib)
         ~pooling:false ())
  in
  let pool = heap.Heap_impl.pool and grace = heap.Heap_impl.grace in
  let controller = Grace.register grace in
  let r = claim_exn heap Region.Young in
  let dead = alloc heap r ~size:64 ~nrefs:2 in
  ignore (Heap_impl.begin_mark heap);
  Heap_impl.release_region heap r;
  Alcotest.(check int) "nothing held" 0 (Grace.in_limbo grace);
  Heap_impl.end_mark heap;
  Grace.quiescent grace controller;
  Alcotest.(check (list int)) "nothing pooled" [ 0; 0 ]
    (let _, _, records, arrays = Gobj.Pool.stats pool in [ records; arrays ]);
  Alcotest.(check bool) "freed, array kept" true
    (Gobj.is_freed dead && Gobj.num_fields dead = 2)

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

(* A rejected [create] is rejected before it restarts the uid space, so
   a heap still in use keeps minting where it was. *)
let test_rejected_create_keeps_uids () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let k = 5 in
  for _ = 1 to k do
    ignore (alloc heap r ~size:64 ~nrefs:0)
  done;
  let region_bytes = 2 * Gobj.max_region_bytes in
  (match
     Heap_impl.create
       (Heap_impl.config ~heap_bytes:(2 * region_bytes) ~region_bytes ())
   with
  | _ -> Alcotest.fail "oversized regions were accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "next uid continues" k
    (Gobj.uid (alloc heap r ~size:64 ~nrefs:0))

(* ------------------------------------------------------------------ *)
(* Recycling a retired heap into the next [create]. *)

let test_retire_hands_storage_on () =
  Fun.protect ~finally:Heap_impl.drop_retired @@ fun () ->
  let cfg = Heap_impl.config ~heap_bytes:(4 * mib) ~region_bytes:(256 * kib) () in
  let a = Heap_impl.create cfg in
  Heap_impl.retire a;
  let b = Heap_impl.create cfg in
  Alcotest.(check bool) "equal config: the retired heap's regions" true
    (b.Heap_impl.regions == a.Heap_impl.regions);
  Alcotest.(check bool) "and its pool" true (b.Heap_impl.pool == a.Heap_impl.pool);
  let c = Heap_impl.create cfg in
  Alcotest.(check bool) "a second create builds fresh storage" true
    (c.Heap_impl.regions != b.Heap_impl.regions);
  (* A different geometry, or pooling off, builds fresh and empties the
     slot: the parked heap is not there for the create after it. *)
  let other = Heap_impl.config ~heap_bytes:(8 * mib) ~region_bytes:(256 * kib) () in
  let unpooled =
    Heap_impl.config ~heap_bytes:(4 * mib) ~region_bytes:(256 * kib) ~pooling:false ()
  in
  List.iter
    (fun (what, cfg') ->
      Heap_impl.retire c;
      let d = Heap_impl.create cfg' in
      Alcotest.(check bool) (what ^ ": fresh storage") true
        (d.Heap_impl.regions != c.Heap_impl.regions);
      let e = Heap_impl.create cfg in
      Alcotest.(check bool) (what ^ ": slot emptied") true
        (e.Heap_impl.regions != c.Heap_impl.regions))
    [ ("mismatched config", other); ("pooling off", unpooled) ];
  (* An unpooled heap is never parked. *)
  let u = Heap_impl.create unpooled in
  Heap_impl.retire u;
  Alcotest.(check bool) "retiring an unpooled heap parks nothing" true
    ((Heap_impl.create unpooled).Heap_impl.regions != u.Heap_impl.regions)

(* Issue everything a recycled heap carries over: claim every region in
   id order, allocate as many [nrefs]-slot objects in each as it has
   carried-over slots, then drain the pool of records and of arrays of
   each length in [lengths].  Returns the claimed region ids, every
   record issued and every array issued, in no particular order, and
   whether each issued array came out all {!Gobj.null}. *)
let issue_everything heap ~nrefs ~lengths =
  let n = Heap_impl.num_regions heap in
  let regions = List.init n (fun _ -> claim_exn heap Region.Old) in
  let records = ref [] and arrays = ref [] in
  List.iter
    (fun (r : Region.t) ->
      for _ = 1 to r.Region.carried do
        let o = alloc heap r ~size:64 ~nrefs in
        records := o :: !records;
        arrays := o.Gobj.fields :: !arrays
      done)
    regions;
  let rec drain acc =
    let o = Gobj.Pool.take_record heap.Heap_impl.pool in
    if Gobj.is_null o then acc else drain (o :: acc)
  in
  let drained = drain [] in
  let arrays =
    List.concat_map (fun k -> snd (drain_pool heap.Heap_impl.pool ~nrefs:k)) lengths
    @ !arrays
  in
  ( List.map (fun (r : Region.t) -> r.Region.rid) regions,
    drained @ !records,
    arrays,
    List.for_all (Array.for_all Gobj.is_null) arrays )

(* How many of [xs] are in [issued], and whether each is there once. *)
let issued_once issued xs =
  let there = List.filter (fun x -> List.memq x issued) xs in
  ( List.length there,
    List.for_all
      (fun x -> List.length (List.filter (fun y -> y == x) issued) = 1)
      there )

(* A heap recycled from a used one starts exactly as a fresh one: every
   region free and claimed in id order, nothing used, no dirty card,
   zero pool statistics and epochs.  Its regions carry the old
   residents over, and issuing everything the new heap has issues each
   old resident record once and each unforwarded resident's array once,
   all cleared, and never a stub the old pool had queued. *)
let test_recycled_heap_starts_empty () =
  Fun.protect ~finally:Heap_impl.drop_retired @@ fun () ->
  let cfg = Heap_impl.config ~heap_bytes:(4 * mib) ~region_bytes:(256 * kib) () in
  let a = Heap_impl.create cfg in
  let young = claim_exn a Region.Young and old = claim_exn a Region.Old in
  let objs = List.init 6 (fun _ -> alloc a young ~size:64 ~nrefs:2) in
  List.iteri
    (fun i o -> Gobj.set_field o 0 (List.nth objs ((i + 1) mod 6)))
    objs;
  (* One stub: its copy shares its array. *)
  let copy = relocate a old (List.hd objs) in
  (* One record listed by a second region too: only the region its
     [loc] names hands it on. *)
  let twice = alloc a young ~size:64 ~nrefs:2 in
  let third = claim_exn a Region.Old in
  Region.push_obj third twice;
  (* A stub past its grace period, queued in the pool for reuse: named
     by the old run's worklists, so the recycled pool drops it. *)
  let grace = a.Heap_impl.grace in
  let p = Grace.register grace in
  let gone = claim_exn a Region.Young in
  let stub = alloc a gone ~size:64 ~nrefs:1 in
  let queued = relocate a old stub in
  Heap_impl.release_region a gone;
  Grace.offline grace p;
  (* A released region puts its dead record in the pool before retiring. *)
  let doomed = claim_exn a Region.Young in
  let dead = alloc a doomed ~size:64 ~nrefs:2 in
  let dead_array = dead.Gobj.fields in
  Heap_impl.release_region a doomed;
  Heap_impl.dirty_card a (Heap_impl.card_of_field a copy 0);
  ignore (Heap_impl.begin_mark a);
  let old_arrays =
    dead_array :: queued.Gobj.fields
    :: List.map (fun (o : Gobj.t) -> o.Gobj.fields) (objs @ [ twice ])
  in
  Heap_impl.retire a;
  let b = Heap_impl.create cfg in
  Alcotest.(check bool) "recycled" true (b.Heap_impl.regions == a.Heap_impl.regions);
  let n = Heap_impl.num_regions b in
  Alcotest.(check int) "every region free" n (Heap_impl.free_regions b);
  Alcotest.(check int) "used" 0 (Heap_impl.used_bytes b);
  Alcotest.(check int) "dirty cards" 0 (Util.Bitset.cardinal b.Heap_impl.card_dirty);
  Alcotest.(check (list int)) "epochs and floors" [ 0; 0; 0; 0 ]
    [ b.Heap_impl.mark_epoch; b.Heap_impl.young_epoch; b.Heap_impl.mark_floor;
      b.Heap_impl.young_floor ];
  Alcotest.(check bool) "regions reset" true
    (Array.for_all
       (fun (r : Region.t) ->
         Region.is_free r && r.Region.top = 0 && Region.object_count r = 0
         && r.Region.alloc_epoch = 0)
       b.Heap_impl.regions);
  Alcotest.(check (list int)) "carried-over slots: young, old, third" [ 7; 2; 1 ]
    (List.map (fun (r : Region.t) -> r.Region.carried) [ young; old; third ]);
  Alcotest.(check (list int)) "pool statistics" [ 0; 0; 0; 0 ]
    (let w, x, y, z = Gobj.Pool.stats b.Heap_impl.pool in [ w; x; y; z ]);
  let claims, records, arrays, cleared =
    issue_everything b ~nrefs:2 ~lengths:[ 1; 2 ]
  in
  Alcotest.(check (list int)) "claimed in id order" (List.init n Fun.id) claims;
  Alcotest.(check bool) "no record issued twice" true (distinct records);
  (* 6 objects, their copy, [twice], [dead] and [queued]. *)
  Alcotest.(check (pair int bool)) "each old record issued once" (10, true)
    (issued_once records (objs @ [ copy; twice; dead; queued ]));
  (* The record freelist is drained and no slot is carried over any
     more, so only a stub the recycle failed to drop is left. *)
  Alcotest.(check bool) "queued stubs dropped" true
    (Gobj.is_null (Gobj.Pool.take_copy_record b.Heap_impl.pool));
  Alcotest.(check bool) "no array issued twice" true (distinct arrays);
  (* 5 unforwarded objects, the copy (the stub's array), [twice],
     [dead] and [queued]'s one-slot array. *)
  Alcotest.(check (pair int bool)) "each old array issued once" (9, true)
    (issued_once arrays old_arrays);
  Alcotest.(check bool) "arrays cleared" true cleared

(* A heap retired while a mark holds dead residents back drops them
   with its grace state, as it drops its stubs: the next heap issues
   each resident record and array once and none of the held ones, and
   the new heap's limbo starts empty. *)
let test_recycled_heap_drops_held () =
  Fun.protect ~finally:Heap_impl.drop_retired @@ fun () ->
  let cfg = Heap_impl.config ~heap_bytes:(4 * mib) ~region_bytes:(256 * kib) () in
  let a = Heap_impl.create cfg in
  let keep = claim_exn a Region.Old and r = claim_exn a Region.Young in
  let kept = List.init 2 (fun _ -> alloc a keep ~size:64 ~nrefs:2) in
  let pre = List.init 2 (fun _ -> alloc a r ~size:64 ~nrefs:2) in
  Gobj.set_field (List.hd pre) 0 (List.nth pre 1);
  ignore (Heap_impl.begin_mark a);
  let post = alloc a r ~size:64 ~nrefs:2 in
  let arrays_of = List.map (fun (o : Gobj.t) -> o.Gobj.fields) in
  let old_arrays = arrays_of (kept @ [ post ]) and held_arrays = arrays_of pre in
  Heap_impl.release_region a r;
  Alcotest.(check int) "two held" 2 (Grace.in_limbo a.Heap_impl.grace);
  Heap_impl.retire a;
  let b = Heap_impl.create cfg in
  Alcotest.(check bool) "recycled" true (b.Heap_impl.pool == a.Heap_impl.pool);
  Alcotest.(check int) "nothing in the new limbo" 0
    (Grace.in_limbo b.Heap_impl.grace);
  let _, records, arrays, cleared = issue_everything b ~nrefs:2 ~lengths:[ 2 ] in
  Alcotest.(check bool) "no record issued twice" true (distinct records);
  Alcotest.(check (pair int bool)) "each resident and harvested record once"
    (3, true)
    (issued_once records (kept @ [ post ]));
  Alcotest.(check (pair int bool)) "no held record" (0, true)
    (issued_once records pre);
  Alcotest.(check bool) "no array issued twice" true (distinct arrays);
  Alcotest.(check (pair int bool)) "each resident and harvested array once"
    (3, true)
    (issued_once arrays old_arrays);
  Alcotest.(check (pair int bool)) "no held array" (0, true)
    (issued_once arrays held_arrays);
  Alcotest.(check bool) "arrays cleared" true cleared

(* A carried-over slot's record reaches the pool exactly once: when a
   copy is pushed over its slot (an evacuation's or a slide's), or at
   the run's first pool miss.  A release or a slide of its region
   clears only the slots below the length and leaves the carried-over
   ones where they are. *)
let test_carried_slots_handed_over_once () =
  Fun.protect ~finally:Heap_impl.drop_retired @@ fun () ->
  let cfg = Heap_impl.config ~heap_bytes:(4 * mib) ~region_bytes:(256 * kib) () in
  let a = Heap_impl.create cfg in
  let fill () =
    let r = claim_exn a Region.Old in
    (r, List.init 3 (fun _ -> alloc a r ~size:64 ~nrefs:2))
  in
  let r0, released = fill () in
  let r1, slid = fill () in
  let r2, covered = fill () in
  let arrays_of = List.map (fun (o : Gobj.t) -> o.Gobj.fields) in
  let all_arrays = arrays_of (released @ slid @ covered) in
  Heap_impl.retire a;
  let b = Heap_impl.create cfg in
  let pool = b.Heap_impl.pool in
  let claimed = List.init 3 (fun _ -> claim_exn b Region.Old) in
  Alcotest.(check bool) "the same regions" true
    (List.for_all2 ( == ) claimed [ r0; r1; r2 ]);
  let take k = List.init k (fun _ -> Gobj.Pool.take_record pool) in
  let same what expected got =
    Alcotest.(check bool) what true
      (List.length got = List.length expected
      && distinct got
      && List.for_all (fun x -> List.memq x got) expected)
  in
  let slots (r : Region.t) =
    List.init r.Region.carried (fun i -> Util.Vec.kept r.Region.objects i)
  in
  let copy_into (r : Region.t) =
    let c =
      Gobj.make ~id:0 ~size:64 ~nrefs:2 ~region:r.Region.rid ~offset:r.Region.top
    in
    Heap_impl.push_relocated b r c;
    c
  in
  (* A release keeps its slots. *)
  Heap_impl.release_region b r0;
  same "a release keeps its slots" released (slots r0);
  (* A slide clears the slot below its length, which the run reissued
     in place, and keeps the others; its survivors' copies cover slots
     0 and 1, and only slot 1 still holds a carried-over record. *)
  let slid0, slid1, slid2 =
    match slid with [ x; y; z ] -> (x, y, z) | _ -> assert false
  in
  Alcotest.(check bool) "reissued in place" true
    (alloc b r1 ~size:64 ~nrefs:2 == slid0);
  Heap_impl.begin_region_rebuild b r1;
  Region.clear_objects r1;
  same "a slide keeps the slots past its length" [ Gobj.null; slid1; slid2 ]
    (slots r1);
  let first = copy_into r1 in
  let survivors = [ first; copy_into r1 ] in
  same "a slide's copy hands over its slot's record" [ slid1 ] (take 1);
  (* An evacuation's copy covers slot 0 of [r2]. *)
  let copy = copy_into r2 in
  same "a copy hands over its slot's record" [ List.hd covered ] (take 1);
  Alcotest.(check bool) "the copies are in their slots" true
    (List.for_all2 ( == ) (Util.Vec.to_list r1.Region.objects) survivors
    && Util.Vec.get r2.Region.objects 0 == copy);
  (* The next miss hands over every slot left, once, with its array;
     the two covered records' arrays went to their bucket with them,
     and the reissued record kept its own. *)
  let rest, arrays = drain_pool pool ~nrefs:2 in
  same "the first miss hands over the rest"
    (released @ [ slid2 ] @ List.tl covered)
    rest;
  same "each array once"
    (List.filter (fun a -> a != slid0.Gobj.fields) all_arrays)
    arrays;
  Alcotest.(check int) "nothing carried over" 0
    (List.fold_left (fun acc (r : Region.t) -> acc + r.Region.carried) 0 claimed);
  Alcotest.(check bool) "the pool is empty" true
    (Gobj.is_null (Gobj.Pool.take_record pool))

(* The check workload's geometry: set-up on the retired heap of a first
   set-up reissues every record and array, takes none fresh from the
   host, and lists each record once. *)
let test_second_prepare_mints_nothing () =
  Fun.protect ~finally:Heap_impl.drop_retired @@ fun () ->
  let app = Workload.Apps.find "avrora" in
  let machine = Experiments.Trace_run.machine_for ~cores:4 ~mult:4.0 ~seed:42 app in
  let prepare () =
    let rt, _ =
      Experiments.Harness.prepare ~machine
        ~install:Experiments.Registry.jade.Experiments.Registry.install app
    in
    rt.Runtime.Rt.heap
  in
  let first = prepare () in
  Heap_impl.retire first;
  let heap = prepare () in
  Alcotest.(check bool) "recycled" true (heap.Heap_impl.regions == first.Heap_impl.regions);
  let residents =
    Array.to_list heap.Heap_impl.regions
    |> List.concat_map (fun (r : Region.t) -> Util.Vec.to_list r.Region.objects)
  in
  let minted = Gobj.uid_watermark () in
  let records_reused, arrays_reused, _, _ = Gobj.Pool.stats heap.Heap_impl.pool in
  Alcotest.(check bool) "set-up allocates" true (minted > 10_000);
  Alcotest.(check int) "every record issued is resident" minted (List.length residents);
  Alcotest.(check int) "no fresh record" minted records_reused;
  Alcotest.(check int) "no fresh array"
    (List.length
       (List.filter
          (fun o -> (not (Gobj.is_forwarded o)) && Gobj.num_fields o > 0)
          residents))
    arrays_reused;
  let uids = List.sort_uniq Int.compare (List.map Gobj.uid residents) in
  Alcotest.(check int) "residents pairwise distinct" minted (List.length uids)

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
          Alcotest.test_case "live target" `Quick test_live_target;
          Alcotest.test_case "region tests" `Quick test_region_tests;
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
          Alcotest.test_case "unboxed reads agree and allocate nothing" `Quick
            test_crdt_code_unboxed;
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
          Alcotest.test_case
            "deferred harvest at an old mark's grace period end" `Quick
            test_deferred_old_mark;
          Alcotest.test_case
            "deferred harvest at a young mark's grace period end" `Quick
            test_deferred_young_mark;
          Alcotest.test_case
            "deferred harvest waits for the last mark's controller" `Quick
            test_deferred_both_marks;
          Alcotest.test_case "deferred records something names stay out"
            `Quick test_deferred_named_records_stay;
          Alcotest.test_case "deferred records wait for requests in flight"
            `Quick test_deferred_waits_for_requests;
          Alcotest.test_case "pooling off defers nothing" `Quick
            test_deferred_pooling_off;
          Alcotest.test_case "stub waits for a grace period" `Quick
            test_stub_waits_for_grace;
          Alcotest.test_case "stubs something may name stay out" `Quick
            test_stub_exclusions;
          Alcotest.test_case "allocation takes stubs after dead records"
            `Quick test_alloc_takes_stubs_last;
          Alcotest.test_case "one stub queue, in release order, no allocation"
            `Quick test_stub_queue_order_no_alloc;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "a rejected create keeps the uid stream" `Quick
            test_rejected_create_keeps_uids;
          Alcotest.test_case "retire hands the storage on" `Quick
            test_retire_hands_storage_on;
          Alcotest.test_case "a recycled heap starts empty" `Quick
            test_recycled_heap_starts_empty;
          Alcotest.test_case "a recycled heap drops the held records" `Quick
            test_recycled_heap_drops_held;
          Alcotest.test_case "carried-over slots are handed over once" `Quick
            test_carried_slots_handed_over_once;
          Alcotest.test_case "a second check set-up mints nothing" `Quick
            test_second_prepare_mints_nothing;
        ] );
    ]
