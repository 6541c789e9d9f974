(* Regression tests for bugs found (and fixed) during development.  Each
   case encodes the failure mode so it cannot quietly return. *)

open Heap

let kib = Util.Units.kib
let mib = Util.Units.mib
let ms = Util.Units.ms

let mk_heap ?(heap_bytes = 4 * mib) ?(region_bytes = 256 * kib) ?pooling () =
  Heap_impl.create (Heap_impl.config ~heap_bytes ~region_bytes ?pooling ())

let claim_exn heap kind =
  match Heap_impl.claim_region heap kind with
  | Some r -> r
  | None -> Alcotest.fail "no free region"

(* Bug: card scans cached the object-vector length; a concurrent cycle
   releasing the region mid-scan (the scan callback suspends) made the
   next Vec.get fail.  The fix re-reads the length each step, so a reset
   ends the scan quietly. *)
let test_card_scan_survives_region_reset () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  for _ = 1 to 20 do
    ignore (Heap_impl.alloc_in heap r ~size:48 ~nrefs:2)
  done;
  let visited = ref 0 in
  Heap_impl.scan_card heap
    (Heap_impl.card_of heap ~rid:r.Region.rid ~offset:0)
    ()
    ~f:(fun () _ _ ->
      incr visited;
      (* Simulate a co-running collection reclaiming the region. *)
      if !visited = 3 then Heap_impl.release_region heap r);
  Alcotest.(check bool)
    (Printf.sprintf "scan ended quietly after reset (visited %d)" !visited)
    true
    (!visited >= 3 && !visited < 40)

(* Bug: victim selection divided live bytes by the *filled* bytes, so a
   barely-filled region whose few bytes were all live looked dense and
   was never reclaimed — retired allocation buffers accumulated until
   tiny heaps died of fragmentation. *)
let test_live_ratio_is_capacity_based () =
  let heap = mk_heap () in
  let r = claim_exn heap Region.Old in
  let o = Heap_impl.alloc_in heap r ~size:(8 * kib) ~nrefs:0 in
  ignore (Heap_impl.begin_mark heap);
  r.Region.alloc_epoch <- heap.Heap_impl.mark_epoch - 1;
  ignore (Heap_impl.mark_object heap o);
  Heap_impl.end_mark heap;
  (* 8 KiB fully-live content in a 256 KiB region: 3 % live, a cheap and
     profitable victim. *)
  Alcotest.(check bool) "nearly-empty region is sparse" true
    (Region.live_ratio r < 0.05);
  Alcotest.(check int) "reclaimable capacity" (r.Region.size - (8 * kib))
    (Region.garbage_bytes r)

(* Bug: the full compaction was evacuation-only and needed free
   destination regions, so a 100 % full heap could not be compacted at
   all.  The sliding rewrite compacts in place with zero headroom. *)
let test_full_compact_with_zero_free_regions () =
  let engine = Sim.Engine.create ~cores:2 () in
  let heap = mk_heap ~heap_bytes:(2 * mib) ~region_bytes:(128 * kib) () in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  (* Fill every region half with live, half with garbage; keep the live
     halves rooted. *)
  let live = ref [] in
  let n = Heap_impl.num_regions heap in
  for _ = 1 to n do
    let r = claim_exn heap Region.Old in
    for k = 1 to 8 do
      let o = Heap_impl.alloc_in heap r ~size:(8 * kib) ~nrefs:0 in
      if k mod 2 = 0 then live := o :: !live
    done
  done;
  Alcotest.(check int) "heap fully claimed" 0 (Heap_impl.free_regions heap);
  List.iter (fun o -> ignore (Runtime.Rt.add_global rt o)) !live;
  let reclaimed = ref (-1) in
  ignore
    (Sim.Engine.spawn engine ~daemon:true ~name:"gc" ~kind:Sim.Engine.Gc
       (fun () ->
         reclaimed :=
           Collectors.Common.stw_full_compact
             ~on_live_ref:Collectors.Common.nothing_to_rebuild rt));
  ignore
    (Sim.Engine.spawn engine ~name:"mut" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         Runtime.Mutator.work m (10 * ms);
         Runtime.Mutator.finish m));
  Sim.Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "compacted a full heap (reclaimed %d)" !reclaimed)
    true
    (!reclaimed >= n / 2 - 1);
  (* Live data survived. *)
  List.iter
    (fun o ->
      let o = Gobj.resolve o in
      Alcotest.(check bool) "live object intact" false (Gobj.is_freed o))
    !live

(* Bug: workload code held object handles in OCaml locals across
   safepoint polls (the classic unrooted-handle mistake); a collection
   landing between an allocation and the linking write collected the
   fresh node.  This distils the failure: an unrooted fresh object must
   be collected, a rooted one must survive — proving the collector sees
   exactly the roots. *)
let test_unrooted_handles_are_collected () =
  let engine = Sim.Engine.create ~cores:2 () in
  (* Pooling off: this test inspects a dead object through a host-held
     unrooted handle, which is exactly the kind of reference the record
     pool's ownership contract excludes — recycling could legitimately
     turn the dead record back into a live one. *)
  let heap = mk_heap ~heap_bytes:(8 * mib) ~pooling:false () in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  ignore (Collectors.G1.install rt);
  let unrooted = ref None and rooted = ref None in
  ignore
    (Sim.Engine.spawn engine ~name:"mut" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         let a = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:0 in
         let b = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:0 in
         unrooted := Some a;
         rooted := Some b;
         ignore (Runtime.Mutator.push_root m b);
         (* Allocate enough to force several young collections while both
            handles sit in host locals. *)
         for _ = 1 to 60_000 do
           ignore (Runtime.Mutator.alloc m ~data_bytes:96 ~nrefs:0)
         done;
         Runtime.Mutator.finish m));
  Sim.Engine.run engine;
  (match !unrooted with
  | Some a ->
      Alcotest.(check bool) "unrooted fresh object was collected" true
        (Gobj.is_freed (Gobj.resolve a))
  | None -> Alcotest.fail "no object");
  match !rooted with
  | Some b ->
      Alcotest.(check bool) "rooted object survived" false
        (Gobj.is_freed (Gobj.resolve b))
  | None -> Alcotest.fail "no object"

(* Bug: survivor copying had no overflow valve, so a large live set
   sitting in young regions (e.g. a freshly built store) bounced through
   survivor space forever, doubling memory demand each young GC. *)
let test_survivor_overflow_promotes () =
  let engine = Sim.Engine.create ~cores:2 () in
  let heap =
    Heap_impl.create
      (Heap_impl.config ~heap_bytes:(16 * mib) ~region_bytes:(256 * kib) ())
  in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  ignore (Collectors.G1.install rt);
  ignore
    (Sim.Engine.spawn engine ~name:"mut" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         (* Build ~4 MiB of rooted young data (> heap/16 survivor cap),
            then allocate garbage to force young collections. *)
         let anchor = Runtime.Mutator.push_root m (Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:1) in
         for _ = 1 to 4000 do
           let o = Runtime.Mutator.alloc m ~data_bytes:1000 ~nrefs:1 in
           (let head = Runtime.Mutator.get_root m anchor in
            if not (Heap.Gobj.is_null head) then
              Runtime.Mutator.write m o 0 head);
           Runtime.Mutator.set_root m anchor o
         done;
         for _ = 1 to 40_000 do
           ignore (Runtime.Mutator.alloc m ~data_bytes:96 ~nrefs:0)
         done;
         Runtime.Mutator.finish m));
  Sim.Engine.run engine;
  (* The big rooted structure must have been promoted to the old
     generation rather than bouncing in young forever. *)
  let old_bytes = ref 0 in
  Array.iter
    (fun (r : Region.t) ->
      if r.Region.kind = Region.Old then old_bytes := !old_bytes + r.Region.top)
    heap.Heap_impl.regions;
  Alcotest.(check bool)
    (Printf.sprintf "bulk of the live set is old (%s)"
       (Util.Units.pp_bytes !old_bytes))
    true
    (!old_bytes > 5 * mib / 2)

(* Bug: regions holding a single object over half a region were excluded
   from every collection set *and* from full compaction, so such an
   object's region was never reclaimed once it died.  Objects over half a
   region are now ordinary objects, collected like any other. *)
let test_dead_large_objects_reclaimed () =
  List.iter
    (fun (name, install) ->
      let engine = Sim.Engine.create ~cores:2 () in
      let heap =
        Heap_impl.create
          (Heap_impl.config ~heap_bytes:(16 * mib) ~region_bytes:(256 * kib) ())
      in
      let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
      install rt;
      ignore
        (Sim.Engine.spawn engine ~name:"mut" ~kind:Sim.Engine.Mutator
           (fun () ->
             let m = Runtime.Mutator.create rt in
             (* Allocate garbage objects over half a region, then churn
                ordinary garbage long enough for collections to run. *)
             for _ = 1 to 24 do
               ignore (Runtime.Mutator.alloc m ~data_bytes:(160 * kib) ~nrefs:0)
             done;
             for _ = 1 to 120_000 do
               ignore (Runtime.Mutator.alloc m ~data_bytes:96 ~nrefs:0)
             done;
             Runtime.Mutator.finish m));
      Sim.Engine.run engine;
      let large_left = ref 0 in
      Array.iter
        (fun (r : Region.t) ->
          if not (Region.is_free r) then
            Util.Vec.iter
              (fun (o : Gobj.t) ->
                if (not (Gobj.is_freed o)) && 2 * Gobj.size o > r.Region.size
                then incr large_left)
              r.Region.objects)
        heap.Heap_impl.regions;
      Alcotest.(check bool)
        (Printf.sprintf
           "%s reclaimed dead objects over half a region (left %d of 24)" name
           !large_left)
        true
        (!large_left <= 4))
    [
      ("g1", fun rt -> ignore (Collectors.G1.install rt));
      ("shenandoah", fun rt -> ignore (Collectors.Shenandoah.install rt));
      ("zgc", fun rt -> ignore (Collectors.Zgc.install rt));
      ("lxr", fun rt -> ignore (Collectors.Lxr.install rt));
      ("jade", fun rt -> ignore (Jade.Collector.install rt));
    ]

(* Shape regression: the headline result.  Under a tight heap Jade must
   clearly outperform the single-generation concurrent collectors (the
   paper's Table 3 ordering).  Coarse thresholds so cost-model tweaks
   don't break the suite, but a real inversion fails. *)
let test_tight_heap_ordering () =
  let app : Workload.Apps.t =
    {
      Workload.Apps.name = "ordering";
      fixed_requests = 0;
      spec =
        {
          Workload.Spec.name = "ordering";
          mutators = 4;
          live_bytes = 12 * mib;
          node_data = 128;
          chain_len = 5;
          temp_objs = 60;
          temp_data_min = 32;
          temp_data_max = 256;
          survivors = 5;
          pool_slots = 128;
          store_reads = 10;
          update_pct = 0.5;
          cpu_ns = 50_000;
          weak_pct = 0.02;
        };
    }
  in
  let run install =
    let machine =
      { (Experiments.Exp.machine_for ~cores:4 app ~mult:1.5) with
        Experiments.Harness.seed = 7 }
    in
    (Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine ~install ~collector:"x"
       ~warmup:(300 * ms) ~duration:(700 * ms) app)
      .Experiments.Harness.throughput
  in
  let jade = run (fun rt -> ignore (Jade.Collector.install rt)) in
  let zgc = run (fun rt -> ignore (Collectors.Zgc.install rt)) in
  let shen = run (fun rt -> ignore (Collectors.Shenandoah.install rt)) in
  Alcotest.(check bool)
    (Printf.sprintf "jade (%.0f) > 1.3x zgc (%.0f)" jade zgc)
    true
    (jade > 1.3 *. zgc);
  Alcotest.(check bool)
    (Printf.sprintf "jade (%.0f) > 1.3x shenandoah (%.0f)" jade shen)
    true
    (jade > 1.3 *. shen)

let () =
  Alcotest.run "regressions"
    [
      ( "fixed bugs",
        [
          Alcotest.test_case "card scan vs region reset" `Quick
            test_card_scan_survives_region_reset;
          Alcotest.test_case "capacity-based live ratio" `Quick
            test_live_ratio_is_capacity_based;
          Alcotest.test_case "full compact, zero headroom" `Quick
            test_full_compact_with_zero_free_regions;
          Alcotest.test_case "unrooted handles collected" `Slow
            test_unrooted_handles_are_collected;
          Alcotest.test_case "survivor overflow promotes" `Slow
            test_survivor_overflow_promotes;
          Alcotest.test_case "dead objects over half a region freed" `Slow
            test_dead_large_objects_reclaimed;
          Alcotest.test_case "tight-heap ordering holds" `Slow
            test_tight_heap_ordering;
        ] );
    ]
