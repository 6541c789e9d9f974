(* Tests for the workload generators. *)

let mib = Util.Units.mib
let us = Util.Units.us

let mk_rt ?(heap_bytes = 192 * mib) () =
  let engine = Sim.Engine.create ~cores:4 ~quantum:(20 * us) () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes ~region_bytes:(512 * Util.Units.kib) ())
  in
  Runtime.Rt.create ~seed:42 ~engine ~heap ()

(* Reachable bytes from the roots (resolving forwarding). *)
let reachable_bytes rt =
  let seen = Hashtbl.create 4096 in
  let bytes = ref 0 in
  let rec visit (o : Heap.Gobj.t) =
    let o = Heap.Gobj.resolve o in
    if not (Hashtbl.mem seen (Heap.Gobj.id o)) then begin
      Hashtbl.replace seen (Heap.Gobj.id o) ();
      bytes := !bytes + Heap.Gobj.size o;
      Heap.Gobj.iter_fields (fun _ child -> visit child) o
    end
  in
  Runtime.Rt.iter_roots rt (fun o -> if o != Heap.Gobj.null then visit o);
  !bytes

let setup_app rt (app : Workload.Apps.t) =
  let state = ref None in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"setup" ~kind:Sim.Engine.Mutator
       (fun () ->
         let m = Runtime.Mutator.create rt in
         state := Some (Workload.Spec.setup app.Workload.Apps.spec rt m);
         Runtime.Mutator.finish m));
  Sim.Engine.run rt.Runtime.Rt.engine;
  Option.get !state

let test_setup_builds_live_set () =
  let rt = mk_rt () in
  let app = Workload.Apps.h2_tpcc in
  ignore (setup_app rt app);
  let live = reachable_bytes rt in
  let target = app.Workload.Apps.spec.Workload.Spec.live_bytes in
  let ratio = float_of_int live /. float_of_int target in
  Alcotest.(check bool)
    (Printf.sprintf "live %.1f MiB within 20%% of %.1f MiB"
       (float_of_int live /. 1048576.)
       (float_of_int target /. 1048576.))
    true
    (ratio > 0.8 && ratio < 1.25)

let test_requests_keep_live_set_stable () =
  let rt = mk_rt () in
  let app = Workload.Apps.h2_tpcc in
  let st = setup_app rt app in
  let live0 = reachable_bytes rt in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"load" ~kind:Sim.Engine.Mutator
       (fun () ->
         let m = Runtime.Mutator.create rt in
         for _ = 1 to 300 do
           Workload.Spec.request st rt m
         done;
         Runtime.Mutator.finish m));
  Sim.Engine.run rt.Runtime.Rt.engine;
  let live1 = reachable_bytes rt in
  (* The store churns but its size is an invariant; pools add a bounded
     amount. *)
  let growth = float_of_int live1 /. float_of_int live0 in
  Alcotest.(check bool)
    (Printf.sprintf "live set stable (growth %.3f)" growth)
    true
    (growth > 0.95 && growth < 1.15)

let test_requests_allocate_garbage () =
  let rt = mk_rt () in
  let app = Workload.Apps.h2_tpcc in
  let st = setup_app rt app in
  let allocated0 = rt.Runtime.Rt.heap.Heap.Heap_impl.bytes_allocated in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"load" ~kind:Sim.Engine.Mutator
       (fun () ->
         let m = Runtime.Mutator.create rt in
         for _ = 1 to 100 do
           Workload.Spec.request st rt m
         done;
         Runtime.Mutator.finish m));
  Sim.Engine.run rt.Runtime.Rt.engine;
  let per_request =
    (rt.Runtime.Rt.heap.Heap.Heap_impl.bytes_allocated - allocated0) / 100
  in
  let expected = Workload.Spec.alloc_bytes_per_request app.Workload.Apps.spec in
  let ratio = float_of_int per_request /. float_of_int expected in
  Alcotest.(check bool)
    (Printf.sprintf "alloc/request %d vs expected %d" per_request expected)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_apps_unique_names () =
  let names = List.map (fun a -> a.Workload.Apps.name) Workload.Apps.all in
  Alcotest.(check int) "no duplicates"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_dacapo_suite_size () =
  Alcotest.(check int) "22 DaCapo workloads" 22 (List.length Workload.Apps.dacapo)

let test_find () =
  Alcotest.(check string) "find by name" "shop" (Workload.Apps.find "shop").Workload.Apps.name;
  Alcotest.check_raises "unknown app" (Invalid_argument "unknown workload: nope")
    (fun () -> ignore (Workload.Apps.find "nope"))

let test_weak_refs_registered () =
  let rt = mk_rt () in
  let app = Workload.Apps.specjbb in
  let st = setup_app rt app in
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"load" ~kind:Sim.Engine.Mutator
       (fun () ->
         let m = Runtime.Mutator.create rt in
         for _ = 1 to 200 do
           Workload.Spec.request st rt m
         done;
         Runtime.Mutator.finish m));
  Sim.Engine.run rt.Runtime.Rt.engine;
  Alcotest.(check bool) "some weak refs registered" true
    (Util.Vec.length rt.Runtime.Rt.heap.Heap.Heap_impl.weak_refs > 0)

(* Property: the store-geometry arithmetic is self-consistent for
   arbitrary spec parameters. *)
let spec_geometry =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"store geometry consistent"
       QCheck2.Gen.(
         triple (int_range 1 64) (int_range 16 2048) (int_range 1 12))
       (fun (live_mib, node_data, chain_len) ->
         let spec =
           {
             Workload.Spec.name = "geom";
             mutators = 4;
             live_bytes = live_mib * Util.Units.mib;
             node_data;
             chain_len;
             temp_objs = 10;
             temp_data_min = 16;
             temp_data_max = 64;
             survivors = 1;
             pool_slots = 16;
             store_reads = 1;
             update_pct = 0.1;
             cpu_ns = 1000;
             weak_pct = 0.;
           }
         in
         let slots = Workload.Spec.num_slots spec in
         let segf = Workload.Spec.seg_fanout spec in
         let chain = Workload.Spec.chain_bytes spec in
         slots >= 1 && segf >= 1
         (* the directory covers every slot *)
         && Workload.Spec.dir_fanout * segf >= slots
         (* the store's bytes approximate the live target from below *)
         && slots * chain <= spec.Workload.Spec.live_bytes + chain
         (* per-request allocation estimate is positive *)
         && Workload.Spec.alloc_bytes_per_request spec > 0))

let () =
  Alcotest.run "workload"
    [
      ( "spec",
        [
          Alcotest.test_case "setup builds live set" `Quick test_setup_builds_live_set;
          Alcotest.test_case "live set stable under churn" `Quick
            test_requests_keep_live_set_stable;
          Alcotest.test_case "allocation per request" `Quick
            test_requests_allocate_garbage;
          Alcotest.test_case "weak refs registered" `Quick test_weak_refs_registered;
        ] );
      ( "apps",
        [
          Alcotest.test_case "unique names" `Quick test_apps_unique_names;
          Alcotest.test_case "dacapo size" `Quick test_dacapo_suite_size;
          Alcotest.test_case "find" `Quick test_find;
          spec_geometry;
        ] );
    ]
