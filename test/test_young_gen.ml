(* Direct tests of the young-generation machinery: the shared concurrent
   young collector (Young_gen, used by GenShen/GenZ) and Jade's
   single-phase young collector, exercised on hand-built object graphs. *)

open Heap

let kib = Util.Units.kib
let mib = Util.Units.mib

type env = {
  engine : Sim.Engine.t;
  heap : Heap_impl.t;
  rt : Runtime.Rt.t;
}

let mk_env ?(heap_bytes = 8 * mib) () =
  let engine = Sim.Engine.create ~cores:2 () in
  let heap =
    Heap_impl.create (Heap_impl.config ~heap_bytes ~region_bytes:(256 * kib) ())
  in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  { engine; heap; rt }

(* Run [f] in a mutator fiber to completion. *)
let in_mutator env f =
  ignore
    (Sim.Engine.spawn env.engine ~name:"m" ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create env.rt in
         f m;
         Runtime.Mutator.finish m));
  Sim.Engine.run env.engine

(* Build: old holder H --> young chain y1 -> y2; plus young garbage.
   Returns (holder, chain head) with the holder globally rooted. *)
let build_old_to_young env (m : Runtime.Mutator.t) =
  let holder = Runtime.Mutator.alloc m ~data_bytes:32 ~nrefs:2 in
  ignore (Runtime.Rt.add_global env.rt holder);
  (* Force the holder into the old generation by hand (unit-test surgery:
     relocate it to an old region). *)
  let old_r =
    match Heap_impl.claim_region env.heap Region.Old with
    | Some r -> r
    | None -> Alcotest.fail "no region"
  in
  let heap = env.heap in
  let holder' =
    Gobj.remake ~pool:heap.Heap_impl.pool ~uids:heap.Heap_impl.uids holder
      ~age:(Gobj.age holder) ~region:old_r.Region.rid
      ~offset:old_r.Region.top
  in
  Heap_impl.push_relocated heap old_r holder';
  Gobj.set_forward ~hooks:heap.Heap_impl.hooks ~site:"test" holder holder';
  let y2 = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:1 in
  ignore (Runtime.Mutator.push_root m y2);
  let y1 = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:1 in
  Runtime.Mutator.write m y1 0 y2;
  Runtime.Mutator.truncate_roots m 0;
  Runtime.Mutator.write m holder 0 y1;
  (* Young garbage: enough regions' worth that a collection visibly
     frees memory even after claiming survivor destinations. *)
  for _ = 1 to 8_000 do
    ignore (Runtime.Mutator.alloc m ~data_bytes:128 ~nrefs:0)
  done;
  (Gobj.resolve holder, y1)

(* ------------------------------------------------------------------ *)
(* Young_gen (GenShen/GenZ shared machinery).                           *)

let run_young_gen_cycle env yg =
  let ok = ref false in
  ignore
    (Sim.Engine.spawn env.engine ~daemon:true ~name:"yg" ~kind:Sim.Engine.Gc
       (fun () -> ok := Collectors.Young_gen.collect yg));
  (* A mutator must exist for the safepoint protocol to have a party. *)
  in_mutator env (fun m -> Runtime.Mutator.work m (5 * Util.Units.ms));
  !ok

let test_young_gen_barrier_remembers () =
  let env = mk_env () in
  let yg =
    Collectors.Young_gen.create ~style:Collectors.Young_gen.Update_refs_phase
      env.rt
  in
  Runtime.Rt.install_collector env.rt
    {
      Runtime.Rt.null_collector with
      Runtime.Rt.store_barrier =
        (fun ~src ~field ~old_v:_ ~new_v ->
          Collectors.Young_gen.barrier yg ~src ~field ~new_v);
      alloc_failure = (fun () -> Alcotest.fail "unexpected exhaustion");
    };
  let holder = ref None in
  in_mutator env (fun m -> holder := Some (build_old_to_young env m));
  let holder, _ = Option.get !holder in
  Alcotest.(check bool) "old-to-young store remembered" true
    (Remset.cardinal yg.Collectors.Young_gen.remset > 0);
  let card = Heap_impl.card_of_field env.heap holder 0 in
  Alcotest.(check bool) "the holder's card specifically" true
    (Remset.mem yg.Collectors.Young_gen.remset card)

let test_young_gen_collect_preserves_chain () =
  let env = mk_env () in
  let yg =
    Collectors.Young_gen.create ~style:Collectors.Young_gen.Update_refs_phase
      env.rt
  in
  Runtime.Rt.install_collector env.rt
    {
      Runtime.Rt.null_collector with
      Runtime.Rt.store_barrier =
        (fun ~src ~field ~old_v:_ ~new_v ->
          Collectors.Young_gen.barrier yg ~src ~field ~new_v);
    };
  let built = ref None in
  in_mutator env (fun m -> built := Some (build_old_to_young env m));
  let holder, y1_old = Option.get !built in
  let free_before = Heap_impl.free_regions env.heap in
  Alcotest.(check bool) "young cycle succeeded" true
    (run_young_gen_cycle env yg);
  (* The chain survived, relocated, and the holder's slot was healed by
     the update phase. *)
  let y1 = Gobj.resolve y1_old in
  Alcotest.(check bool) "chain head relocated" true (y1 != y1_old);
  Alcotest.(check bool) "chain head alive" false (Gobj.is_freed y1);
  (let v = Gobj.get_field holder 0 in
   if Gobj.is_null v then Alcotest.fail "holder slot lost"
   else Alcotest.(check bool) "holder slot healed in place" true (v == y1));
  (let y2 = Gobj.get_field y1 0 in
   if Gobj.is_null y2 then Alcotest.fail "interior link lost"
   else
     Alcotest.(check bool) "interior link alive" false
       (Gobj.is_freed (Gobj.resolve y2)));
  Alcotest.(check bool) "young garbage reclaimed" true
    (Heap_impl.free_regions env.heap > free_before)

(* ------------------------------------------------------------------ *)
(* Jade's single-phase young collector.                                 *)

let test_jade_young_single_phase () =
  let env = mk_env () in
  let config = Jade.Jade_config.default in
  let young = Jade.Young.create ~config env.rt in
  Runtime.Rt.install_collector env.rt
    {
      Runtime.Rt.null_collector with
      Runtime.Rt.store_barrier =
        (fun ~src ~field ~old_v:_ ~new_v ->
          Jade.Young.barrier young ~src ~field ~new_v);
    };
  let built = ref None in
  in_mutator env (fun m -> built := Some (build_old_to_young env m));
  let holder, y1_old = Option.get !built in
  let ok = ref false in
  ignore
    (Sim.Engine.spawn env.engine ~daemon:true ~name:"jade-y"
       ~kind:Sim.Engine.Gc (fun () ->
         ok := Jade.Young.collect young ~workers:1));
  in_mutator env (fun m -> Runtime.Mutator.work m (5 * Util.Units.ms));
  Alcotest.(check bool) "collection succeeded" true !ok;
  let y1 = Gobj.resolve y1_old in
  Alcotest.(check bool) "chain head relocated" true (y1 != y1_old);
  (* Single phase: references were updated during the same pass. *)
  (let v = Gobj.get_field holder 0 in
   if Gobj.is_null v then Alcotest.fail "slot lost"
   else Alcotest.(check bool) "slot updated in the single pass" true (v == y1));
  (* The old region of y1 was released (per-cycle whole-young release). *)
  Alcotest.(check bool) "old copy freed" true (Gobj.is_freed y1_old)

let test_jade_young_promotion_updates_remset () =
  let env = mk_env () in
  let young = Jade.Young.create ~config:Jade.Jade_config.default env.rt in
  Runtime.Rt.install_collector env.rt
    {
      Runtime.Rt.null_collector with
      Runtime.Rt.store_barrier =
        (fun ~src ~field ~old_v:_ ~new_v ->
          Jade.Young.barrier young ~src ~field ~new_v);
    };
  (* Two linked young objects, rooted; the collection that finds them at
     the tenuring age promotes both — the promoted parent's reference is
     old-to-old, so no old-to-young entry should remain live for it
     afterwards. *)
  let global = ref 0 in
  in_mutator env (fun m ->
      let b = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:0 in
      ignore (Runtime.Mutator.push_root m b);
      let a = Runtime.Mutator.alloc m ~data_bytes:64 ~nrefs:1 in
      Runtime.Mutator.write m a 0 b;
      global := Runtime.Rt.add_global env.rt a);
  let kinds () =
    let a = Gobj.resolve (Runtime.Rt.get_global env.rt !global) in
    let b = Gobj.resolve (Gobj.get_field a 0) in
    List.map
      (fun o -> (Heap_impl.region env.heap (Gobj.region o)).Region.kind)
      [ a; b ]
  in
  (* Each collection ages the survivors by one; the collection that finds
     them at the tenuring age promotes them. *)
  for age = 0 to Jade.Young.tenure_age do
    let ok = ref false in
    ignore
      (Sim.Engine.spawn env.engine ~daemon:true ~name:"jade-y"
         ~kind:Sim.Engine.Gc (fun () ->
           ok := Jade.Young.collect young ~workers:1));
    in_mutator env (fun m -> Runtime.Mutator.work m (5 * Util.Units.ms));
    Alcotest.(check bool) "collection succeeded" true !ok;
    let want =
      if age < Jade.Young.tenure_age then Region.Young else Region.Old
    in
    Alcotest.(check bool)
      (Printf.sprintf "generation after the collection at age %d" age)
      true
      (List.for_all (fun k -> k = want) (kinds ()))
  done;
  (* Everything promoted: no Young regions with survivors remain. *)
  let young_live = ref 0 in
  Array.iter
    (fun (r : Region.t) ->
      if r.Region.kind = Region.Young then young_live := !young_live + r.Region.top)
    env.heap.Heap_impl.regions;
  Alcotest.(check bool)
    (Printf.sprintf "tenuring promoted everything (young holds %s)"
       (Util.Units.pp_bytes !young_live))
    true
    (!young_live < 64 * kib)

let () =
  Alcotest.run "young-gen"
    [
      ( "young_gen (GenShen/GenZ)",
        [
          Alcotest.test_case "barrier remembers old-to-young" `Quick
            test_young_gen_barrier_remembers;
          Alcotest.test_case "collect preserves and heals" `Quick
            test_young_gen_collect_preserves_chain;
        ] );
      ( "jade young (single-phase)",
        [
          Alcotest.test_case "copy+heal in one pass" `Quick
            test_jade_young_single_phase;
          Alcotest.test_case "tenuring promotes everything" `Quick
            test_jade_young_promotion_updates_remset;
        ] );
    ]
