(* Shared schedule-explorer scenarios for test_explore and
   test_parallel: a hand-built jade young collection with a planted
   schedule-dependent forwarding-window bug, and a disjoint-footprint
   control.  No top-level effects — this module is linked into every
   test executable in the directory. *)

let us = Util.Units.us
let kib = Util.Units.kib
let mib = Util.Units.mib

(* The planted schedule-dependent bug.

   Two evacuation workers over two remembered cards, one core:

   - the "cheap" card holds one old holder referencing young [x];
   - the "prep" card holds two old holders in one region: the first
     references a large young [y] (about two quanta of copy work), the
     second references the same [x].

   The worker that draws the cheap card reaches [x]'s forwarding check
   almost immediately; with [Racy_forwarding_window] planted it then
   sits in a one-quantum check-then-act window before installing.  The
   other worker must first copy [y], so under round-robin it reaches
   [x] well after the install and sees the forward — the default
   schedule is clean.  Only when the scheduler delays the cheap worker
   by a round or two does the second check land inside the window and
   both workers relocate [x]. *)

let config ~plant =
  {
    Jade.Jade_config.default with
    planted_bug =
      (if plant then Jade.Jade_config.Racy_forwarding_window
       else Jade.Jade_config.No_bug);
  }

(* A jade young collector on a hand-built runtime: no controller
   daemons, the scenario decides when collection runs (same shape as
   the planted-bug tests in test_analysis.ml, minus the sanitizer —
   the explorer installs its own oracles through [attach]). *)
let young_only_rt ~cores ~config () =
  let engine = Sim.Engine.create ~cores ~quantum:(20 * us) () in
  let cfg =
    Heap.Heap_impl.config ~heap_bytes:(16 * mib) ~region_bytes:(256 * kib) ()
  in
  let heap = Heap.Heap_impl.create cfg in
  let rt = Runtime.Rt.create ~seed:7 ~engine ~heap () in
  Heap.Access.reset ();
  let young = Jade.Young.create ~config rt in
  Runtime.Rt.register_remset_provider rt
    {
      Runtime.Vhook.rp_name = "test.jade.old2young";
      rp_covers =
        (fun () ->
          Some
            (fun ~card ~target_rid:_ ->
              Heap.Remset.mem young.Jade.Young.remset card
              || Heap.Heap_impl.card_is_dirty heap card));
    };
  Runtime.Rt.install_collector rt
    {
      Runtime.Rt.cname = "jade";
      store_barrier =
        (fun ~src ~field ~old_v:_ ~new_v ->
          Jade.Young.barrier young ~src ~field ~new_v);
      load_extra_cost = 1;
      mutator_tax_pct = 0;
      alloc_failure = (fun () -> failwith "test heap exhausted");
    };
  (rt, young)

let holder_size = Heap.Heap_impl.object_size ~nrefs:1 ~data_bytes:0

(* One old holder alone in a fresh region (its own card). *)
let fresh_old_holder rt =
  let heap = rt.Runtime.Rt.heap in
  match Heap.Heap_impl.claim_region heap Heap.Region.Old with
  | None -> Alcotest.fail "test heap has no free region"
  | Some r -> Heap.Heap_impl.alloc_in heap r ~size:holder_size ~nrefs:1

(* Two old holders adjacent in one fresh region: same card, scanned in
   allocation order. *)
let two_old_holders rt =
  let heap = rt.Runtime.Rt.heap in
  match Heap.Heap_impl.claim_region heap Heap.Region.Old with
  | None -> Alcotest.fail "test heap has no free region"
  | Some r ->
      let h1 = Heap.Heap_impl.alloc_in heap r ~size:holder_size ~nrefs:1 in
      let h2 = Heap.Heap_impl.alloc_in heap r ~size:holder_size ~nrefs:1 in
      (h1, h2)

(* [y]'s copy costs about two quanta (1 ns/byte vs a 20 us quantum). *)
let y_bytes = 40_000

let window_scenario ~plant : Analysis.Explore.scenario =
 fun ~attach ->
  let rt, young = young_only_rt ~cores:1 ~config:(config ~plant) () in
  attach rt;
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"planter"
       ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         let x = Runtime.Mutator.alloc m ~data_bytes:32 ~nrefs:0 in
         let y = Runtime.Mutator.alloc m ~data_bytes:y_bytes ~nrefs:0 in
         let cheap = fresh_old_holder rt in
         let prep1, prep2 = two_old_holders rt in
         Runtime.Mutator.write m cheap 0 x;
         Runtime.Mutator.write m prep1 0 y;
         Runtime.Mutator.write m prep2 0 x;
         Runtime.Mutator.finish m;
         ignore (Jade.Young.collect young ~workers:2)));
  Sim.Engine.run rt.Runtime.Rt.engine

(* Two workers over two disjoint cards (no shared child object), two
   cores: every choice point is a same-round reorder of threads whose
   footprints never intersect (footprint-pruning control). *)
let disjoint_scenario : Analysis.Explore.scenario =
 fun ~attach ->
  let rt, young = young_only_rt ~cores:2 ~config:(config ~plant:false) () in
  attach rt;
  ignore
    (Sim.Engine.spawn rt.Runtime.Rt.engine ~name:"planter"
       ~kind:Sim.Engine.Mutator (fun () ->
         let m = Runtime.Mutator.create rt in
         let x = Runtime.Mutator.alloc m ~data_bytes:256 ~nrefs:0 in
         let y = Runtime.Mutator.alloc m ~data_bytes:256 ~nrefs:0 in
         let h1 = fresh_old_holder rt in
         let h2 = fresh_old_holder rt in
         Runtime.Mutator.write m h1 0 x;
         Runtime.Mutator.write m h2 0 y;
         Runtime.Mutator.finish m;
         ignore (Jade.Young.collect young ~workers:2)));
  Sim.Engine.run rt.Runtime.Rt.engine

let is_forwarding_race (r : Analysis.Report.t) =
  r.Analysis.Report.engine = "race-detector"

let bounded_cfg =
  {
    Analysis.Explore.strategy = Analysis.Explore.Bounded;
    schedules = 400;
    depth = 10;
    seed = 1;
    jobs = 1;
  }
