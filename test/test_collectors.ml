(* Correctness tests for all collectors: no reachable object is ever
   lost, heap accounting stays consistent, runs are deterministic, and
   every collector actually reclaims memory under churn. *)

let ms = Util.Units.ms
let mib = Util.Units.mib

(* A compact workload so each collector run stays fast. *)
let test_app : Workload.Apps.t =
  {
    Workload.Apps.name = "test-app";
    fixed_requests = 2_000;
    spec =
      {
        Workload.Spec.name = "test-app";
        mutators = 4;
        live_bytes = 8 * mib;
        node_data = 128;
        chain_len = 5;
        temp_objs = 40;
        temp_data_min = 32;
        temp_data_max = 256;
        survivors = 4;
        pool_slots = 96;
        store_reads = 8;
        update_pct = 0.5;
        cpu_ns = 40_000;
        weak_pct = 0.05;
      };
  }

let collectors : (string * (Runtime.Rt.t -> unit)) list =
  [
    ("g1", fun rt -> ignore (Collectors.G1.install rt));
    ("g1-10ms",
      fun rt -> ignore (Collectors.G1.install ~pause_target:(10 * ms) rt));
    ("shenandoah", fun rt -> ignore (Collectors.Shenandoah.install rt));
    ("zgc", fun rt -> ignore (Collectors.Zgc.install rt));
    ("genshen", fun rt -> ignore Collectors.Generational.(install genshen rt));
    ("genz", fun rt -> ignore Collectors.Generational.(install genz rt));
    ("lxr", fun rt -> ignore (Collectors.Lxr.install rt));
    ("jade", fun rt -> ignore (Jade.Collector.install rt));
  ]

let machine heap_bytes =
  {
    Experiments.Harness.default_machine with
    Experiments.Harness.heap_bytes;
    cores = 4;
  }

(* Walk the object graph from the roots, checking that every reachable
   object is sound: not freed, housed in a non-free region, inside the
   region's allocated span. *)
let verify_reachable rt =
  let heap = rt.Runtime.Rt.heap in
  let seen = Hashtbl.create 4096 in
  let count = ref 0 in
  let rec visit depth (o : Heap.Gobj.t) =
    let o = Heap.Gobj.resolve o in
    if not (Hashtbl.mem seen (Heap.Gobj.id o)) then begin
      Hashtbl.replace seen (Heap.Gobj.id o) ();
      incr count;
      if Heap.Gobj.is_freed o then begin
        let r = Heap.Heap_impl.region heap (Heap.Gobj.region o) in
        Alcotest.failf
          "reachable object #%d is freed (region %d kind=%s top=%d off=%d size=%d fwd=%b mark=%d ymark=%d epoch=%d age=%d)"
          (Heap.Gobj.id o) (Heap.Gobj.region o)
          (Heap.Region.kind_to_string r.Heap.Region.kind)
          r.Heap.Region.top (Heap.Gobj.offset o) (Heap.Gobj.size o)
          (Heap.Gobj.is_forwarded o) (Heap.Gobj.mark o) (Heap.Gobj.ymark o)
          heap.Heap.Heap_impl.mark_epoch (Heap.Gobj.age o)
      end;
      let r = Heap.Heap_impl.region heap (Heap.Gobj.region o) in
      if Heap.Region.is_free r then
        Alcotest.failf "reachable object #%d lives in a free region"
          (Heap.Gobj.id o);
      if Heap.Gobj.offset o + Heap.Gobj.size o > r.Heap.Region.top then
        Alcotest.failf "reachable object #%d outside its region's span"
          (Heap.Gobj.id o);
      Heap.Gobj.iter_fields (fun _ child -> visit (depth + 1) child) o
    end
  in
  Runtime.Rt.iter_roots rt (fun o -> if o != Heap.Gobj.null then visit 0 o);
  !count

let verify_free_accounting rt =
  let heap = rt.Runtime.Rt.heap in
  let actual = ref 0 in
  Array.iter
    (fun (r : Heap.Region.t) -> if Heap.Region.is_free r then incr actual)
    heap.Heap.Heap_impl.regions;
  Alcotest.(check int) "free-region accounting" !actual
    (Heap.Heap_impl.free_regions heap)

let run_once ~heap_bytes ~seed install =
  let machine = { (machine heap_bytes) with Experiments.Harness.seed } in
  Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine ~install ~collector:"x"
    ~warmup:(100 * ms) ~duration:(300 * ms) test_app

(* One test per collector: run under a comfortable heap, verify heap
   soundness and progress. *)
let test_collector_sound (name, install) () =
  let rt, request =
    Experiments.Harness.prepare ~machine:(machine (48 * mib)) ~install test_app
  in
  let r =
    Runtime.Driver.run rt ~n_mutators:4 ~mode:Runtime.Driver.Closed
      ~warmup:(100 * ms) ~duration:(400 * ms) ~request ()
  in
  Alcotest.(check bool) (name ^ " no OOM") true (r.Runtime.Driver.oom = None);
  Alcotest.(check bool)
    (Printf.sprintf "%s made progress (%d reqs)" name r.Runtime.Driver.completed)
    true
    (r.Runtime.Driver.completed > 500);
  let live = verify_reachable rt in
  Alcotest.(check bool)
    (Printf.sprintf "%s live graph intact (%d objects)" name live)
    true (live > 1000);
  verify_free_accounting rt;
  (* Memory was actually recycled: total allocation far exceeds the heap. *)
  Alcotest.(check bool) (name ^ " reclaimed memory") true
    (rt.Runtime.Rt.heap.Heap.Heap_impl.bytes_allocated > 48 * mib)

(* Tight heap: the collector either keeps up or OOMs cleanly — no hangs,
   no corruption. *)
let test_collector_pressure (name, install) () =
  let rt, request =
    Experiments.Harness.prepare ~machine:(machine (16 * mib)) ~install test_app
  in
  let r =
    Runtime.Driver.run rt ~n_mutators:4 ~mode:Runtime.Driver.Closed
      ~warmup:(50 * ms) ~duration:(200 * ms) ~request ()
  in
  (match r.Runtime.Driver.oom with
  | Some _ -> () (* clean OOM is acceptable at 2x live *)
  | None -> ignore (verify_reachable rt));
  verify_free_accounting rt;
  Alcotest.(check bool) (name ^ " terminated") true true

let test_determinism (name, install) () =
  let a = run_once ~heap_bytes:(48 * mib) ~seed:123 install in
  let b = run_once ~heap_bytes:(48 * mib) ~seed:123 install in
  Alcotest.(check int)
    (name ^ " deterministic completions")
    a.Experiments.Harness.completed b.Experiments.Harness.completed;
  Alcotest.(check int)
    (name ^ " deterministic pauses")
    a.Experiments.Harness.cumulative_pause b.Experiments.Harness.cumulative_pause

(* Unit tests for the per-region remembered-set table. *)
let test_region_remsets () =
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rs = Collectors.Region_remsets.create heap in
  Alcotest.(check bool) "lazy: no set yet" true
    (Collectors.Region_remsets.get rs 3 = None);
  Alcotest.(check int) "no memory yet" 0 (Collectors.Region_remsets.byte_size rs);
  Collectors.Region_remsets.add rs ~target_rid:3 ~card:17;
  Collectors.Region_remsets.add rs ~target_rid:3 ~card:17;
  Collectors.Region_remsets.add rs ~target_rid:3 ~card:21;
  Alcotest.(check int) "cardinality dedups" 2
    (Collectors.Region_remsets.cardinal rs 3);
  Alcotest.(check bool) "memory accounted" true
    (Collectors.Region_remsets.byte_size rs > 0);
  Collectors.Region_remsets.clear rs 3;
  Alcotest.(check int) "cleared" 0 (Collectors.Region_remsets.cardinal rs 3);
  Alcotest.(check bool) "set dropped" true
    (Collectors.Region_remsets.get rs 3 = None)

(* ------------------------------------------------------------------ *)
(* The claim loop (Common.parallel_drain).                              *)

(* Run [f] in a GC fiber of a fresh two-core engine, to completion. *)
let in_gc_fiber f =
  let engine = Sim.Engine.create ~cores:2 () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  let result = ref None in
  ignore
    (Sim.Engine.spawn engine ~name:"driver" ~kind:Sim.Engine.Gc (fun () ->
         result := Some (f rt)));
  Sim.Engine.run engine;
  match !result with Some r -> r | None -> Alcotest.fail "driver never ran"

(* Each item bills enough to flush its worker's ticker, so workers
   interleave between items. *)
let busy tk = Collectors.Common.Ticker.tick tk 50_000

(* The items 0 to [n - 1], in a buffer as the collectors pass them. *)
let items n = Util.Vec.of_list 0 (List.init n Fun.id)

let test_claim_each_once_in_order () =
  let claims = ref [] and workers_seen = ref [] in
  let leftover, failed =
    in_gc_fiber (fun rt ->
        let next_worker = ref 0 in
        Collectors.Common.parallel_drain rt ~n:3 ~name:"claim"
          ~init:(fun _ ->
            incr next_worker;
            !next_worker)
          (items 20)
          (fun w tk i ->
            claims := i :: !claims;
            if not (List.mem w !workers_seen) then
              workers_seen := w :: !workers_seen;
            busy tk))
  in
  Alcotest.(check (list int)) "every index once, in order"
    (List.init 20 Fun.id) (List.rev !claims);
  Alcotest.(check bool) "several workers claimed" true
    (List.length !workers_seen > 1);
  Alcotest.(check (list int)) "no remainder" [] leftover;
  Alcotest.(check bool) "no failure" false failed

(* An evacuation failure stops further claims and hands back the
   remainder with the failing item included — what Shenandoah's
   degenerated cycle then finishes under STW. *)
let test_claim_failure_returns_remainder () =
  let done_ = ref [] and claims_after_failure = ref 0 in
  let failed_yet = ref false in
  let leftover, failed =
    in_gc_fiber (fun rt ->
        Collectors.Common.parallel_drain rt ~n:2 ~name:"claim" ~init:ignore
          (items 10)
          (fun () tk i ->
            if !failed_yet then incr claims_after_failure;
            if i = 4 then begin
              failed_yet := true;
              raise Collectors.Common.Evac.Evacuation_failure
            end;
            busy tk;
            done_ := i :: !done_))
  in
  Alcotest.(check bool) "failure reported" true failed;
  Alcotest.(check int) "no claim after the failure" 0 !claims_after_failure;
  Alcotest.(check bool) "failing item handed back" true (List.mem 4 leftover);
  Alcotest.(check int) "failing item last" 4 (List.nth leftover (List.length leftover - 1));
  Alcotest.(check (list int)) "processed + remainder = all, each once"
    (List.init 10 Fun.id)
    (List.sort compare (!done_ @ leftover));
  Alcotest.(check (list int)) "unclaimed items from the highest index down"
    (List.rev (List.filter (fun i -> i > 4 && not (List.mem i !done_))
       (List.init 10 Fun.id)))
    (List.filter (fun i -> i <> 4) leftover)

(* The stop flag is read between items: once it rises no new item is
   claimed, and everything unclaimed comes back. *)
let test_claim_stop_flag () =
  let processed = ref 0 in
  let leftover, failed =
    in_gc_fiber (fun rt ->
        Collectors.Common.parallel_drain rt ~n:1 ~name:"claim"
          ~stop:(fun () -> !processed >= 3)
          ~init:ignore (items 10)
          (fun () tk _ ->
            busy tk;
            incr processed))
  in
  Alcotest.(check int) "stopped after three items" 3 !processed;
  Alcotest.(check bool) "a stop is not a failure" false failed;
  Alcotest.(check (list int)) "remainder" [ 9; 8; 7; 6; 5; 4; 3 ] leftover

(* ------------------------------------------------------------------ *)
(* The collection-set vocabulary (Common).                              *)

(* A runtime over a heap of [region_bytes] regions whose first regions
   are claimed with [kinds], in order: region [i] gets [kinds.(i)]. *)
let cset_fixture ?(region_bytes = 256 * Util.Units.kib) kinds =
  let engine = Sim.Engine.create () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(16 * region_bytes) ~region_bytes ())
  in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  let regions =
    List.map
      (fun kind -> Option.get (Heap.Heap_impl.claim_region heap kind))
      kinds
  in
  (rt, heap, regions)

let rids buf =
  List.map (fun (r : Heap.Region.t) -> r.Heap.Region.rid) (Util.Vec.to_list buf)

let flagged heap =
  Array.to_list heap.Heap.Heap_impl.regions
  |> List.filter (fun (r : Heap.Region.t) -> r.Heap.Region.in_cset)
  |> List.map (fun (r : Heap.Region.t) -> r.Heap.Region.rid)

(* Only young regions, in rid order, each flagged; a buffer that still
   holds last cycle's regions is cleared first. *)
let test_snapshot_young () =
  let open Heap.Region in
  let rt, heap, regions = cset_fixture [ Old; Young; Young; Old; Young ] in
  let young = List.filter (fun r -> r.kind = Young) regions in
  Alcotest.(check (list int)) "fixture claims in rid order" [ 1; 2; 4 ]
    (List.map (fun r -> r.rid) young);
  let buf = Collectors.Common.region_buffer () in
  Util.Vec.push buf (List.nth regions 3);
  Util.Vec.push buf (List.nth regions 0);
  Collectors.Common.snapshot_young rt buf;
  Alcotest.(check (list int)) "young regions, ascending rid" [ 1; 2; 4 ]
    (rids buf);
  Alcotest.(check (list int)) "exactly the young regions flagged" [ 1; 2; 4 ]
    (flagged heap)

let test_abandon_cset () =
  let rt, heap, _ = cset_fixture Heap.Region.[ Young; Old; Young; Young ] in
  let buf = Collectors.Common.region_buffer () in
  Collectors.Common.snapshot_young rt buf;
  Alcotest.(check int) "three regions flagged" 3 (List.length (flagged heap));
  Collectors.Common.abandon_cset buf;
  Alcotest.(check (list int)) "no flag left" [] (flagged heap);
  Alcotest.(check (list int)) "the buffer still names them" [ 0; 2; 3 ]
    (rids buf)

(* 10 KiB regions: 0.85 of one is exactly 8704 bytes, so the boundary is
   tested on the threshold itself, not next to it. *)
let test_evacuable () =
  let open Heap.Region in
  let _, heap, regions = cset_fixture ~region_bytes:(10 * Util.Units.kib) [ Old ] in
  let r = List.hd regions and free = heap.Heap.Heap_impl.regions.(15) in
  ignore (Heap.Heap_impl.begin_mark heap);
  Heap.Heap_impl.end_mark heap;
  let late = Option.get (Heap.Heap_impl.claim_region heap Old) in
  let evacuable = Collectors.Common.evacuable heap in
  Alcotest.(check bool) "region 15 is free" true (is_free free);
  free.live_bytes <- 0;
  Alcotest.(check bool) "a free region is not evacuable" false (evacuable free);
  late.live_bytes <- 0;
  Alcotest.(check bool) "allocated after the snapshot" false (evacuable late);
  r.live_bytes <- 8703;
  Alcotest.(check bool) "just below 0.85 live" true (evacuable r);
  r.live_bytes <- 8704;
  Alcotest.(check (float 0.)) "exactly 0.85 live" 0.85 (live_ratio r);
  Alcotest.(check bool) "at 0.85 live" false (evacuable r);
  r.live_bytes <- 0;
  Alcotest.(check bool) "empty region before the snapshot" true (evacuable r)

(* ------------------------------------------------------------------ *)
(* Card heal (Common.update_refs_in_card).                              *)

(* Jade's group heal and Young_gen's update-refs scan a card per call;
   with the worker's ticker as the scan's context, a card costs no host
   allocation, stale slots included. *)
let test_heal_card_allocates_nothing () =
  let engine = Sim.Engine.create () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  let claim () = Option.get (Heap.Heap_impl.claim_region heap Heap.Region.Old) in
  let holders_r = claim () and targets_r = claim () in
  let alloc r ~nrefs = Heap.Heap_impl.alloc_in heap r ~size:64 ~nrefs in
  let stale = alloc targets_r ~nrefs:0 and fresh = alloc targets_r ~nrefs:0 in
  stale.Heap.Gobj.forward <- fresh;
  let holders = Array.init 8 (fun _ -> alloc holders_r ~nrefs:4) in
  let card = Heap.Heap_impl.card_of_field heap holders.(0) 0 in
  let make_stale () =
    for i = 0 to Array.length holders - 1 do
      Heap.Gobj.set_field holders.(i) 1 stale
    done
  in
  (* The engine is not running: a ticker that never reaches its flush
     batch keeps the scan from suspending. *)
  let tk = Collectors.Common.Ticker.create ~workers:1_000_000 () in
  make_stale ();
  Collectors.Common.update_refs_in_card rt tk card;
  Alcotest.(check bool) "stale slot healed" true
    (Heap.Gobj.get_field holders.(0) 1 == fresh);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    make_stale ();
    Collectors.Common.update_refs_in_card rt tk card
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Per-card closures (Jade's young remembered-set scan, G1's rebuild).  *)

(* An old region full of holders, each slot pointing into a young
   region outside any collection set (so no target needs a copy), and
   the holders' distinct cards in address order. *)
let card_scan_fixture () =
  let engine = Sim.Engine.create () in
  let heap =
    Heap.Heap_impl.create
      (Heap.Heap_impl.config ~heap_bytes:(4 * mib)
         ~region_bytes:(256 * Util.Units.kib) ())
  in
  let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
  let claim kind = Option.get (Heap.Heap_impl.claim_region heap kind) in
  let holders_r = claim Heap.Region.Old and targets_r = claim Heap.Region.Young in
  let target = Heap.Heap_impl.alloc_in heap targets_r ~size:64 ~nrefs:0 in
  let cards = Util.Vec.create 0 in
  for _ = 1 to 1024 do
    let o = Heap.Heap_impl.alloc_in heap holders_r ~size:64 ~nrefs:4 in
    for i = 0 to 3 do
      Heap.Gobj.set_field o i target
    done;
    let card = Heap.Heap_impl.card_of_field heap o 0 in
    let n = Util.Vec.length cards in
    if n = 0 || Util.Vec.get cards (n - 1) <> card then
      Util.Vec.push cards card
  done;
  (rt, Util.Vec.to_array cards, target)

(* Host minor words a scan of [n] more cards costs: [scan cards n] scans
   the first [n] cards, and what it allocates once per call cancels out
   of the difference between [2n] and [n] cards. *)
let words_per_card scan cards =
  let n = Array.length cards / 2 in
  scan cards (2 * n) (* warm-up: first-use allocations, lazy remsets *);
  let words k =
    let w0 = Gc.minor_words () in
    scan cards k;
    Gc.minor_words () -. w0
  in
  let w1 = words n in
  let w2 = words (2 * n) in
  (w2 -. w1) /. float_of_int n

(* The engine is not running: a ticker that never reaches its flush
   batch keeps the scans from suspending. *)
let idle_ticker () = Collectors.Common.Ticker.create ~workers:1_000_000 ()

let test_jade_remset_scan_allocates_nothing () =
  let rt, cards, _ = card_scan_fixture () in
  Alcotest.(check bool) "at least 16 cards" true (Array.length cards >= 16);
  let young = Jade.Young.create ~config:Jade.Jade_config.default rt in
  let cs =
    {
      Jade.Young.cs_young = young;
      cs_dests =
        ( Collectors.Common.Evac.make_dest rt Heap.Region.Young,
          Collectors.Common.Evac.make_dest rt Heap.Region.Old );
      cs_tk = idle_ticker ();
      cs_keep = false;
    }
  in
  Alcotest.(check bool) "card keeps its old-to-young ref" true
    (Jade.Young.scan_remset_card cs cards.(0));
  let scan cards n =
    for c = 0 to n - 1 do
      ignore (Jade.Young.scan_remset_card cs cards.(c))
    done
  in
  Alcotest.(check (float 0.)) "minor words per card" 0.
    (words_per_card scan cards)

let test_g1_rebuild_allocates_nothing () =
  let rt, cards, target = card_scan_fixture () in
  let heap = rt.Runtime.Rt.heap in
  let remsets = Collectors.Region_remsets.create heap in
  let tk = idle_ticker () in
  let buf = Util.Vec.of_list 0 (Array.to_list cards) in
  let scan _ n =
    Collectors.G1.rebuild_remset_cards heap remsets tk buf ~lo:0 ~hi:n
  in
  scan cards 1;
  Alcotest.(check int) "rebuild recorded the card" 1
    (Collectors.Region_remsets.cardinal remsets (Heap.Gobj.region target));
  Alcotest.(check (float 0.)) "minor words per card" 0.
    (words_per_card scan cards)

(* ------------------------------------------------------------------ *)
(* ZGC's unremapped stubs.                                              *)

(* ZGC heals no reference at relocation, so each forwarded from-space
   record stays named until the next mark and must never be recycled;
   its copy is an ordinary record the pool may take back once it dies.
   Checked on every region as it is released, before its residents are
   reset. *)
let test_zgc_flags_stub_not_copy () =
  let stubs = ref 0 in
  let check (r : Heap.Region.t) ~claimed =
    if not claimed then
      Util.Vec.iter
        (fun (o : Heap.Gobj.t) ->
          if Heap.Gobj.is_forwarded o then begin
            incr stubs;
            if not (Heap.Gobj.has_flag o Heap.Gobj.flag_unremapped) then
              Alcotest.failf "stub uid %d in region %d is not flagged"
                (Heap.Gobj.uid o) r.Heap.Region.rid;
            let copy = Heap.Gobj.resolve o in
            if Heap.Gobj.has_flag copy Heap.Gobj.flag_unremapped then
              Alcotest.failf "copy uid %d of stub uid %d is flagged"
                (Heap.Gobj.uid copy) (Heap.Gobj.uid o)
          end)
        r.Heap.Region.objects
  in
  let rt, request =
    Experiments.Harness.prepare ~machine:(machine (48 * mib))
      ~attach:(fun rt ->
        Heap.Heap_impl.set_region_observer rt.Runtime.Rt.heap (Some check))
      ~install:(fun rt -> ignore (Collectors.Zgc.install rt))
      test_app
  in
  ignore
    (Runtime.Driver.run rt ~n_mutators:4 ~mode:Runtime.Driver.Closed
       ~warmup:(50 * ms) ~duration:(200 * ms) ~request ());
  Alcotest.(check bool)
    (Printf.sprintf "relocation forwarded records (%d stubs)" !stubs)
    true (!stubs > 0)

(* ------------------------------------------------------------------ *)
(* Verifier metadata: what each registered collector tells --verify.   *)

(* Per collector, after install: the remembered-set provider and the owner
   of the CRDT source.  Dropping a registration would only make --verify
   check less, silently; this fence makes it fail. *)
let expected_metadata =
  [
    ("jade", (Some "jade.old2young", Some "jade"));
    ("g1", (Some "g1.remsets", None));
    ("g1-10ms", (Some "g1.remsets", None));
    ("zgc", (None, None));
    ("shenandoah", (None, None));
    ("lxr", (Some "lxr.remsets", None));
    ("genz", (Some "young_gen.old2young", None));
    ("genshen", (Some "young_gen.old2young", None));
  ]

let test_verifier_metadata () =
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      let engine = Sim.Engine.create ~cores:2 () in
      let heap =
        Heap.Heap_impl.create
          (Heap.Heap_impl.config ~heap_bytes:(8 * mib)
             ~region_bytes:(256 * Util.Units.kib) ())
      in
      let rt = Runtime.Rt.create ~seed:42 ~engine ~heap () in
      e.Experiments.Registry.install rt;
      let actual =
        ( Option.map
            (fun p -> p.Runtime.Vhook.rp_name)
            rt.Runtime.Rt.remset_provider,
          Option.map fst rt.Runtime.Rt.crdt_source )
      in
      Alcotest.(check (pair (option string) (option string)))
        (e.Experiments.Registry.name ^ " registrations")
        (List.assoc e.Experiments.Registry.name expected_metadata)
        actual)
    Experiments.Registry.all

(* ------------------------------------------------------------------ *)
(* Region remembered sets across a full GC.                             *)

(* A full compaction moves the survivors, so every region remembered set
   must be rebuilt from the surviving references.  Checked at each
   compaction's cycle-end boundary, still inside its pause: every
   cross-region reference out of a live old holder is in
   the remembered set of the region it points into. *)
let uncovered_refs rt (remsets : Collectors.Region_remsets.t) =
  let heap = rt.Runtime.Rt.heap in
  let missing = ref 0 in
  Array.iter
    (fun (r : Heap.Region.t) ->
      if
        (not (Heap.Region.is_free r)) && Collectors.Stw_collect.remember_from r
      then
        Util.Vec.iter
          (fun (o : Heap.Gobj.t) ->
            if Heap.Heap_impl.is_marked heap o && not (Heap.Gobj.is_forwarded o)
            then
              Heap.Gobj.iter_fields
                (fun i child ->
                  let target_rid = Heap.Gobj.region (Heap.Gobj.resolve child) in
                  let card = Heap.Heap_impl.card_of_field heap o i in
                  if
                    target_rid <> Heap.Gobj.region o
                    &&
                    match Collectors.Region_remsets.get remsets target_rid with
                    | Some rs -> not (Heap.Remset.mem rs card)
                    | None -> true
                  then incr missing)
                o)
          r.Heap.Region.objects)
    heap.Heap.Heap_impl.regions;
  !missing

let test_full_gc_rebuilds_remsets (name, install) () =
  let remsets = ref None and full_gcs = ref 0 and missing = ref 0 in
  let rt, request =
    Experiments.Harness.prepare ~machine:(machine (16 * mib))
      ~install:(fun rt -> remsets := Some (install rt))
      ~attach:(fun rt ->
        rt.Runtime.Rt.phase_hook <-
          Some
            (fun ~collector phase ->
              if
                phase = Runtime.Vhook.Cycle_end
                && String.ends_with ~suffix:"+full-compact" collector
              then begin
                incr full_gcs;
                missing := !missing + uncovered_refs rt (Option.get !remsets)
              end))
      test_app
  in
  ignore
    (Runtime.Driver.run rt ~n_mutators:4 ~mode:Runtime.Driver.Closed
       ~warmup:(50 * ms) ~duration:(200 * ms) ~request ());
  Alcotest.(check bool)
    (Printf.sprintf "%s ran a full GC (%d)" name !full_gcs)
    true (!full_gcs > 0);
  Alcotest.(check int) (name ^ " references missing from remembered sets") 0
    !missing

(* ------------------------------------------------------------------ *)
(* Variants.                                                            *)

(* G1-10ms is G1 with a 10 ms soft pause target.  On a scenario with
   millisecond pauses the target changes the eden budget, and with it how
   often G1 collects (the Table 3 critical-jops effect). *)
let test_g1_pause_target_binds () =
  let app = Workload.Apps.find "specjbb2015" in
  let machine = Experiments.Exp.machine_for ~cores:8 app ~mult:4.0 in
  let pauses name =
    let e = Experiments.Registry.find name in
    (Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine ~warmup:(50 * ms)
       ~duration:(200 * ms) ~install:e.Experiments.Registry.install
       ~collector:name app)
      .Experiments.Harness.pause_count
  in
  let g1 = pauses "g1" and g1_10ms = pauses "g1-10ms" in
  Alcotest.(check bool)
    (Printf.sprintf "pause counts differ (g1 %d, g1-10ms %d)" g1 g1_10ms)
    true (g1 <> g1_10ms)

let () =
  Alcotest.run "collectors"
    ([
       ( "soundness",
         List.map
           (fun c ->
             Alcotest.test_case (fst c) `Slow (test_collector_sound c))
           collectors );
       ( "pressure",
         List.map
           (fun c ->
             Alcotest.test_case (fst c) `Slow (test_collector_pressure c))
           collectors );
       ( "region remsets",
         [ Alcotest.test_case "lifecycle" `Quick test_region_remsets ] );
       ( "claim loop",
         [
           Alcotest.test_case "each index once, in order" `Quick
             test_claim_each_once_in_order;
           Alcotest.test_case "failure returns the remainder" `Quick
             test_claim_failure_returns_remainder;
           Alcotest.test_case "stop flag between items" `Quick
             test_claim_stop_flag;
         ] );
       ( "collection sets",
         [
           Alcotest.test_case "snapshot_young: young regions in rid order"
             `Quick test_snapshot_young;
           Alcotest.test_case "abandon_cset clears every flag" `Quick
             test_abandon_cset;
           Alcotest.test_case "evacuable" `Quick test_evacuable;
         ] );
       ( "card heal",
         [
           Alcotest.test_case "allocates nothing per card" `Quick
             test_heal_card_allocates_nothing;
         ] );
       ( "card scans",
         [
           Alcotest.test_case "jade young remset scan allocates nothing per card"
             `Quick test_jade_remset_scan_allocates_nothing;
           Alcotest.test_case "g1 remset rebuild allocates nothing per card"
             `Quick test_g1_rebuild_allocates_nothing;
         ] );
       ( "zgc relocation",
         [
           Alcotest.test_case "flags the stub, not its copy" `Slow
             test_zgc_flags_stub_not_copy;
         ] );
       ( "full gc",
         List.map
           (fun (name, install) ->
             Alcotest.test_case (name ^ " rebuilds region remsets") `Slow
               (test_full_gc_rebuilds_remsets (name, install)))
           [
             ("g1", fun rt -> (Collectors.G1.install rt).Collectors.G1.remsets);
             ("lxr", fun rt -> (Collectors.Lxr.install rt).Collectors.Lxr.remsets);
           ] );
       ( "verifier metadata",
         [ Alcotest.test_case "registrations" `Quick test_verifier_metadata ] );
       ( "variants",
         [
           Alcotest.test_case "g1-10ms pause target binds" `Slow
             test_g1_pause_target_binds;
         ] );
       ( "determinism",
         [
           Alcotest.test_case "g1" `Slow
             (test_determinism (List.nth collectors 0));
           Alcotest.test_case "zgc" `Slow
             (test_determinism (List.nth collectors 3));
           Alcotest.test_case "jade" `Slow
             (test_determinism (List.nth collectors 7));
         ] );
     ])
