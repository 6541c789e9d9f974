(* Bechamel micro-benchmarks of the data structures behind each table:
   one [Test.make] per table/figure family, measuring the host-level cost
   of the operation the experiment leans on.  The headline is the §3.2
   claim that the simulation-based grouping finishes in microseconds. *)

open Bechamel
open Toolkit

(* Quick mode trims the quota/sample budget: estimates get noisier, but
   a smoke run finishes in a fraction of the time, which is what
   scripts/ci.sh wants. *)
let quick = Bench_options.quick

let kib = Util.Units.kib

(* Synthetic old regions with a pseudo-random liveness profile.  No
   object is pushed, so no region allocates its block-offset table. *)
let make_regions n =
  let prng = Util.Prng.create 17 in
  List.init n (fun rid ->
      let r = Heap.Region.make ~rid ~size:(512 * kib) in
      r.Heap.Region.kind <- Heap.Region.Old;
      r.Heap.Region.top <- 512 * kib;
      r.Heap.Region.live_bytes <- Util.Prng.int prng (512 * kib);
      r)

(* Table 6 / §3.2: Algorithm 1 over a 1 GiB heap's worth of regions. *)
let test_grouping =
  let regions = make_regions 2048 in
  Test.make ~name:"table6/grouping-2048-regions (Algorithm 1)"
    (Staged.stage (fun () ->
         ignore
           (Jade.Grouping.build ~config:Jade.Jade_config.default
              ~free_bytes:(64 * 1024 * kib) regions)))

(* Table 7: CRDT recording (the marking piggyback). *)
let test_crdt_record =
  let crdt = Heap.Crdt.create ~total_cards:65536 in
  let prng = Util.Prng.create 23 in
  Test.make ~name:"table7/crdt-record"
    (Staged.stage (fun () ->
         Heap.Crdt.record crdt
           ~card:(Util.Prng.int prng 65536)
           ~rid:(Util.Prng.int prng 2048)))

(* Table 7: remembered-set insertion. *)
let test_remset_add =
  let rs = Heap.Remset.create ~name:"bench" ~total_cards:65536 in
  let prng = Util.Prng.create 29 in
  Test.make ~name:"table7/remset-add"
    (Staged.stage (fun () -> ignore (Heap.Remset.add rs (Util.Prng.int prng 65536))))

(* Tables 1-4 lean on the card table and remembered sets. *)
let test_bitset =
  let b = Util.Bitset.create 65536 in
  let prng = Util.Prng.create 31 in
  Test.make ~name:"table1-4/bitset-set-clear"
    (Staged.stage (fun () ->
         let i = Util.Prng.int prng 65536 in
         ignore (Util.Bitset.set b i);
         Util.Bitset.clear b i))

(* Figures 4-7 lean on the latency histogram. *)
let test_histogram =
  let h = Util.Histogram.create () in
  let prng = Util.Prng.create 37 in
  Test.make ~name:"fig4-7/histogram-record"
    (Staged.stage (fun () ->
         Util.Histogram.record h (Util.Prng.int prng 1_000_000_000)))

(* Table 5: the young single-phase copy loop's host cost (engine fiber
   switch + copy bookkeeping). *)
let test_engine_switch =
  Test.make ~name:"table5/engine-context-switch"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create ~cores:1 ~quantum:1000 () in
         ignore
           (Sim.Engine.spawn e ~name:"t" ~kind:Sim.Engine.Gc (fun () ->
                for _ = 1 to 10 do
                  Sim.Engine.tick 1000
                done));
         Sim.Engine.run e))

let benchmark () =
  let tests =
    [
      test_grouping; test_crdt_record; test_remset_add; test_bitset;
      test_histogram; test_engine_switch;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let limit = if !quick then 300 else 2000 in
  let quota = Time.second (if !quick then 0.1 else 0.5) in
  let kde = if !quick then None else Some 1000 in
  let cfg = Benchmark.cfg ~limit ~quota ~kde () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "%-48s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "%-48s (no estimate)\n%!" name)
        results)
    tests

let all () =
  print_endline "== Micro-benchmarks (Bechamel, host-level ns/op) ==";
  benchmark ()
