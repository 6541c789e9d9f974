(* Smoke test of the repository benchmark: every workload at 1/50 of its
   run length, in process. *)

open Perf_bench

let scale = 50
let seed = 7

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Every applicable end-to-end metric is printed on a row of its own,
   with its unit, and two in-process runs agree on the fingerprint. *)
let end_to_end workload () =
  let run () = Runner.measure ~workload ~seed ~traced:false ~scale in
  let a = run () and b = run () in
  Alcotest.(check (option string)) "no error" None a.Runner.error;
  Alcotest.(check string) "fingerprint repeats" a.Runner.fingerprint b.Runner.fingerprint;
  let o = Runner.outcome ~workload ~seed ~untraced:[ a; b ] ~traced:[] in
  Alcotest.(check (list string)) "no failures" [] o.Runner.failures;
  let table = Runner.end_to_end_table o in
  List.iter
    (fun (m : Catalog.metric) ->
      if Catalog.applies m workload then begin
        let row = Printf.sprintf " %-28s %-9s " m.Catalog.name m.Catalog.unit in
        Alcotest.(check bool) ("row for " ^ m.Catalog.name) true (contains table row);
        if m.Catalog.name <> "fail_rate" then
          Alcotest.(check bool) ("value for " ^ m.Catalog.name) true
            (List.mem_assoc m.Catalog.name a.Runner.e2e)
      end)
    Catalog.end_to_end

(* The traced run reports every per-layer metric that applies, the same
   fingerprint as the untraced run, and layer shares summing to 100%. *)
let traced workload () =
  let untraced = Runner.measure ~workload ~seed ~traced:false ~scale in
  let traced = Runner.measure ~workload ~seed ~traced:true ~scale in
  Alcotest.(check string) "tracing does not perturb" untraced.Runner.fingerprint
    traced.Runner.fingerprint;
  let layer = Runner.per_layer ~workload ~untraced:[ untraced ] ~traced:[ traced ] in
  List.iter
    (fun (m : Catalog.metric) ->
      Alcotest.(check bool) ("has " ^ m.Catalog.name)
        (Catalog.applies m workload) (List.mem_assoc m.Catalog.name layer))
    Catalog.per_layer;
  if List.assoc "host.samples" layer > 0. then begin
    let share l = List.assoc ("self_pct." ^ l) layer in
    let total = List.fold_left (fun acc l -> acc +. share l) 0. (Layers.layers @ [ "bench"; "other" ]) in
    Alcotest.(check (float 1e-6)) "layer shares sum to 100" 100. total
  end

let sampler_mapping () =
  let keys file = Layers.keys (Layers.classify file) in
  Alcotest.(check (list string)) "gobj" [ "heap"; "heap.gobj" ] (keys "lib/heap/gobj.ml");
  Alcotest.(check (list string)) "cold module" [ "heap" ] (keys "lib/heap/costs.ml");
  Alcotest.(check (list string)) "core" [ "core"; "core.old" ] (keys "lib/core/old.ml");
  Alcotest.(check (list string)) "bench" [ "bench" ] (keys "bench/perf/ledger.ml");
  Alcotest.(check (list string)) "stdlib" [ "other" ] (keys "hashtbl.ml");
  (* The handler's own frame and stdlib frames are skipped. *)
  Alcotest.(check (list string)) "innermost layer frame" [ "heap"; "heap.gobj" ]
    (Layers.keys
       (Sampler.attribute [ Sampler.self_file; "hashtbl.ml"; "lib/heap/gobj.ml"; "lib/sim/engine.ml" ]))

(* Synthetic baselines moved by multiples of each metric's bound. *)
let compare_verdicts () =
  let v name a b = Compare.verdict_string (Compare.verdict (Catalog.find name) a b) in
  let base = [ 100.; 101.; 102. ] in
  let moved name k =
    let bound = (Catalog.find name).Catalog.bound in
    List.map (fun x -> x *. (1. +. (k *. bound))) base
  in
  let wall = (Catalog.find "wall_s").Catalog.bound in
  Alcotest.(check string) "same" "same" (v "wall_s" base (moved "wall_s" 0.3));
  Alcotest.(check string) "worse" "worse" (v "wall_s" base (moved "wall_s" 1.5));
  Alcotest.(check string) "better" "better" (v "wall_s" base (moved "wall_s" (-1.5)));
  Alcotest.(check string) "higher is better" "better"
    (v "sim_ms_per_host_s" base (moved "sim_ms_per_host_s" 1.5));
  Alcotest.(check string) "unresolved" "unresolved"
    (v "wall_s" base [ 100. *. (1. -. wall); 100.; 100. *. (1. +. wall) ]);
  Alcotest.(check string) "wide but all better" "better" (v "wall_s" base [ 50.; 70.; 95. ]);
  Alcotest.(check string) "exact same" "same" (v "sim_throughput_rps" [ 5.; 5. ] [ 5.; 5. ]);
  Alcotest.(check string) "exact worse" "worse"
    (v "sim_throughput_rps" [ 5.; 5. ] [ 4.999; 4.999 ])

let quartiles () =
  (* Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) *)
  let q1, q3 = Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3

(* BENCHMARK.json lists exactly the metrics and workloads defined here. *)
let benchmark_json () =
  let j = Json.of_file "../../../BENCHMARK.json" in
  let field k = Option.get (Json.member k j) in
  let names k = List.map (fun e -> Json.str (Option.get (Json.member "name" e))) (Json.list (field k)) in
  Alcotest.(check (list string)) "workloads" Workloads.names (names "workloads");
  let listed k metrics =
    Alcotest.(check (list string)) k (List.map (fun (m : Catalog.metric) -> m.Catalog.name) metrics) (names k);
    List.iter2
      (fun (m : Catalog.metric) e ->
        let get key = Json.str (Option.get (Json.member key e)) in
        Alcotest.(check string) (m.Catalog.name ^ " unit") m.Catalog.unit (get "unit");
        Alcotest.(check string) (m.Catalog.name ^ " better") (Catalog.better_string m.Catalog.better) (get "better");
        match Json.member "bound" e with
        | Some b -> Alcotest.(check (float 1e-12)) (m.Catalog.name ^ " bound") m.Catalog.bound (Json.num b)
        | None -> ())
      metrics (Json.list (field k))
  in
  listed "end_to_end" Catalog.json_end_to_end;
  listed "per_layer" Catalog.json_per_layer

let () =
  let per_workload f = List.map (fun w -> Alcotest.test_case w `Quick (f w)) Workloads.names in
  Alcotest.run "perf"
    [
      ("end-to-end", per_workload end_to_end);
      ("traced", per_workload traced);
      ( "units",
        [
          Alcotest.test_case "sampler maps frames to layers" `Quick sampler_mapping;
          Alcotest.test_case "compare verdicts" `Quick compare_verdicts;
          Alcotest.test_case "python quartiles" `Quick quartiles;
          Alcotest.test_case "BENCHMARK.json matches" `Quick benchmark_json;
        ] );
    ]
