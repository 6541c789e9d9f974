(* Observability benchmark: run the canonical golden-trace scenario
   (Experiments.Trace_run.Golden — lusearch, 4 cores, 1.5x heap) for
   every registered collector, print the pause-percentile / MMU summary
   table, and record the rows in BENCH_obs.json.

   The numbers are simulated (virtual time), so they are byte-identical
   across hosts, repeat runs and -j N: this is a results table, not a
   host-speed measurement.  --quick traces the two headline collectors
   (jade, g1) instead of all eight. *)

let write_json ~path ~quick (rows : (string * Obs.Analyze.t) list) =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"obs\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"workload\": \"%s\",\n"
    (Obs.Export.json_escape Experiments.Trace_run.Golden.workload);
  Printf.fprintf oc "  \"cores\": %d,\n" Experiments.Trace_run.Golden.cores;
  Printf.fprintf oc "  \"heap_mult\": %.2f,\n" Experiments.Trace_run.Golden.mult;
  Printf.fprintf oc "  \"seed\": %d,\n" Experiments.Trace_run.Golden.seed;
  Printf.fprintf oc "  \"requests\": %d,\n"
    Experiments.Trace_run.Golden.requests;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i ((name, a) : string * Obs.Analyze.t) ->
      let s = a.Obs.Analyze.stw in
      Printf.fprintf oc
        "    {\"collector\": \"%s\", \"pauses\": %d, \"p50_ns\": %d, \
         \"p95_ns\": %d, \"p99_ns\": %d, \"max_ns\": %d, \
         \"stall_ns\": %d, \"mmu\": ["
        (Obs.Export.json_escape name) s.Obs.Analyze.count s.Obs.Analyze.p50_ns
        s.Obs.Analyze.p95_ns s.Obs.Analyze.p99_ns s.Obs.Analyze.max_ns
        a.Obs.Analyze.stalls.Obs.Analyze.total_ns;
      List.iteri
        (fun j (w, u) ->
          Printf.fprintf oc "%s{\"window_ns\": %d, \"mmu\": %.4f}"
            (if j = 0 then "" else ", ")
            w u)
        a.Obs.Analyze.mmu;
      Printf.fprintf oc "], \"evac_batches\": %d, \"evac_bytes\": %d}%s\n"
        a.Obs.Analyze.evac_batches a.Obs.Analyze.evac_bytes
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let all () =
  let entries =
    if !Bench_options.quick then Experiments.Registry.find_list "jade,g1"
    else Experiments.Registry.all
  in
  let rows =
    Util.Dpool.map_list ~jobs:!Bench_options.jobs
      (fun (e : Experiments.Registry.entry) ->
        let r = Experiments.Trace_run.Golden.run e in
        ( e.Experiments.Registry.name,
          Obs.Analyze.analyze (Obs.Trace.events r.Experiments.Trace_run.trace)
        ))
      entries
  in
  Printf.printf
    "Pause percentiles and MMU, %s x%.1f heap, %d requests, seed %d:\n\n"
    Experiments.Trace_run.Golden.workload Experiments.Trace_run.Golden.mult
    Experiments.Trace_run.Golden.requests Experiments.Trace_run.Golden.seed;
  print_endline (Obs.Export.summary_table rows);
  write_json ~path:"BENCH_obs.json" ~quick:!Bench_options.quick rows;
  Printf.printf "\nwrote BENCH_obs.json\n"
