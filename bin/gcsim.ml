(** gcsim: run any collector x workload x heap configuration from the
    command line.

    {v
    gcsim run --collector jade --workload h2-tpcc --heap-mult 2.0
    gcsim run -c zgc -w specjbb2015 --qps 20000 --duration 1.5
    gcsim trace -c jade -w avrora --out trace.json
    gcsim check -c jade -w avrora -m 1.5 --requests 400 --schedules 64 --depth 8
    gcsim check --replay failure.sched
    gcsim list
    v} *)

open Cmdliner
open Experiments

(* '-j 0' means "pick for me". *)
let resolve_jobs jobs = if jobs = 0 then Util.Dpool.default_jobs () else jobs

(* -- argument checks --------------------------------------------------- *)

(* Each check returns the value or says what its flag accepts.  The
   flags read through them (see [checked] below), so a bad value is a
   usage error naming the flag; [check --replay] applies the same checks
   to a replay file's metadata. *)

let ( let* ) = Result.bind

let any_int s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "invalid value %S, want an integer" s)

let int_at_least lo s =
  let* n = any_int s in
  if n >= lo then Ok n
  else Error (Printf.sprintf "invalid value %S, want an integer >= %d" s lo)

let positive_float s =
  match float_of_string_opt s with
  | Some x when x > 0. && Float.is_finite x -> Ok x
  | _ -> Error (Printf.sprintf "invalid value %S, want a number > 0" s)

let non_negative_float s =
  match float_of_string_opt s with
  | Some x when x >= 0. && Float.is_finite x -> Ok x
  | _ -> Error (Printf.sprintf "invalid value %S, want a finite number >= 0" s)

let one_of what names s =
  if List.mem s names then Ok s
  else
    Error
      (Printf.sprintf "unknown %s %S (known: %s)" what s
         (String.concat ", " names))

(* A check from a library's own [of_string], aliases included. *)
let parsed_by of_string ~want s =
  match of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "invalid value %S, want %s" s want)

let strategy_want = "rand, bounded or pruned"

let collector_name =
  one_of "collector" (List.map (fun e -> e.Registry.name) Registry.all)

let workload_name =
  one_of "workload"
    (List.map (fun (a : Workload.Apps.t) -> a.Workload.Apps.name)
       Workload.Apps.all)

(* A comma-separated list for {!Registry.find_list}, e.g. "jade,g1,zgc". *)
let collector_list s =
  match
    List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s))
  with
  | [] -> Error "want at least one collector name"
  | names ->
      List.fold_left
        (fun acc n ->
          let* s = acc in
          Result.map (fun _ -> s) (collector_name n))
        (Ok s) names

(* A run of [app] at [heap_mult] on [machine] must be one the simulator
   can build, checked here, before any simulation, so a failure is a
   usage error naming the flag: the heap must hold the live set (a
   smaller one only stalls), [Harness.prepare]'s heap must be one
   [Heap_impl.create] accepts, and its regions must hold the workload's
   largest object. *)
let machine_ok (app : Workload.Apps.t) ~heap_mult (machine : Harness.machine) =
  let live = app.Workload.Apps.spec.Workload.Spec.live_bytes in
  let* () =
    if machine.Harness.heap_bytes >= live then Ok ()
    else
      Error
        (Printf.sprintf
           "option '--heap-mult': %g gives a %s heap, smaller than the live \
            set of %s (%s)"
           heap_mult
           (Util.Units.pp_bytes machine.Harness.heap_bytes)
           app.Workload.Apps.name (Util.Units.pp_bytes live))
  in
  let cfg = Harness.heap_config machine in
  let region = Util.Units.pp_bytes cfg.Heap.Heap_impl.region_bytes in
  match Heap.Heap_impl.layout_error cfg with
  | Some (`Regions, why) ->
      Error
        (Printf.sprintf "option '--heap-mult': %g with %s regions: %s" heap_mult
           region why)
  | Some (`Region_bytes, why) -> Error ("option '--region-kib': " ^ why)
  | None ->
      let largest = Workload.Spec.largest_object app.Workload.Apps.spec in
      if largest <= cfg.Heap.Heap_impl.region_bytes then Ok ()
      else
        Error
          (Printf.sprintf
             "option '--region-kib': %s regions cannot hold the largest \
              object of %s (%s)"
             region app.Workload.Apps.name (Util.Units.pp_bytes largest))

(* The machine [run] and [check] build from their flags, once checked. *)
let checked_machine app ~heap_mult ~cores ~seed ~region_kib =
  let machine =
    {
      (Exp.machine_for ~cores app ~mult:heap_mult) with
      Harness.seed;
      region_bytes = region_kib * Util.Units.kib;
    }
  in
  Result.map (fun () -> machine) (machine_ok app ~heap_mult machine)

(* An output file the run will write: its directory must exist, so a
   bad path fails before the simulation rather than after it. *)
let writable ~flag = function
  | None -> Ok ()
  | Some path ->
      let dir = Filename.dirname path in
      let fail why =
        Error (Printf.sprintf "option '%s': cannot write %s: %s" flag path why)
      in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        fail ("no directory " ^ dir)
      else if Sys.file_exists path && Sys.is_directory path then
        fail "it is a directory"
      else Ok ()

(* A run the sanitizer cut short prints its report instead of its
   numbers and exits 1, the code [check] gives a violation. *)
let print_violation r =
  Printf.printf "INVARIANT VIOLATED:\n%s\n" (Analysis.Report.to_string r);
  1

(* Print one finished run.  Must stay out of the domain pool: parallel
   runs compute summaries silently and print here, in list order. *)
let print_summary ~gc_report (s : Harness.summary) =
  let pt = Util.Units.pp_time_ns in
  Printf.printf "throughput      : %.0f req/s (%d completed)\n"
    s.Harness.throughput s.Harness.completed;
  Printf.printf "latency p50/p99/p99.9/max : %s / %s / %s / %s\n"
    (pt s.Harness.p50_latency) (pt s.Harness.p99_latency)
    (pt s.Harness.p999_latency) (pt s.Harness.max_latency);
  Printf.printf "pauses          : %d, cumulative %s, avg %s, p99 %s, max %s\n"
    s.Harness.pause_count
    (pt s.Harness.cumulative_pause)
    (pt s.Harness.avg_pause) (pt s.Harness.p99_pause) (pt s.Harness.max_pause);
  Printf.printf "alloc stalls    : %s cumulative\n" (pt s.Harness.cumulative_stall);
  Printf.printf "cpu             : mutator %s, gc %s, utilization %.0f%%\n"
    (pt s.Harness.cpu_mutator) (pt s.Harness.cpu_gc)
    (100. *. s.Harness.cpu_utilization);
  if gc_report then print_string (Harness.gc_report s);
  match s.Harness.oom with
  | Some why ->
      Printf.printf "OUT OF MEMORY   : %s\n" why;
      3
  | None -> 0

let run_cmd collectors workload heap_mult qps duration_s warmup_s cores seed
    region_kib gc_report verify jobs =
  let app = Workload.Apps.find workload in
  match checked_machine app ~heap_mult ~cores ~seed ~region_kib with
  | Error msg -> `Error (false, msg)
  | Ok machine ->
      let jobs = resolve_jobs jobs in
      let entries = Registry.find_list collectors in
      let mode =
        match qps with
        | Some q -> Runtime.Driver.Open q
        | None -> Runtime.Driver.Closed
      in
      let duration = int_of_float (duration_s *. 1e9) in
      let warmup = int_of_float (warmup_s *. 1e9) in
      (* The banner never mentions jobs: run output, like check output, is
         byte-identical at any -j. *)
      Printf.printf
        "collector%s=%s workload=%s heap=%s (%.2fx min) cores=%d region=%dKiB %s\n%!"
        (if List.length entries > 1 then "s" else "")
        (String.concat "," (List.map (fun e -> e.Registry.name) entries))
        workload
        (Util.Units.pp_bytes machine.Harness.heap_bytes)
        heap_mult cores region_kib
        (match mode with
        | Runtime.Driver.Open q -> Printf.sprintf "open loop @ %.0f qps" q
        | _ -> "closed loop");
      (if verify <> Analysis.Sanitizer.Off then
         Printf.printf "sanitizer       : %s (%s + race detector)\n%!"
           (Analysis.Sanitizer.level_to_string verify)
           (if verify = Analysis.Sanitizer.Full then "invariant verifier"
            else "accounting checks"));
      (* One (collector x config) cell per pool task; summaries come back
         in collector order and print identically at any -j. *)
      let summaries =
        Util.Dpool.map_list ~jobs
          (fun (e : Registry.entry) ->
            Harness.run ~machine ~verify ~warmup ~duration ~mode
              ~install:e.Registry.install ~collector:e.Registry.name app)
          entries
      in
      let multi = List.length entries > 1 in
      `Ok
        (List.fold_left
           (fun code (s : Harness.summary) ->
             if multi then Printf.printf "-- %s --\n" s.Harness.collector;
             max code
               (match s.Harness.violation with
               | Some r -> print_violation r
               | None -> print_summary ~gc_report s))
           0 summaries)

(* -- gcsim trace: deterministic timeline + MMU/percentile summary ----- *)

(* For multi-collector fan-out, each collector's file gets the collector
   name spliced in before the extension: trace.json -> trace-jade.json. *)
let per_collector_path path name ~multi =
  if not multi then path
  else
    match Filename.extension path with
    | "" -> path ^ "-" ^ name
    | ext -> Filename.remove_extension path ^ "-" ^ name ^ ext

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let trace_cmd collectors workload heap_mult cores seed requests out golden
    verify jobs =
  let app = Workload.Apps.find workload in
  match
    let* () =
      machine_ok app ~heap_mult
        (Trace_run.machine_for ~cores ~mult:heap_mult ~seed app)
    in
    let* () = writable ~flag:"--out" out in
    writable ~flag:"--golden" golden
  with
  | Error msg -> `Error (false, msg)
  | Ok () ->
      let jobs = resolve_jobs jobs in
      let entries = Registry.find_list collectors in
      let multi = List.length entries > 1 in
      (* The banner never mentions jobs or output paths: like run/check, the
         simulated results are byte-identical at any -j. *)
      Printf.printf
        "trace collector%s=%s workload=%s heap-mult=%.2f cores=%d seed=%d \
         requests=%d\n%!"
        (if multi then "s" else "")
        (String.concat "," (List.map (fun e -> e.Registry.name) entries))
        workload heap_mult cores seed requests;
      (* Simulations run in the pool; all file writes and printing happen
         here afterwards, in collector order. *)
      let results =
        Util.Dpool.map_list ~jobs
          (fun (e : Registry.entry) ->
            Trace_run.run ~verify ~cores ~mult:heap_mult ~seed ~requests e app)
          entries
      in
      let code = ref 0 in
      let rows =
        List.concat_map
          (fun ((e : Registry.entry), (r : Trace_run.result)) ->
            match r.Trace_run.summary.Harness.violation with
            | Some v ->
                if multi then Printf.printf "-- %s --\n" e.Registry.name;
                code := print_violation v;
                []
            | None ->
                let meta = Trace_run.meta ~cores ~mult:heap_mult ~seed ~requests r in
                (match out with
                | Some path ->
                    let path = per_collector_path path e.Registry.name ~multi in
                    write_file path
                      (Obs.Export.to_chrome_json ~meta r.Trace_run.trace);
                    Printf.printf "chrome trace written: %s (%d events)\n" path
                      (Obs.Trace.length r.Trace_run.trace)
                | None -> ());
                (match golden with
                | Some path ->
                    let path = per_collector_path path e.Registry.name ~multi in
                    write_file path (Obs.Export.to_text ~meta r.Trace_run.trace);
                    Printf.printf "golden trace written: %s\n" path
                | None -> ());
                [ ( e.Registry.name,
                    Obs.Analyze.analyze (Obs.Trace.events r.Trace_run.trace) ) ])
          (List.combine entries results)
      in
      if rows <> [] then print_endline (Obs.Export.summary_table rows);
      `Ok !code

(* -- gcsim check: schedule-space exploration -------------------------- *)

let bugs =
  Jade.Jade_config.
    [
      ("none", No_bug);
      ("skip-remset", Skip_remset_insert);
      ("racy-forwarding", Racy_forwarding);
      ("racy-forwarding-window", Racy_forwarding_window);
    ]

let bug_to_string b = fst (List.find (fun (_, b') -> b' = b) bugs)

let bug_of_string s =
  Result.map (fun s -> List.assoc s bugs) (one_of "bug" (List.map fst bugs) s)

(** Rebuild the exact scenario a check run (or a replay file) names. *)
let check_scenario ~collector ~workload ~heap_mult ~cores ~seed ~region_kib
    ~requests ~bug =
  let* entry =
    match bug with
    | Jade.Jade_config.No_bug -> Ok (Registry.find collector)
    | b when collector = "jade" ->
        (* Two young workers: the racy-forwarding bugs need a second
           evacuation thread to race with (default is 1). *)
        Ok
          (Registry.jade_with ~name:"jade(planted)"
             { Jade.Jade_config.default with planted_bug = b; young_workers = 2 })
    | _ -> Error "--bug requires --collector jade"
  in
  let app = Workload.Apps.find workload in
  let* machine = checked_machine app ~heap_mult ~cores ~seed ~region_kib in
  Ok (Harness.check_scenario ~machine ?requests ~install:entry.Registry.install app)

let check_meta ~collector ~workload ~heap_mult ~cores ~seed ~region_kib
    ~requests ~bug ~strategy =
  [
    ("collector", collector);
    ("workload", workload);
    ("heap-mult", string_of_float heap_mult);
    ("cores", string_of_int cores);
    ("seed", string_of_int seed);
    ("region-kib", string_of_int region_kib);
    ("requests",
     match requests with Some n -> string_of_int n | None -> "default");
    ("bug", bug_to_string bug);
    ("strategy", Analysis.Explore.strategy_to_string strategy);
  ]

(* Replay mode: the file's meta rebuilds the scenario; CLI flags fill
   any keys an older file lacks.  Each value passes the check its flag
   does, so a bad file is a usage error naming the file and the key. *)
let replay_cmd path ~collector ~workload ~heap_mult ~cores ~seed ~region_kib
    ~requests ~bug =
  let in_file r = Result.map_error (Printf.sprintf "--replay %s: %s" path) r in
  let* sched =
    in_file
      (match Analysis.Schedule.load path with
      | sched -> Ok sched
      | exception (Analysis.Schedule.Parse_error why | Sys_error why) ->
          Error why)
  in
  let meta key parse fallback =
    match Analysis.Schedule.find_meta sched key with
    | None -> Ok fallback
    | Some v ->
        in_file (Result.map_error (Printf.sprintf "--%s %s" key) (parse v))
  in
  let* collector = meta "collector" collector_name collector in
  let* workload = meta "workload" workload_name workload in
  let* heap_mult = meta "heap-mult" positive_float heap_mult in
  let* cores = meta "cores" (int_at_least 1) cores in
  let* seed = meta "seed" any_int seed in
  let* region_kib = meta "region-kib" (int_at_least 1) region_kib in
  let* requests =
    meta "requests"
      (function
        | "default" -> Ok requests
        | v -> Result.map Option.some (int_at_least 1 v))
      requests
  in
  let* bug = meta "bug" bug_of_string bug in
  (* Exploration keys do not shape a replay, but a file that carries one
     must still hold a value its flag accepts. *)
  let* _ =
    meta "strategy"
      (parsed_by Analysis.Explore.strategy_of_string ~want:strategy_want)
      Analysis.Explore.Rand
  in
  let* _ = meta "schedules" (int_at_least 1) 1 in
  let* _ = meta "depth" (int_at_least 1) 1 in
  let* scenario =
    in_file
      (check_scenario ~collector ~workload ~heap_mult ~cores ~seed ~region_kib
         ~requests ~bug)
  in
  Printf.printf "replaying %s: %s on %s, %s\n%!" path collector workload
    (Analysis.Schedule.describe sched.Analysis.Schedule.choices);
  match Analysis.Explore.replay scenario sched.Analysis.Schedule.choices with
  | Some report ->
      Printf.printf "violation reproduced:\n%s\n" (Analysis.Report.to_string report);
      Ok 1
  | None ->
      Printf.printf "replay completed with no violation\n";
      Ok 0

let check_cmd collector workload heap_mult cores seed region_kib requests
    schedules depth strategy bug replay_file replay_out jobs =
  let jobs = resolve_jobs jobs in
  let result =
    match replay_file with
    | Some path ->
        replay_cmd path ~collector ~workload ~heap_mult ~cores ~seed
          ~region_kib ~requests ~bug
    | None ->
        let* scenario =
          check_scenario ~collector ~workload ~heap_mult ~cores ~seed
            ~region_kib ~requests ~bug
        in
        let* () = writable ~flag:"--replay-out" replay_out in
        let cfg =
          { Analysis.Explore.strategy; schedules; depth; seed; jobs }
        in
        (* The banner and report never mention jobs: `check -j N` output is
           byte-identical to `-j 1` (scripts/ci.sh diffs the two). *)
        Printf.printf
          "checking %s on %s: strategy=%s schedules=%d depth=%d seed=%d%s\n%!"
          collector workload
          (Analysis.Explore.strategy_to_string strategy)
          schedules depth seed
          (if bug = Jade.Jade_config.No_bug then ""
           else " bug=" ^ bug_to_string bug);
        let r = Analysis.Explore.run scenario cfg in
        Printf.printf
          "explored %d schedule%s (%d choice points in baseline, %d pruned as \
           equivalent, %d shrink runs)\n"
          r.Analysis.Explore.explored
          (if r.Analysis.Explore.explored = 1 then "" else "s")
          r.Analysis.Explore.baseline_choice_points r.Analysis.Explore.pruned
          r.Analysis.Explore.shrink_runs;
        (* Simulated state that no oracle checks (a leak between
           recycled heaps, say) still shows here, and so in the -j
           fences of scripts/ci.sh. *)
        Printf.printf "end-state digest of explored schedules: %s\n"
          r.Analysis.Explore.end_digest;
        Ok
          (match r.Analysis.Explore.violation with
          | None ->
              Printf.printf "no violation found\n";
              0
          | Some v ->
              Printf.printf "VIOLATION (as found, %s):\n%s\n"
                (Analysis.Schedule.describe v.Analysis.Explore.first_schedule)
                (Analysis.Report.to_string v.Analysis.Explore.first_report);
              Printf.printf "minimized: %s\n"
                (Analysis.Schedule.describe v.Analysis.Explore.schedule);
              (match replay_out with
              | Some path ->
                  Analysis.Schedule.save path
                    {
                      Analysis.Schedule.meta =
                        check_meta ~collector ~workload ~heap_mult ~cores ~seed
                          ~region_kib ~requests ~bug ~strategy;
                      choices = v.Analysis.Explore.schedule;
                    };
                  Printf.printf
                    "replay file written: %s (gcsim check --replay %s)\n" path
                    path
              | None -> ());
              1)
  in
  match result with Ok code -> `Ok code | Error msg -> `Error (false, msg)

let list_cmd () =
  print_endline "collectors:";
  List.iter
    (fun e ->
      Printf.printf "  %-12s %s\n" e.Registry.name
        (if e.Registry.concurrent_copy then "(concurrent evacuation)"
         else "(STW evacuation)"))
    Registry.all;
  print_endline "workloads:";
  List.iter
    (fun (a : Workload.Apps.t) ->
      Printf.printf "  %-14s live set %s, %d mutators\n" a.Workload.Apps.name
        (Util.Units.pp_bytes a.Workload.Apps.spec.Workload.Spec.live_bytes)
        a.Workload.Apps.spec.Workload.Spec.mutators)
    Workload.Apps.all;
  0

(* -- cmdliner plumbing ------------------------------------------------ *)

(* A flag's converter from one of the checks above: cmdliner reports a
   failed check as "option '--FLAG': ..." and exits 124. *)
let checked check print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (check s)), print)

let count lo = checked (int_at_least lo) Format.pp_print_int
let positive = checked positive_float Format.pp_print_float
let non_negative = checked non_negative_float Format.pp_print_float
let name check = checked check Format.pp_print_string

(* A converter from a library's own [of_string], aliases included. *)
let parsed of_string to_string ~want =
  checked (parsed_by of_string ~want) (fun ppf v ->
      Format.pp_print_string ppf (to_string v))

let collectors_arg =
  Arg.(
    value
    & opt (name collector_list) "jade"
    & info [ "c"; "collector" ] ~docv:"NAME"
        ~doc:
          "Collector to run, or a comma-separated list (e.g. \
           $(b,-c jade,g1,zgc)): each collector is one independent \
           simulation, fanned over $(b,--jobs) domains, with results \
           printed in list order.")

let collector_arg =
  Arg.(
    value
    & opt (name collector_name) "jade"
    & info [ "c"; "collector" ] ~docv:"NAME" ~doc:"Collector to check.")

let jobs_arg =
  Arg.(
    value & opt (count 0) 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains to fan independent simulations over ($(b,0) = auto).  \
           Output is byte-identical at any $(docv): results are folded \
           back in task order, and every simulation owns a fresh \
           engine/heap/PRNG, so parallelism only changes wall-clock.")

let workload_arg =
  Arg.(
    value
    & opt (name workload_name) "h2-tpcc"
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to run.")

let heap_mult_arg =
  Arg.(
    value & opt positive 4.0
    & info [ "m"; "heap-mult" ] ~docv:"X"
        ~doc:"Heap size as a multiple of the workload's minimum heap.")

let qps_arg =
  Arg.(
    value
    & opt (some positive) None
    & info [ "qps" ] ~docv:"QPS"
        ~doc:"Offered load (open loop); omit for closed-loop peak throughput.")

let duration_arg =
  Arg.(
    value & opt positive 1.0
    & info [ "d"; "duration" ] ~docv:"SECONDS"
        ~doc:"Measured window in virtual seconds.")

let warmup_arg =
  Arg.(
    value & opt non_negative 0.25
    & info [ "warmup" ] ~docv:"SECONDS" ~doc:"Warmup in virtual seconds.")

let cores_arg =
  Arg.(value & opt (count 1) 8 & info [ "cores" ] ~docv:"N" ~doc:"Virtual cores.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let region_arg =
  Arg.(
    value & opt (count 1) 512
    & info [ "region-kib" ] ~docv:"KIB" ~doc:"Region size in KiB.")

let gc_report_arg =
  Arg.(
    value & flag
    & info [ "gc-report" ] ~doc:"Print per-phase GC timings and counters.")

let verify_arg =
  Arg.(
    value
    & opt ~vopt:Analysis.Sanitizer.Full
        (parsed Analysis.Sanitizer.level_of_string
           Analysis.Sanitizer.level_to_string ~want:"off, fast or full")
        Analysis.Sanitizer.Off
    & info [ "verify" ] ~docv:"LEVEL"
        ~doc:
          "Run the GC invariant sanitizer: $(b,off) (default), $(b,fast) \
           (accounting checks at phase boundaries + happens-before race \
           detector) or $(b,full) (heap verifier + race detector).  \
           $(b,--verify) alone means $(b,full).  A violation prints the \
           report and exits 1; simulated metrics are unaffected at any \
           level.")

let requests_arg =
  Arg.(
    value
    & opt (some (count 1)) None
    & info [ "requests" ] ~docv:"N"
        ~doc:
          "Fixed requests per explored schedule (default: the workload's \
           DaCapo request count).  Keep this small: every schedule re-runs \
           the whole simulation.")

let schedules_arg =
  Arg.(
    value & opt (count 1) 64
    & info [ "schedules" ] ~docv:"N"
        ~doc:"Exploration budget: maximum schedules to run.")

let depth_arg =
  Arg.(
    value & opt (count 1) 8
    & info [ "depth" ] ~docv:"K"
        ~doc:
          "Search depth: choice-point horizon for $(b,bounded)/$(b,pruned), \
           forced preemption points per schedule for $(b,rand).")

let strategy_arg =
  Arg.(
    value
    & opt
        (parsed Analysis.Explore.strategy_of_string
           Analysis.Explore.strategy_to_string ~want:strategy_want)
        Analysis.Explore.Rand
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "Exploration strategy: $(b,rand) (seeded random walk), \
           $(b,bounded) (exhaustive over the first K choice points) or \
           $(b,pruned) (bounded + footprint-equivalence pruning).")

let bug_arg =
  Arg.(
    value
    & opt (enum bugs) Jade.Jade_config.No_bug
    & info [ "bug" ] ~docv:"NAME"
        ~doc:
          "Plant a known protocol bug (jade only): $(b,skip-remset), \
           $(b,racy-forwarding) or $(b,racy-forwarding-window).  \
           Self-check that the explorer finds what it should.")

let replay_arg =
  Arg.(
    value & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a schedule file written by a previous check instead of \
           exploring; the file's metadata rebuilds the scenario.")

let replay_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay-out" ] ~docv:"FILE"
        ~doc:"Where to write the minimized replay file on violation.")

let check_term =
  Term.(
    ret
      (const check_cmd $ collector_arg $ workload_arg $ heap_mult_arg
     $ cores_arg $ seed_arg $ region_arg $ requests_arg $ schedules_arg
     $ depth_arg $ strategy_arg $ bug_arg $ replay_arg $ replay_out_arg
     $ jobs_arg))

let check_info =
  Cmd.info "check"
    ~doc:
      "Model-check scheduling interleavings: re-run one configuration under \
       many schedules with the invariant verifier and race detector \
       attached, shrink any violating schedule, and emit a replay file."

(* `trace` defaults mirror the golden-trace scenario in test/test_obs.ml:
   lusearch (allocation-extreme, so every collector shows GC activity in
   a short run), 4 cores, 1.5x heap, seed 42, 600 requests.  Running
   plain `gcsim trace -c NAME --golden test/golden/NAME.trace` therefore
   regenerates the committed golden file byte-for-byte. *)
let trace_workload_arg =
  Arg.(
    value
    & opt (name workload_name) "lusearch"
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to trace.")

let trace_heap_mult_arg =
  Arg.(
    value & opt positive 1.5
    & info [ "m"; "heap-mult" ] ~docv:"X"
        ~doc:"Heap size as a multiple of the workload's minimum heap.")

let trace_cores_arg =
  Arg.(value & opt (count 1) 4 & info [ "cores" ] ~docv:"N" ~doc:"Virtual cores.")

let trace_requests_arg =
  Arg.(
    value & opt (count 1) 600
    & info [ "requests" ] ~docv:"N"
        ~doc:"Fixed number of requests to run (fixed-work loop).")

let trace_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:
          "Write the timeline as Chrome trace_event JSON (load it in \
           $(b,chrome://tracing) or $(b,ui.perfetto.dev)).  With several \
           collectors, each gets $(i,FILE)$(b,-NAME)$(i,.ext).")

let trace_golden_arg =
  Arg.(
    value & opt (some string) None
    & info [ "golden" ] ~docv:"FILE"
        ~doc:
          "Write the timeline in the compact line-oriented golden format \
           used by the snapshot tests (test/golden/*.trace).  With several \
           collectors, each gets $(i,FILE)$(b,-NAME)$(i,.ext).")

let trace_term =
  Term.(
    ret
      (const trace_cmd $ collectors_arg $ trace_workload_arg
     $ trace_heap_mult_arg $ trace_cores_arg $ seed_arg $ trace_requests_arg
     $ trace_out_arg $ trace_golden_arg $ verify_arg $ jobs_arg))

let trace_info =
  Cmd.info "trace"
    ~doc:
      "Record a deterministic GC timeline (phases, pauses, regions, \
       evacuation batches, request spans) and print pause percentiles and \
       the MMU curve.  The event stream is byte-identical at any --jobs \
       and across repeat runs with the same seed."

let run_term =
  Term.(
    ret
      (const run_cmd $ collectors_arg $ workload_arg $ heap_mult_arg $ qps_arg
     $ duration_arg $ warmup_arg $ cores_arg $ seed_arg $ region_arg
     $ gc_report_arg $ verify_arg $ jobs_arg))

let run_info =
  Cmd.info "run" ~doc:"Run one collector on one workload and print a summary."

let list_info = Cmd.info "list" ~doc:"List available collectors and workloads."

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let cmd =
    Cmd.group ~default
      (Cmd.info "gcsim" ~version:Jade.Jade_version.version
         ~doc:
           "Deterministic managed-runtime simulator reproducing Jade \
            (EuroSys '24)")
      [
        Cmd.v run_info run_term;
        Cmd.v trace_info trace_term;
        Cmd.v check_info check_term;
        Cmd.v list_info Term.(const list_cmd $ const ());
      ]
  in
  exit (Cmd.eval' cmd)
