(* Host-time benchmark of the simulator engine itself: how many virtual
   nanoseconds the simulation advances per host second, across the
   scenarios the event-driven scheduler core optimizes.  Results are
   printed and recorded in BENCH_speed.json so every perf PR leaves a
   measured trajectory behind (scripts/ci.sh runs the quick variant).

   The scenarios isolate the scheduler hot paths:
   - tick-storm      raw [tick] throughput (local in-budget payment)
   - sleeper-wheel   thousands of periodic sleepers (Pqueue wake/peek)
   - idle-jump       an almost-idle machine (next-event clock jumps)
   - card-sweep      dirty-card bitmap scans (word-level iteration)
   - closed-loop     an end-to-end harness run (jade on h2-tpcc)
   - check-rand      schedule-space exploration, sequential and at -j N *)

let quick = ref false

(* Domain count for the parallel check-exploration scenario (bench's
   [-j N] flag).  Defaults to 4 rather than the host core count so
   BENCH_speed.json always carries a -j4 row comparable across hosts. *)
let jobs = ref 4

(* [--baseline FILE]: after measuring, diff against a previous
   BENCH_speed.json and print per-run speedup factors. *)
let baseline : string option ref = ref None

(* [--fail-under R]: exit nonzero when any comparable run's speedup
   factor falls below R (scripts/ci.sh passes 0.5: fail on a >2x
   regression of any sim_ns_per_host_s row). *)
let fail_under : float option ref = ref None

(* [--fail-alloc-over R]: exit nonzero when a closed-loop row's host
   allocation rate (minor words per simulated ns) exceeds R times the
   baseline's.  The rate has a fixed startup component, so it only
   compares between runs of the same duration: quick runs gate against
   the committed BENCH_speed_quick.json, full runs against
   BENCH_speed.json.  scripts/ci.sh passes 1.10: a >10% allocation
   regression on the heap hot path fails CI.  Unlike wall-clock, the
   meter is deterministic for a fixed seed, so the gate can be tight. *)
let fail_alloc_over : float option ref = ref None

let ms = Util.Units.ms

module Engine = Sim.Engine

(* --- scenario bodies: each returns the virtual ns it simulated. ----- *)

(* 2x cores CPU-bound threads ticking sub-quantum costs: the mutator
   fast path.  Dominated by [tick] cost. *)
let tick_storm ~virtual_ns () =
  let e = Engine.create ~cores:8 () in
  for i = 1 to 16 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "storm-%d" i)
         ~kind:Engine.Mutator
         (fun () ->
           while Engine.now e < virtual_ns do
             Engine.tick 120
           done))
  done;
  Engine.run e;
  Engine.now e

(* Many periodic sleepers around one worker: wake/next-event cost.
   Before the Pqueue this paid O(sleepers) list scans every round. *)
let sleeper_wheel ~sleepers ~virtual_ns () =
  let e = Engine.create ~cores:8 () in
  for i = 0 to sleepers - 1 do
    ignore
      (Engine.spawn e ~daemon:true
         ~name:(Printf.sprintf "sleeper-%d" i)
         ~kind:Engine.Aux
         (fun () ->
           let period = 100_000 + (137 * i mod 900_000) in
           while true do
             Engine.sleep e period
           done))
  done;
  ignore
    (Engine.spawn e ~name:"worker" ~kind:Engine.Mutator (fun () ->
         while Engine.now e < virtual_ns do
           Engine.tick 5_000
         done));
  Engine.run e;
  Engine.now e

(* An almost-idle machine: one thread sleeping in long strides.  The
   event-driven core jumps the clock between events instead of stepping
   quantum by quantum. *)
let idle_jump ~virtual_ns () =
  let e = Engine.create ~cores:8 () in
  ignore
    (Engine.spawn e ~name:"heartbeat" ~kind:Engine.Aux (fun () ->
         while Engine.now e < virtual_ns do
           Engine.sleep e (10 * ms);
           Engine.tick 200
         done));
  Engine.run e;
  Engine.now e

(* Dirty-card table sweeps at production sparsity (~1% dirty), the
   pattern behind every remembered-set and card scan. *)
let card_sweep ~sweeps () =
  let nbits = 512 * 1024 in
  let b = Util.Bitset.create nbits in
  let prng = Util.Prng.create 41 in
  for _ = 1 to nbits / 100 do
    ignore (Util.Bitset.set b (Util.Prng.int prng nbits))
  done;
  let hits = ref 0 in
  for _ = 1 to sweeps do
    Util.Bitset.iter_set (fun _ -> incr hits) b
  done;
  (* Report virtual ns as cards visited x the model's card-scan cost so
     the sweep has a sim-time interpretation. *)
  !hits * Heap.Costs.default.Heap.Costs.card_scan

(* End-to-end: a closed-loop harness run of [entry] on h2-tpcc.  Three
   rows (jade, zgc, lxr) cover the three barrier/healing styles, so the
   allocation meter watches every flavor of the heap hot path, not just
   the collector the paper champions. *)
let closed_loop ~entry ~duration () =
  let app = Workload.Apps.h2_tpcc in
  let s =
    Experiments.Harness.run_closed
      ~machine:(Experiments.Exp.machine_for app ~mult:4.0)
      ~warmup:(50 * ms) ~duration
      ~install:entry.Experiments.Registry.install
      ~collector:entry.Experiments.Registry.name app
  in
  (match s.Experiments.Harness.oom with
  | Some why -> Printf.printf "  (closed-loop hit OOM: %s)\n%!" why
  | None -> ());
  s.Experiments.Harness.elapsed

(* Schedule-space exploration throughput: the [gcsim check] hot path,
   once sequentially and once across a Dpool of [jobs] domains.  The
   explored schedule set is byte-identical at any -j (the explorer's
   determinism contract), so sim_ns matches between the two rows and
   the host_s delta is the parallel-speedup datum — about jobs-fold on
   a host with that many idle cores, ~1x on a single-core host. *)
let check_explore ~jobs ~schedules () =
  let entry = Experiments.Registry.jade in
  let app = Workload.Apps.find "avrora" in
  let sim_ns = Atomic.make 0 in
  let scenario =
    Experiments.Harness.check_scenario
      ~machine:(Experiments.Exp.machine_for ~cores:4 app ~mult:4.0)
      ~requests:400
      ~on_run:(fun r ->
        ignore (Atomic.fetch_and_add sim_ns r.Runtime.Driver.elapsed_ns))
      ~install:entry.Experiments.Registry.install app
  in
  let r =
    Analysis.Explore.run scenario
      {
        Analysis.Explore.strategy = Analysis.Explore.Rand;
        schedules;
        depth = 8;
        seed = 1;
        jobs;
      }
  in
  (match r.Analysis.Explore.violation with
  | Some _ -> Printf.printf "  (check scenario found a violation?!)\n%!"
  | None -> ());
  Atomic.get sim_ns

(* Wall-clock of the --quick micro suite (no sim time; host_s is the
   datum).  This is the smoke-path gauge scripts/ci.sh cares about. *)
let quick_micro () =
  let saved = !Bench_micro.quick in
  Bench_micro.quick := true;
  Bench_micro.all ();
  Bench_micro.quick := saved;
  0

(* --- driver. -------------------------------------------------------- *)

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

(* --- provenance: where did these numbers come from? ---------------- *)

let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with _ -> None

let git_rev () =
  match command_line "git rev-parse --short HEAD 2>/dev/null" with
  | Some rev -> (
      match command_line "git status --porcelain 2>/dev/null" with
      | Some _ -> rev ^ "-dirty" (* any output line = uncommitted changes *)
      | None -> rev)
  | None -> "unknown"

let write_json ~path ~quick (speeds : Experiments.Harness.speed list) =
  (* Read the revision before [open_out] truncates [path]: the committed
     baselines are tracked files, so a clean tree would otherwise always
     read as dirty. *)
  let rev = git_rev () in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"speed\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"unix_time\": %.0f,\n" (Unix.time ());
  Printf.fprintf oc "  \"git_rev\": \"%s\",\n" (json_escape rev);
  Printf.fprintf oc "  \"ocaml_version\": \"%s\",\n"
    (json_escape Sys.ocaml_version);
  Printf.fprintf oc "  \"host_cores\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"runs\": [\n";
  List.iteri
    (fun i (s : Experiments.Harness.speed) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"host_s\": %.6f, \"sim_ns\": %d, \
         \"sim_ns_per_host_s\": %.1f, \"minor_words_per_run\": %.0f, \
         \"promoted_words_per_run\": %.0f}%s\n"
        (json_escape s.Experiments.Harness.label)
        s.Experiments.Harness.host_s s.Experiments.Harness.sim_ns
        s.Experiments.Harness.sim_ns_per_host_s
        s.Experiments.Harness.minor_words
        s.Experiments.Harness.promoted_words
        (if i = List.length speeds - 1 then "" else ","))
    speeds;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* --- baseline diff (--baseline FILE). ------------------------------ *)

(* Find [marker] in [line]; index just past it. *)
let after line marker =
  let ml = String.length marker and n = String.length line in
  let rec go i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some (i + ml)
    else go (i + 1)
  in
  go 0

let until line start stops =
  let n = String.length line in
  let rec go i = if i >= n || List.mem line.[i] stops then i else go (i + 1) in
  String.sub line start (go start - start)

(* One parsed baseline row.  [alloc_rate] is minor words per simulated
   ns (absent from baselines written before the meter existed, or rows
   with no sim time); comparable only between runs of the same
   duration — see [fail_alloc_over]. *)
type base_row = {
  b_host_s : float;
  b_rate : float;
  b_alloc_rate : float option;
}

(* Parse the run rows of a BENCH_speed.json this binary wrote.
   Tolerant by construction — a line that is not a run row contributes
   nothing, and pre-meter baselines simply lack allocation columns. *)
let parse_baseline path =
  let rows = ref [] in
  (try
     let ic = open_in path in
     (try
        while true do
          let line = input_line ic in
          match after line "\"name\": \"" with
          | None -> ()
          | Some i -> (
              let name = until line i [ '"' ] in
              let field key =
                match after line (Printf.sprintf "\"%s\": " key) with
                | None -> None
                | Some j -> float_of_string_opt (until line j [ ','; '}' ])
              in
              match (field "host_s", field "sim_ns_per_host_s") with
              | Some h, Some r ->
                  let alloc_rate =
                    match (field "minor_words_per_run", field "sim_ns") with
                    | Some mw, Some sn when sn > 0. -> Some (mw /. sn)
                    | _ -> None
                  in
                  rows :=
                    (name, { b_host_s = h; b_rate = r; b_alloc_rate = alloc_rate })
                    :: !rows
              | _ -> ())
        done
      with End_of_file -> ());
     close_in ic
   with Sys_error e -> Printf.printf "  (baseline unreadable: %s)\n%!" e);
  List.rev !rows

(** Print per-run speedup factors against [path]; false when any
    comparable sim-rate row fell below the [--fail-under] threshold. *)
let diff_against_baseline ~path (speeds : Experiments.Harness.speed list) =
  let base = parse_baseline path in
  if base = [] then begin
    Printf.printf "  (baseline %s: no runs to compare)\n%!" path;
    true
  end
  else begin
    Printf.printf "  vs baseline %s:\n" path;
    let ok = ref true in
    List.iter
      (fun (s : Experiments.Harness.speed) ->
        let label = s.Experiments.Harness.label in
        match List.assoc_opt label base with
        | None -> Printf.printf "    %-28s (not in baseline)\n" label
        | Some b ->
            if s.Experiments.Harness.sim_ns_per_host_s > 0. && b.b_rate > 0.
            then begin
              let speedup = s.Experiments.Harness.sim_ns_per_host_s /. b.b_rate in
              let flag =
                match !fail_under with
                | Some thr when speedup < thr ->
                    ok := false;
                    "  REGRESSED"
                | _ -> ""
              in
              Printf.printf "    %-28s %5.2fx  (%.1f -> %.1f sim-us/host-ms)%s\n"
                label speedup (b.b_rate /. 1e6)
                (s.Experiments.Harness.sim_ns_per_host_s /. 1e6)
                flag;
              (* Allocation gate: compare minor words per simulated ns
                 against a same-duration baseline (quick vs quick, full
                 vs full — the rate's startup component doesn't scale
                 with duration).  Only the closed-loop rows run the
                 heap hot path this meter guards; engine micro-rows
                 churn host memory by design. *)
              match (b.b_alloc_rate, !fail_alloc_over) with
              | Some ba, _
                when ba > 0. && s.Experiments.Harness.sim_ns > 0
                     && String.length label >= 11
                     && String.sub label 0 11 = "closed-loop" ->
                  let cur =
                    s.Experiments.Harness.minor_words
                    /. float_of_int s.Experiments.Harness.sim_ns
                  in
                  let ratio = cur /. ba in
                  let flag =
                    match !fail_alloc_over with
                    | Some thr when ratio > thr ->
                        ok := false;
                        "  ALLOC REGRESSED"
                    | _ -> ""
                  in
                  (* words/sim-ns numerically equals mwords/sim-ms. *)
                  Printf.printf
                    "    %-28s %5.2fx  alloc (%.1f -> %.1f mwords/sim-ms)%s\n"
                    "" ratio ba cur flag
              | _ -> ()
            end
            else if b.b_host_s > 0. then
              (* No sim rate (micro suites): host time ratio, informational
                 only — not gated. *)
              Printf.printf "    %-28s %5.2fx  (host %.3fs -> %.3fs)\n" label
                (b.b_host_s /. s.Experiments.Harness.host_s)
                b.b_host_s s.Experiments.Harness.host_s)
      speeds;
    Printf.printf "%!";
    !ok
  end

let all () =
  print_endline "== Engine speed (simulated ns per host second) ==";
  let q = !quick in
  let scale n = if q then n / 4 else n in
  let measure = Experiments.Harness.measure_speed in
  let speeds =
    [
      measure ~label:"tick-storm"
        (tick_storm ~virtual_ns:(scale (400 * ms)));
      measure ~label:"sleeper-wheel-4k"
        (sleeper_wheel ~sleepers:4_000 ~virtual_ns:(scale (200 * ms)));
      measure ~label:"idle-jump"
        (idle_jump ~virtual_ns:(scale (40_000 * ms)));
      measure ~label:"card-sweep" (card_sweep ~sweeps:(scale 2_000));
      measure ~label:"closed-loop-jade-h2"
        (closed_loop ~entry:Experiments.Registry.jade
           ~duration:(scale (400 * ms)));
      measure ~label:"closed-loop-zgc-h2"
        (closed_loop ~entry:Experiments.Registry.zgc
           ~duration:(scale (400 * ms)));
      measure ~label:"closed-loop-lxr-h2"
        (closed_loop ~entry:Experiments.Registry.lxr
           ~duration:(scale (400 * ms)));
      (let schedules = if q then 32 else 128 in
       measure
         ~label:(Printf.sprintf "check-rand-%d-j1" schedules)
         (check_explore ~jobs:1 ~schedules));
      (let schedules = if q then 32 else 128 in
       measure
         ~label:(Printf.sprintf "check-rand-%d-j%d" schedules !jobs)
         (check_explore ~jobs:!jobs ~schedules));
      measure ~label:"quick-micro-suite" quick_micro;
    ]
  in
  List.iter
    (fun s -> print_endline ("  " ^ Experiments.Harness.pp_speed s))
    speeds;
  (* The two check-rand rows explore the same schedule set, so their
     virtual time must agree exactly; a mismatch is a determinism bug. *)
  (match
     List.filter
       (fun (s : Experiments.Harness.speed) ->
         String.length s.Experiments.Harness.label >= 10
         && String.sub s.Experiments.Harness.label 0 10 = "check-rand")
       speeds
   with
  | [ a; b ]
    when a.Experiments.Harness.sim_ns <> b.Experiments.Harness.sim_ns ->
      Printf.printf
        "  !! check-rand sim_ns differs between -j1 and -j%d (determinism bug)\n%!"
        !jobs
  | _ -> ());
  (* Quick and full runs write separate artifacts: the allocation meter
     has a fixed startup component (heap + workload construction), so
     per-sim-ns rates only compare between runs of the same duration.
     CI's quick smoke gates against the committed quick baseline; the
     full file is the cross-PR trajectory. *)
  let json_path = if q then "BENCH_speed_quick.json" else "BENCH_speed.json" in
  write_json ~path:json_path ~quick:q speeds;
  print_endline ("  -> " ^ json_path);
  match !baseline with
  | None -> ()
  | Some path ->
      if not (diff_against_baseline ~path speeds) then begin
        Printf.printf
          "  !! speed regression beyond --fail-under threshold (vs %s)\n%!" path;
        exit 1
      end
