(* Observability fence: golden-trace snapshots, analyzer properties and
   the determinism contract for lib/obs (DESIGN.md §11).

   - Golden snapshots: each registered collector's trace of the
     canonical scenario (Experiments.Trace_run.Golden — lusearch,
     4 cores, 1.5x heap, seed 42, 600 requests) must match the committed
     test/golden/<collector>.trace byte-for-byte; g1-10ms has none, as
     its trace would repeat g1's.  On mismatch the
     failure names the first divergent event line.  Regenerate with
       GCSIM_BLESS=1 dune runtest
     (or `gcsim trace -c NAME --golden test/golden/NAME.trace`, whose
     defaults are the same scenario) and review the diff like any other
     code change.
   - Determinism fences: same-seed runs are byte-identical, -j 1 and
     -j 4 produce identical streams, and attaching a tracer perturbs no
     simulated metric (the zero-perturbation contract).
   - qcheck properties: per-thread timestamp monotonicity, phase
     begin/end balance, request-span alternation, STW-pause disjointness
     and MMU-envelope monotonicity over randomized scenarios and
     synthetic pause sets. *)

module Tp = Runtime.Tracepoint
module Trace = Obs.Trace
module Analyze = Obs.Analyze
module Export = Obs.Export
module TR = Experiments.Trace_run
module Registry = Experiments.Registry
module Harness = Experiments.Harness

(* ------------------------------------------------------------------ *)
(* Paths: under [dune runtest] the cwd is _build/default/test (the
   golden dir is staged there by the source_tree dep); under a direct
   exec it is the repo root.  Blessing must write to the *source* tree,
   not the build sandbox, so strip the path at _build. *)

let golden_dir =
  if Sys.file_exists "golden" then "golden"
  else Filename.concat "test" "golden"

let source_golden_dir () =
  let cwd = Sys.getcwd () in
  let marker = Filename.dir_sep ^ "_build" ^ Filename.dir_sep in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length cwd then None
    else if String.sub cwd i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
      Filename.concat (String.sub cwd 0 i) (Filename.concat "test" "golden")
  | None -> golden_dir

let blessing () = Sys.getenv_opt "GCSIM_BLESS" = Some "1"

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Scenario runs.  Each golden run is used by several tests (snapshot,
   activity fence, property checks), so memoize per collector.  The
   cache is only touched from the main test thread — the -j fence below
   deliberately bypasses it. *)

let cache : (string, TR.result) Hashtbl.t = Hashtbl.create 8

let golden_run (e : Registry.entry) =
  match Hashtbl.find_opt cache e.Registry.name with
  | Some r -> r
  | None ->
      let r = TR.Golden.run e in
      Hashtbl.add cache e.Registry.name r;
      r

let golden_meta (r : TR.result) =
  TR.meta ~cores:TR.Golden.cores ~mult:TR.Golden.mult ~seed:TR.Golden.seed
    ~requests:TR.Golden.requests r

let golden_text_of (r : TR.result) =
  Export.to_text ~meta:(golden_meta r) r.TR.trace

(* ------------------------------------------------------------------ *)
(* Golden snapshots: one test per registered collector. *)

let test_golden (e : Registry.entry) () =
  let actual = golden_text_of (golden_run e) in
  let file = e.Registry.name ^ ".trace" in
  if blessing () then begin
    let dir = source_golden_dir () in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    write_file (Filename.concat dir file) actual
  end
  else
    let path = Filename.concat golden_dir file in
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf
           "%s is missing — generate it with GCSIM_BLESS=1 dune runtest"
           path)
    else
      match Export.diff_text ~expected:(read_file path) ~actual with
      | None -> ()
      | Some report ->
          Alcotest.fail
            (report
           ^ "\n(to accept the new trace: GCSIM_BLESS=1 dune runtest)")

(* Every golden scenario must actually exercise the collector: a trace
   with no pauses, no cycle structure and no region churn would make the
   snapshot vacuous.  Named phases come from Metrics.phase_begin (the
   concurrent collectors); the purely-STW ones (g1, lxr) mark cycle
   structure with Boundary events instead, so either counts. *)
let test_activity (e : Registry.entry) () =
  let r = golden_run e in
  let pauses = ref 0 and structure = ref 0 and claims = ref 0 in
  Trace.iter
    (fun ev ->
      match ev.Trace.payload with
      | Tp.Pause _ -> incr pauses
      | Tp.Phase_begin _ | Tp.Boundary _ -> incr structure
      | Tp.Region_claim _ -> incr claims
      | _ -> ())
    r.TR.trace;
  Alcotest.(check bool)
    (e.Registry.name ^ " trace shows GC pauses")
    true (!pauses > 0);
  Alcotest.(check bool)
    (e.Registry.name ^ " trace shows cycle structure (phases/boundaries)")
    true (!structure > 0);
  Alcotest.(check bool)
    (e.Registry.name ^ " trace shows region claims")
    true (!claims > 0)

(* ------------------------------------------------------------------ *)
(* The differ itself: first divergent line, 1-based, both versions. *)

let test_differ () =
  Alcotest.(check (option string))
    "identical -> None" None
    (Export.diff_text ~expected:"a\nb\nc\n" ~actual:"a\nb\nc\n");
  (match Export.diff_text ~expected:"a\nb\nc\n" ~actual:"a\nX\nc\n" with
  | None -> Alcotest.fail "divergence not detected"
  | Some report ->
      Alcotest.(check bool)
        "names line 2" true
        (contains ~needle:"line 2" report
        && contains ~needle:"b" report
        && contains ~needle:"X" report));
  match Export.diff_text ~expected:"a" ~actual:"a\nextra" with
  | None -> Alcotest.fail "length divergence not detected"
  | Some report ->
      Alcotest.(check bool)
        "trailing extra line reported" true
        (contains ~needle:"<end of file>" report)

(* ------------------------------------------------------------------ *)
(* Determinism fences. *)

(* Two fresh same-seed runs produce byte-identical streams (the cache is
   bypassed on purpose: this must be two *runs*, not one run read
   twice). *)
let test_same_seed_identical () =
  let e = Registry.find "jade" in
  let a = golden_text_of (TR.Golden.run e) in
  let b = golden_text_of (TR.Golden.run e) in
  match Export.diff_text ~expected:a ~actual:b with
  | None -> ()
  | Some report -> Alcotest.fail ("same-seed runs diverge:\n" ^ report)

(* The full registry traced at -j 1 and -j 4 must produce identical
   streams: each simulation owns a fresh engine/heap/PRNG, so domains
   only change wall-clock. *)
let test_jobs_identical () =
  let trace_all ~jobs =
    Util.Dpool.map_list ~jobs
      (fun (e : Registry.entry) -> golden_text_of (TR.Golden.run e))
      Registry.all
  in
  let seq = trace_all ~jobs:1 and par = trace_all ~jobs:4 in
  List.iter2
    (fun (e : Registry.entry) (a, b) ->
      match Export.diff_text ~expected:a ~actual:b with
      | None -> ()
      | Some report ->
          Alcotest.fail
            (Printf.sprintf "%s: -j1 vs -j4 diverge:\n%s" e.Registry.name
               report))
    Registry.all
    (List.combine seq par)

(* Zero perturbation: attaching a tracer must not move a single
   simulated number.  Fingerprint everything the summary and metrics
   sink record — virtual-time totals, latency and pause percentiles,
   the raw pause stream and the counter table. *)
let fingerprint (s : Harness.summary) =
  let m = s.Harness.metrics in
  let pauses =
    Util.Vec.to_array m.Runtime.Metrics.pauses
    |> Array.map (fun (p : Runtime.Metrics.pause) ->
           (p.Runtime.Metrics.at, p.Runtime.Metrics.dur,
            Runtime.Metrics.pause_kind_to_string p.Runtime.Metrics.kind))
    |> Array.to_list
  in
  let counters =
    Hashtbl.fold
      (fun k v acc -> (k, v) :: acc)
      m.Runtime.Metrics.counters []
    |> List.sort compare
  in
  ( ( s.Harness.completed,
      s.Harness.elapsed,
      s.Harness.throughput,
      s.Harness.p50_latency,
      s.Harness.p99_latency,
      s.Harness.p999_latency,
      s.Harness.max_latency ),
    ( s.Harness.pause_count,
      s.Harness.cumulative_pause,
      s.Harness.max_pause,
      s.Harness.cumulative_stall,
      s.Harness.cpu_mutator,
      s.Harness.cpu_gc,
      s.Harness.oom ),
    pauses,
    counters )

let test_zero_perturbation () =
  let app = Workload.Apps.find TR.Golden.workload in
  List.iter
    (fun name ->
      let e = Registry.find name in
      let machine =
        TR.machine_for ~cores:TR.Golden.cores ~mult:TR.Golden.mult
          ~seed:TR.Golden.seed app
      in
      let untraced =
        Harness.run ~machine ~mode:(Runtime.Driver.Fixed TR.Golden.requests)
          ~install:e.Registry.install ~collector:e.Registry.name app
      in
      let traced = (golden_run e).TR.summary in
      Alcotest.(check bool)
        (name ^ ": traced run's simulated metrics identical to untraced")
        true
        (fingerprint untraced = fingerprint traced))
    [ "jade"; "g1"; "zgc" ]

(* ------------------------------------------------------------------ *)
(* Observer seam: an observer that raises mid-run must abort the run
   loudly, never be swallowed. *)

let test_raising_observer_fails_loudly () =
  let e = Registry.find "jade" in
  let app = Workload.Apps.find TR.Golden.workload in
  let machine =
    TR.machine_for ~cores:TR.Golden.cores ~mult:TR.Golden.mult
      ~seed:TR.Golden.seed app
  in
  let seen = ref 0 in
  let attach rt =
    Runtime.Metrics.set_tracer rt.Runtime.Rt.metrics
      (Some
         (fun _ ->
           incr seen;
           if !seen > 40 then failwith "observer exploded"))
  in
  match
    Harness.run ~machine ~attach ~mode:(Runtime.Driver.Fixed TR.Golden.requests)
      ~install:e.Registry.install ~collector:e.Registry.name app
  with
  | exception Failure msg ->
      Alcotest.(check bool)
        "the observer's own exception surfaces" true
        (contains ~needle:"observer exploded" msg);
      Alcotest.(check bool) "observer did run" true (!seen > 40)
  | _ -> Alcotest.fail "raising observer was silently swallowed"

(* ------------------------------------------------------------------ *)
(* Analyzer unit tests. *)

(* One percentile definition: the same pauses fed to a [Metrics.t] and
   to the analyzer as a trace read the same p99 and max.  The durations
   are not bucket-exact, so a bucketed side and an exact side would
   disagree. *)
let test_one_percentile () =
  let m = Runtime.Metrics.create () in
  let events =
    Array.init 100 (fun i ->
        let dur_ns = (i + 1) * 1_000_003 in
        let start_ns = i * 200_000_000 in
        Runtime.Metrics.record_pause m ~at:start_ns ~dur:dur_ns
          Runtime.Metrics.Young_stw;
        {
          Trace.ts = start_ns + dur_ns;
          tid = 0;
          payload = Tp.Pause { kind = "young-stw"; start_ns; dur_ns };
        })
  in
  let a = Analyze.analyze events in
  Alcotest.(check int) "p99" (Runtime.Metrics.p99_pause m)
    a.Analyze.stw.Analyze.p99_ns;
  Alcotest.(check int) "max" (Runtime.Metrics.max_pause m)
    a.Analyze.stw.Analyze.max_ns;
  Alcotest.(check int) "max is the longest pause" 100_000_300
    a.Analyze.stw.Analyze.max_ns

(* The documented counterexample: raw MMU is NOT monotone in window
   size (two 1 ms pauses at [0,1] and [10,11] ms make an 11 ms window
   worse than a 10 ms one), and the exported envelope is monotone. *)
let ms = 1_000_000

let test_mmu_envelope () =
  let ivs = [ (0, ms); (10 * ms, 11 * ms) ] in
  let raw10 = Analyze.raw_mmu ivs ~lo:0 ~hi:(20 * ms) (10 * ms) in
  let raw11 = Analyze.raw_mmu ivs ~lo:0 ~hi:(20 * ms) (11 * ms) in
  Alcotest.(check bool)
    "raw MMU is non-monotone on the counterexample" true (raw11 < raw10);
  let curve = Analyze.mmu_curve ivs ~lo:0 ~hi:(20 * ms) in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "envelope is monotone" true (monotone curve);
  List.iter
    (fun (_, u) ->
      Alcotest.(check bool) "envelope in [0,1]" true (u >= 0. && u <= 1.))
    curve;
  (* A window spanning the whole trace sees total utilization. *)
  let _, last = List.nth curve (List.length curve - 1) in
  Alcotest.(check (float 1e-9)) "last rung = whole-span utilization" 0.9 last

let test_analyze_window () =
  (* Synthetic stream: one pause during warmup (before Recording on),
     one inside the measurement window — only the second counts. *)
  let mk ts payload = { Trace.ts; tid = 0; payload } in
  let events =
    [|
      mk 100 (Tp.Pause { kind = "young-stw"; start_ns = 50; dur_ns = 50 });
      mk 1_000 (Tp.Recording { on = true });
      mk 5_000 (Tp.Pause { kind = "young-stw"; start_ns = 4_000; dur_ns = 1_000 });
      mk 6_000 (Tp.Pause { kind = "alloc-stall"; start_ns = 5_500; dur_ns = 500 });
      mk 9_000 (Tp.Recording { on = false });
    |]
  in
  let a = Analyze.analyze events in
  Alcotest.(check int) "window start" 1_000 a.Analyze.window_start;
  Alcotest.(check int) "window end" 9_000 a.Analyze.window_end;
  Alcotest.(check int) "warmup pause excluded" 1 a.Analyze.stw.Analyze.count;
  Alcotest.(check int) "stall tracked separately" 1
    a.Analyze.stalls.Analyze.count;
  Alcotest.(check int) "stw p50 is the one pause" 1_000
    a.Analyze.stw.Analyze.p50_ns

let test_chrome_json_shape () =
  let e = Registry.find "jade" in
  let r = golden_run e in
  let json = Export.to_chrome_json ~meta:(golden_meta r) r.TR.trace in
  Alcotest.(check bool)
    "starts with traceEvents" true
    (String.length json > 16
    && String.sub json 0 16 = "{\"traceEvents\":[");
  Alcotest.(check bool)
    "carries scenario metadata" true
    (contains ~needle:"\"collector\":\"jade\"" json);
  Alcotest.(check bool)
    "no negative tids (host track instead)" true
    (not (contains ~needle:"\"tid\":-1" json));
  (* Timestamps are fixed-point microseconds rendered from integers. *)
  Alcotest.(check string) "us formatting" "1.500" (Export.us 1500);
  Alcotest.(check string) "us formatting sub-us" "0.007" (Export.us 7)

(* ------------------------------------------------------------------ *)
(* qcheck properties. *)

(* Small randomized scenarios: full simulated runs, so keep the count
   low and the request budget small. *)
let scenario_arb =
  QCheck.make
    ~print:(fun (c, seed, requests) ->
      Printf.sprintf "collector=%s seed=%d requests=%d" c seed requests)
    QCheck.Gen.(
      triple
        (oneofl [ "jade"; "g1"; "zgc"; "shenandoah"; "lxr"; "genshen" ])
        (int_range 0 9999) (int_range 40 160))

let run_scenario (collector, seed, requests) =
  TR.run ~cores:4 ~mult:1.5 ~seed ~requests (Registry.find collector)
    (Workload.Apps.find TR.Golden.workload)

let prop_count = 8

(* Timestamps are monotone per thread (the engine clock includes the
   running thread's intra-quantum progress, so only per-thread order is
   guaranteed). *)
let prop_per_thread_monotone =
  QCheck.Test.make ~count:prop_count ~name:"trace: per-thread ts monotone"
    scenario_arb (fun sc ->
      let r = run_scenario sc in
      let last : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      Trace.iter
        (fun ev ->
          (match Hashtbl.find_opt last ev.Trace.tid with
          | Some t when ev.Trace.ts < t -> ok := false
          | _ -> ());
          Hashtbl.replace last ev.Trace.tid ev.Trace.ts)
        r.TR.trace;
      !ok)

(* Phase begin/end are balanced per name: never an end without a begin,
   never two concurrent opens of the same name.  A fixed-work run can
   end mid-cycle, so distinct phases may remain open at the very end —
   but each name at most once. *)
let prop_phase_balance =
  QCheck.Test.make ~count:prop_count ~name:"trace: phase begin/end balance"
    scenario_arb (fun sc ->
      let r = run_scenario sc in
      let open_phases : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let ok = ref true in
      Trace.iter
        (fun ev ->
          match ev.Trace.payload with
          | Tp.Phase_begin { name } ->
              if Hashtbl.mem open_phases name then ok := false
              else Hashtbl.add open_phases name ()
          | Tp.Phase_end { name } ->
              if Hashtbl.mem open_phases name then
                Hashtbl.remove open_phases name
              else ok := false
          | _ -> ())
        r.TR.trace;
      !ok)

(* Request spans alternate strictly per mutator thread. *)
let prop_request_alternation =
  QCheck.Test.make ~count:prop_count ~name:"trace: request spans alternate"
    scenario_arb (fun sc ->
      let r = run_scenario sc in
      let in_request : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let ok = ref true in
      Trace.iter
        (fun ev ->
          match ev.Trace.payload with
          | Tp.Request_begin ->
              if Hashtbl.mem in_request ev.Trace.tid then ok := false
              else Hashtbl.add in_request ev.Trace.tid ()
          | Tp.Request_end _ ->
              if Hashtbl.mem in_request ev.Trace.tid then
                Hashtbl.remove in_request ev.Trace.tid
              else ok := false
          | _ -> ())
        r.TR.trace;
      !ok)

(* STW pauses are mutually disjoint in time (the world is stopped);
   alloc stalls are per-mutator and may overlap anything. *)
let prop_stw_disjoint =
  QCheck.Test.make ~count:prop_count ~name:"trace: STW pauses disjoint"
    scenario_arb (fun sc ->
      let r = run_scenario sc in
      let ivs = ref [] in
      Trace.iter
        (fun ev ->
          match ev.Trace.payload with
          | Tp.Pause { kind; start_ns; dur_ns } when kind <> "alloc-stall" ->
              ivs := (start_ns, start_ns + dur_ns) :: !ivs
          | _ -> ())
        r.TR.trace;
      let sorted = List.sort compare !ivs in
      let rec disjoint = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> s2 >= e1 && disjoint rest
        | _ -> true
      in
      disjoint sorted)

(* MMU envelope from real traces: monotone, in [0,1], and consistent
   with the mmu_at lookup. *)
let prop_mmu_monotone_real =
  QCheck.Test.make ~count:prop_count ~name:"analyze: MMU monotone (real)"
    scenario_arb (fun sc ->
      let r = run_scenario sc in
      let a = Analyze.analyze (Trace.events r.TR.trace) in
      let rec monotone = function
        | (_, u1) :: ((_, u2) :: _ as rest) -> u1 <= u2 && monotone rest
        | _ -> true
      in
      monotone a.Analyze.mmu
      && List.for_all (fun (_, u) -> u >= 0. && u <= 1.) a.Analyze.mmu
      && List.for_all (fun (w, u) -> Analyze.mmu_at a w = u) a.Analyze.mmu)

(* MMU envelope on synthetic pause sets: same invariants without the
   cost of a simulation, so the sample count can be much higher. *)
let prop_mmu_monotone_synthetic =
  QCheck.Test.make ~count:200 ~name:"analyze: MMU monotone (synthetic)"
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(
          list_size (int_range 0 20)
            (map2
               (fun s d -> (s, s + d))
               (int_range 0 (50 * ms))
               (int_range 0 (3 * ms)))))
    (fun pauses ->
      let ivs = Analyze.merge_intervals pauses in
      let curve = Analyze.mmu_curve ivs ~lo:0 ~hi:(60 * ms) in
      let rec monotone = function
        | (_, u1) :: ((_, u2) :: _ as rest) -> u1 <= u2 && monotone rest
        | _ -> true
      in
      monotone curve
      && List.for_all (fun (_, u) -> u >= 0. && u <= 1.) curve)

(* ------------------------------------------------------------------ *)

let () =
  (* No g1-10ms snapshot: on the golden scenario its 10 ms pause target
     never binds, so its stream would repeat g1's byte for byte.
     test_collectors' "g1-10ms pause target binds" covers the variant. *)
  let golden_tests =
    List.filter_map
      (fun (e : Registry.entry) ->
        if e.Registry.name = "g1-10ms" then None
        else Some (Alcotest.test_case e.Registry.name `Quick (test_golden e)))
      Registry.all
  in
  let activity_tests =
    List.map
      (fun (e : Registry.entry) ->
        Alcotest.test_case e.Registry.name `Quick (test_activity e))
      Registry.all
  in
  Alcotest.run "obs"
    [
      ("golden", golden_tests);
      ("activity", activity_tests);
      ( "differ",
        [ Alcotest.test_case "first divergent line" `Quick test_differ ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same bytes" `Quick
            test_same_seed_identical;
          Alcotest.test_case "-j1 = -j4" `Quick test_jobs_identical;
          Alcotest.test_case "tracing is zero-perturbation" `Quick
            test_zero_perturbation;
        ] );
      ( "observer",
        [
          Alcotest.test_case "raising observer fails loudly" `Quick
            test_raising_observer_fails_loudly;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "one percentile definition" `Quick
            test_one_percentile;
          Alcotest.test_case "MMU envelope" `Quick test_mmu_envelope;
          Alcotest.test_case "measurement window" `Quick test_analyze_window;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_per_thread_monotone;
            prop_phase_balance;
            prop_request_alternation;
            prop_stw_disjoint;
            prop_mmu_monotone_real;
            prop_mmu_monotone_synthetic;
          ] );
    ]
