(* Ablation benches for the design choices DESIGN.md calls out:
   - the CRDT piggyback (§3.3) on/off,
   - chasing mode (§4.3) on/off,
   - STW versus concurrent weak-reference processing (§4.4 future work).
   The single-phase-vs-two-phase young ablation is Table 5 (GenZ's young
   collector is exactly the two-phase variant). *)

open Experiments
module Metrics = Runtime.Metrics

let ms = Util.Units.ms
let pt = Util.Units.pp_time_ns

let quick = Bench_options.quick

let jade name cfg = Registry.jade_with ~name cfg

(** CRDT on/off: remembered-set build time and cards scanned. *)
let ablate_crdt () =
  let app = Workload.Apps.specjbb in
  let duration = if !quick then 1_500 * ms else 3_000 * ms in
  let run cfg =
    Exp.run ~warmup:(250 * ms) ~duration (jade "jade" cfg) app ~mult:2.0
      ~mode:(Runtime.Driver.Open 30_000.)
  in
  let on = run Jade.Jade_config.default in
  let off =
    run { Jade.Jade_config.default with Jade.Jade_config.use_crdt = false }
  in
  let row name (s : Harness.summary) =
    let m = s.Harness.metrics in
    let n = max 1 (Metrics.phase_count m "jade.build") in
    [
      name;
      pt (Metrics.phase_avg m "jade.build");
      string_of_int (Metrics.counter m "jade.build_cards_scanned" / n);
      pt s.Harness.p99_latency;
    ]
  in
  print_string @@ Util.Table.render
    ~title:"Ablation: CRDT piggyback (build phase, per cycle)"
    ~headers:[ "Config"; "Avg build"; "Cards scanned/cycle"; "p99 latency" ]
    [ row "crdt on (default)" on; row "crdt off (scan all)" off ]

(** Chasing mode on/off: stall time under a tight heap at peak load. *)
let ablate_chasing () =
  let app = Workload.Apps.specjbb in
  let duration = if !quick then 600 * ms else 1_200 * ms in
  let run cfg =
    (* Tight enough that allocation outruns collection and mutators
       genuinely stall; chasing then turns idle cores into GC workers. *)
    Exp.run ~warmup:(250 * ms) ~duration (jade "jade" cfg) app ~mult:1.15
      ~mode:Runtime.Driver.Closed
  in
  let on = run Jade.Jade_config.default in
  let off =
    run { Jade.Jade_config.default with Jade.Jade_config.chasing_mode = false }
  in
  let row name (s : Harness.summary) =
    [
      name;
      Printf.sprintf "%.0f" s.Harness.throughput;
      pt s.Harness.cumulative_stall;
      pt s.Harness.p99_pause;
      Printf.sprintf "%.0f%%" (100. *. s.Harness.cpu_utilization);
      string_of_int (Metrics.counter s.Harness.metrics "jade.chasing_rounds");
    ]
  in
  print_string @@ Util.Table.render
    ~title:"Ablation: chasing mode (tight heap, peak load, §4.3)"
    ~headers:
      [ "Config"; "Throughput"; "Cum. stalls"; "p99 pause"; "CPU util";
        "Chased rounds" ]
    [ row "chasing on (default)" on; row "chasing off" off ]

(** Weak references: STW processing (§4.4) vs the concurrent variant the
    paper leaves as future work, on a weak-heavy workload whose
    survivors live long enough to tenure: a 4,096-slot medium pool keeps
    each survivor past the young collections, so weak referents die in
    the old generation, where the old mark's weak processing clears
    them (with specjbb's 256 slots every survivor is overwritten before
    it tenures, and both rows clear nothing). *)
let ablate_weak_refs () =
  let base = Workload.Apps.specjbb in
  let app =
    {
      base with
      Workload.Apps.name = "specjbb-weak";
      spec =
        {
          base.Workload.Apps.spec with
          Workload.Spec.weak_pct = 1.0;
          survivors = 24;
          pool_slots = 4_096;
        };
    }
  in
  let duration = if !quick then 1_000 * ms else 2_000 * ms in
  let run cfg =
    Exp.run ~warmup:(250 * ms) ~duration (jade "jade" cfg) app ~mult:2.0
      ~mode:(Runtime.Driver.Open 30_000.)
  in
  let stw = run Jade.Jade_config.default in
  let conc =
    run
      {
        Jade.Jade_config.default with
        Jade.Jade_config.concurrent_weak_refs = true;
      }
  in
  let cleared (s : Harness.summary) =
    Metrics.counter s.Harness.metrics "jade.weak_stw_cleared"
    + Metrics.counter s.Harness.metrics "jade.weak_concurrent_cleared"
  in
  let row name (s : Harness.summary) =
    [
      name; pt s.Harness.p99_pause; pt s.Harness.max_pause;
      pt s.Harness.cumulative_pause; string_of_int (cleared s);
      string_of_int (Metrics.counter s.Harness.metrics "jade.old_cycles");
    ]
  in
  (* The two configurations differ only in the weak processing at the
     end of an old mark, so the comparison says nothing unless old
     cycles clear weak references there. *)
  List.iter
    (fun (name, s) ->
      if cleared s = 0 then
        failwith
          (Printf.sprintf
             "ablation weak refs: the %s row cleared no weak reference at \
              old-mark end, so the comparison measures nothing"
             name))
    [ ("STW", stw); ("concurrent", conc) ];
  print_string @@ Util.Table.render
    ~title:"Ablation: weak-reference processing (STW vs concurrent, §4.4)"
    ~headers:
      [ "Config"; "p99 pause"; "Max pause"; "Cum. pause"; "Weak cleared";
        "Old cycles" ]
    [ row "STW (paper)" stw; row "concurrent (future work)" conc ]

let all () =
  ablate_crdt ();
  ablate_chasing ();
  ablate_weak_refs ()
