(** Typed trace-event vocabulary for the observability layer ([lib/obs]).

    Same design as {!Vhook}: the runtime owns the vocabulary, a consumer
    installs a sink ({!Metrics.set_tracer}), and with no sink installed
    every emission site is a single load and branch — the payload record
    is only allocated inside the [Some] arm, so a disabled tracer
    perturbs neither simulated time nor allocation behaviour.

    Events are deliberately host-side only: emitting one never ticks the
    engine, so simulated metrics, sim_ns and uids are bit-identical with
    tracing on or off (the zero-perturbation fence in [test/test_obs.ml]
    holds the runtime to this).

    Timestamps and thread ids are NOT part of the payload: the sink
    stamps each event with {!Sim.Engine.now} and
    {!Sim.Engine.current_tid} at emission, keeping every fire site
    allocation-free in the disabled case and the stamping policy in one
    place ([Obs.Trace]).

    With a sink installed, a fire site allocates its payload, but the
    payload dies young: [Obs.Trace] copies its fields into columns and
    keeps no reference to it.  The sink stays [payload -> unit], not a
    set of unboxed entry points, because other consumers chain onto it
    (bench/perf's ledger counts pauses, requests and boundaries through
    the same seam); the run-wide event bus (ROADMAP item 2) is where
    that type changes. *)

type payload =
  | Phase_begin of { name : string }
      (** a named collector phase opened ({!Metrics.phase_begin}) *)
  | Phase_end of { name : string }
  | Pause of { kind : string; start_ns : int; dur_ns : int }
      (** an STW pause or allocation stall, emitted at its end; [kind]
          is {!Metrics.pause_kind_to_string} of the metrics kind *)
  | Region_claim of { rid : int; rkind : string }
      (** a free region entered service (TLAB or GC destination) *)
  | Region_release of { rid : int; rkind : string; used : int }
      (** a region returned to the free list; [used] is its bump pointer
          at release (bytes the region held) *)
  | Evac_batch of { objects : int; bytes : int }
      (** one evacuation batch (a region's live set, or a cycle's
          survivor total) finished copying *)
  | Boundary of { collector : string; boundary : string }
      (** a {!Vhook} phase boundary ({!Rt.fire_phase}) *)
  | Request_begin  (** a mutator began one application request *)
  | Request_end of { latency_ns : int; tax_ns : int }
      (** the request completed; [tax_ns] is the collector mutator tax
          (e.g. compressed-oops-disabled surcharge) charged during it *)
  | Recording of { on : bool }
      (** the measurement window opened/closed ({!Metrics.set_recording});
          warmup events precede the first [on=true] marker *)

type sink = payload -> unit
