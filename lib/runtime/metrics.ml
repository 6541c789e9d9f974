(** Measurement sink for a simulation run.

    Collects request latencies, STW pauses, allocation stalls, named GC
    phase durations and free-form counters.  A [recording] flag gates
    everything so the harness can exclude warmup. *)

type pause_kind =
  | Init_mark
  | Final_mark
  | Remark
  | Young_stw  (** STW young collection (G1, LXR) *)
  | Mixed_stw  (** STW mixed/old evacuation (G1) *)
  | Rc_epoch  (** LXR reference-count processing pause *)
  | Degenerated  (** Shenandoah degenerated cycle *)
  | Full_gc
  | Alloc_stall  (** mutator stalled on allocation: same effect as a pause *)

let pause_kind_to_string = function
  | Init_mark -> "init-mark"
  | Final_mark -> "final-mark"
  | Remark -> "remark"
  | Young_stw -> "young-stw"
  | Mixed_stw -> "mixed-stw"
  | Rc_epoch -> "rc-epoch"
  | Degenerated -> "degenerated"
  | Full_gc -> "full-gc"
  | Alloc_stall -> "alloc-stall"

type pause = { at : int; dur : int; kind : pause_kind }

type phase = {
  mutable total_ns : int;
  mutable count : int;
  mutable started_at : int;  (** {!closed} while the phase is not open *)
}

(* Simulated times are never negative. *)
let closed = -1

type t = {
  mutable recording : bool;
  mutable tracer : Tracepoint.sink option;
      (** observability sink ([lib/obs]); [None] (the default) keeps
          every emission site down to one load and one branch, and no
          payload is allocated.  Emissions never tick the engine, so a
          tracer cannot perturb simulated time. *)
  mutable window_start : int;
  mutable window_end : int;
  mutable busy_window_start : int;  (** engine busy-ns when recording began *)
  mutable busy_window_end : int;
  latency : Util.Histogram.t;
  pauses : pause Util.Vec.t;  (** the one record of pauses and stalls *)
  phases : (string, phase) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create () =
  {
    recording = true;
    tracer = None;
    window_start = 0;
    window_end = 0;
    busy_window_start = 0;
    busy_window_end = 0;
    latency = Util.Histogram.create ();
    pauses = Util.Vec.create { at = 0; dur = 0; kind = Full_gc };
    phases = Hashtbl.create 16;
    counters = Hashtbl.create 16;
  }

let set_tracer t sink = t.tracer <- sink

let set_recording ?(busy = 0) t ~now on =
  (match t.tracer with
  | Some f -> f (Tracepoint.Recording { on })
  | None -> ());
  t.recording <- on;
  if on then begin
    t.window_start <- now;
    t.busy_window_start <- busy
  end
  else begin
    t.window_end <- now;
    t.busy_window_end <- busy
  end

(** Fraction of total core time spent busy during the recording window. *)
let cpu_utilization t ~cores =
  let window = t.window_end - t.window_start in
  if window <= 0 then 0.
  else
    float_of_int (t.busy_window_end - t.busy_window_start)
    /. float_of_int (cores * window)

let record_latency t ns =
  if t.recording then begin
    Util.Histogram.record t.latency ns
  end

(** Pauses affect every mutator; stalls hit one mutator but have the same
    effect on its latency (§2.2), so both feed pause statistics. *)
let record_pause t ~at ~dur kind =
  (* The trace sees every pause, warmup included: the Recording markers
     delimit the measurement window, so the analyzer can filter while
     the raw timeline stays complete. *)
  (match t.tracer with
  | Some f ->
      f
        (Tracepoint.Pause
           { kind = pause_kind_to_string kind; start_ns = at; dur_ns = dur })
  | None -> ());
  if t.recording then Util.Vec.push t.pauses { at; dur; kind }

(* -- named phases ---------------------------------------------------- *)

(* [Not_found] rather than [find_opt], whose [Some] would box every
   lookup of a known phase. *)
let phase t name =
  match Hashtbl.find t.phases name with
  | p -> p
  | exception Not_found ->
      let p = { total_ns = 0; count = 0; started_at = closed } in
      Hashtbl.replace t.phases name p;
      p

let phase_begin t name ~now =
  let p = phase t name in
  if p.started_at <> closed then
    invalid_arg
      (Printf.sprintf
         "Metrics.phase_begin: phase %S already open (begun at %dns, \
          re-begun at %dns without phase_end)"
         name p.started_at now);
  (match t.tracer with
  | Some f -> f (Tracepoint.Phase_begin { name })
  | None -> ());
  p.started_at <- now

let phase_end t name ~now =
  let p = phase t name in
  let t0 = p.started_at in
  if t0 = closed then invalid_arg ("Metrics.phase_end without begin: " ^ name);
  (match t.tracer with
  | Some f -> f (Tracepoint.Phase_end { name })
  | None -> ());
  p.started_at <- closed;
  if t.recording then begin
    p.total_ns <- p.total_ns + (now - t0);
    p.count <- p.count + 1
  end

let phase_total t name = (phase t name).total_ns
let phase_count t name = (phase t name).count

let phase_avg t name =
  let p = phase t name in
  if p.count = 0 then 0 else p.total_ns / p.count

(* -- counters -------------------------------------------------------- *)

(* Matching on [Not_found] rather than a [find_opt] result: collectors
   bump counters per promoted object, and [Some] would box every read. *)
let counter t key =
  match Hashtbl.find t.counters key with n -> n | exception Not_found -> 0

let add t key n = if t.recording then Hashtbl.replace t.counters key (n + counter t key)

(* -- summaries ------------------------------------------------------- *)

let cumulative_pause t =
  Util.Vec.fold (fun acc p -> acc + p.dur) 0 t.pauses

let cumulative_pause_of t kind =
  Util.Vec.fold (fun acc p -> if p.kind = kind then acc + p.dur else acc) 0
    t.pauses

let pause_count t = Util.Vec.length t.pauses

(* Pause statistics read a histogram of the recorded durations: the same
   percentile definition {!Obs.Analyze} applies to a trace. *)
let pause_hist t =
  Util.Histogram.of_list
    (Util.Vec.fold (fun acc p -> p.dur :: acc) [] t.pauses)

let p99_pause t = Util.Histogram.percentile (pause_hist t) 99.
let max_pause t = Util.Histogram.max_value (pause_hist t)
let avg_pause t = int_of_float (Util.Histogram.mean (pause_hist t))
let p99_latency t = Util.Histogram.percentile t.latency 99.
let p50_latency t = Util.Histogram.percentile t.latency 50.
let p999_latency t = Util.Histogram.percentile t.latency 99.9
let max_latency t = Util.Histogram.max_value t.latency

(** Requests completed while recording: each one recorded its latency. *)
let requests_completed t = Util.Histogram.total t.latency

(** Completed requests per second over the recording window. *)
let throughput t =
  let window = t.window_end - t.window_start in
  if window <= 0 then 0.
  else float_of_int (requests_completed t) /. Util.Units.to_sec window

let window_ns t = t.window_end - t.window_start
