(** Request drivers: how load is offered to the simulated application.

    - {!Closed}: every mutator issues the next request as soon as the
      previous one finishes — measures peak throughput.
    - {!Open}: requests arrive as a Poisson process at a fixed aggregate
      QPS split across mutators; latency is measured from *arrival* to
      completion, so queueing behind a GC pause shows up in the tail
      exactly as it does for the paper's throttled clients (§5.5).
    - {!Fixed}: a fixed number of requests (DaCapo-style iterations);
      the metric is wall-clock execution time. *)

type mode = Closed | Open of float | Fixed of int

type result = {
  completed : int;
  elapsed_ns : int;  (** measurement-window length (or total run for Fixed) *)
  oom : string option;  (** Some reason when the run died of OOM *)
}

let spawn_mutator rt ~name body =
  Sim.Engine.spawn rt.Rt.engine ~name ~kind:Sim.Engine.Mutator (fun () ->
      let m = Mutator.create rt in
      (try body m with Rt.Out_of_memory _ as e ->
        Mutator.finish m;
        raise e);
      Mutator.finish m)

(* Run one request, bracketed by trace events when a tracer is on.
   [lat_from] is the instant latency is measured from — service start
   for closed/fixed loops, arrival for the open loop (queueing counts).
   Returns the measured latency.  The request is also the mutator's
   online section for grace periods: a request may keep heap
   references in unrooted locals across safepoints, and between
   requests it holds none. *)
let traced_request rt ~lat_from ~request m =
  Mutator.begin_request m;
  let traced = Rt.tracing rt in
  if traced then begin
    (* Reset the tax meter so Request_end carries this request's delta
       (tax accrued between requests is nobody's). *)
    ignore (Mutator.take_tax m);
    Rt.trace rt Tracepoint.Request_begin
  end;
  request m;
  let lat = Mutator.now m - lat_from in
  if traced then
    Rt.trace rt
      (Tracepoint.Request_end { latency_ns = lat; tax_ns = Mutator.take_tax m });
  Mutator.end_request m;
  lat

let closed_loop rt ~request m =
  while not rt.Rt.stop_flag do
    let t0 = Mutator.now m in
    Metrics.record_latency rt.Rt.metrics
      (traced_request rt ~lat_from:t0 ~request m)
  done

let open_loop rt ~request ~mean_interarrival_ns m =
  let next_arrival = ref (Mutator.now m) in
  let advance () =
    next_arrival :=
      !next_arrival
      + int_of_float
          (Util.Prng.exponential m.Mutator.prng ~mean:mean_interarrival_ns)
  in
  advance ();
  while not rt.Rt.stop_flag do
    if Mutator.now m < !next_arrival then
      Mutator.safe_sleep_until m !next_arrival;
    if not rt.Rt.stop_flag then begin
      let arrival = !next_arrival in
      advance ();
      Metrics.record_latency rt.Rt.metrics
        (traced_request rt ~lat_from:arrival ~request m)
    end
  done

let fixed_loop rt ~request ~remaining m =
  let continue_ = ref true in
  while !continue_ do
    if !remaining <= 0 then continue_ := false
    else begin
      decr remaining;
      let t0 = Mutator.now m in
      Metrics.record_latency rt.Rt.metrics
        (traced_request rt ~lat_from:t0 ~request m)
    end
  done

(** Run [n_mutators] application threads under the given [mode].

    For [Closed]/[Open], runs [warmup] ns unrecorded and then [duration]
    ns recorded.  For [Fixed n], runs until the [n] requests complete.
    Returns throughput/latency material in [result]; an out-of-memory
    abort is reported rather than raised. *)
let run rt ~n_mutators ~mode ?(warmup = 0) ?(duration = 0) ~request () =
  let engine = rt.Rt.engine in
  let metrics = rt.Rt.metrics in
  rt.Rt.stop_flag <- false;
  Metrics.set_recording metrics
    ~busy:(Sim.Engine.total_busy_ns engine)
    ~now:(Sim.Engine.now engine) false;
  let remaining = ref (match mode with Fixed n -> n | _ -> 0) in
  for i = 1 to n_mutators do
    let name = Printf.sprintf "mutator-%d" i in
    ignore
      (spawn_mutator rt ~name (fun m ->
           match mode with
           | Closed -> closed_loop rt ~request m
           | Open qps ->
               let mean_interarrival_ns =
                 float_of_int Util.Units.sec *. float_of_int n_mutators /. qps
               in
               open_loop rt ~request ~mean_interarrival_ns m
           | Fixed _ -> fixed_loop rt ~request ~remaining m))
  done;
  (match mode with
  | Fixed _ ->
      Metrics.set_recording metrics
        ~busy:(Sim.Engine.total_busy_ns engine)
        ~now:(Sim.Engine.now engine) true
  | Closed | Open _ ->
      ignore
        (Sim.Engine.spawn engine ~name:"measurement-timer" ~daemon:true
           ~kind:Sim.Engine.Aux (fun () ->
             Sim.Engine.sleep engine warmup;
             Metrics.set_recording metrics
               ~busy:(Sim.Engine.total_busy_ns engine)
               ~now:(Sim.Engine.now engine) true;
             Sim.Engine.sleep engine duration;
             Metrics.set_recording metrics
               ~busy:(Sim.Engine.total_busy_ns engine)
               ~now:(Sim.Engine.now engine) false;
             rt.Rt.stop_flag <- true;
             (* Wake mutators parked in allocation stalls so they can
                observe the stop flag (they re-check allocation first). *)
             Rt.notify_memory_freed rt)))
  ;
  let oom = ref None in
  (try Sim.Engine.run engine
   with
  | Rt.Out_of_memory reason -> oom := Some reason
  | Sim.Engine.Deadlock _ when rt.Rt.oom -> oom := Some "deadlock after OOM");
  if metrics.Metrics.recording then
    Metrics.set_recording metrics
      ~busy:(Sim.Engine.total_busy_ns engine)
      ~now:(Sim.Engine.now engine) false;
  {
    completed = Metrics.requests_completed metrics;
    elapsed_ns = Metrics.window_ns metrics;
    oom = !oom;
  }
