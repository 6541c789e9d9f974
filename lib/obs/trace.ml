(** Deterministic structured trace recorder.

    {!attach} installs a sink into the runtime's tracepoint seam
    ({!Runtime.Metrics.set_tracer}) and the heap's region-lifecycle seam
    ({!Heap.Heap_impl.set_region_observer}); every emitted payload is
    stamped with the engine's virtual clock and current thread id and
    appended to an in-memory vector.  Recording is pure host-side
    bookkeeping: it never ticks the engine, so a traced run's simulated
    metrics, sim_ns and uids are bit-identical to an untraced one, and
    the event stream itself — being a pure function of the deterministic
    schedule — is byte-identical across [-j N] and across repeated
    same-seed runs (the determinism contract, DESIGN.md §11).

    Events before the first [Recording on] marker belong to setup and
    warmup; analyzers filter on the markers, the raw timeline is always
    complete. *)

type event = { ts : int; tid : int; payload : Runtime.Tracepoint.payload }
(** One stamped event.  [ts] is {!Sim.Engine.now} at emission — note the
    engine clock includes the emitting thread's progress within its
    quantum, so timestamps are monotone {e per thread} but not globally
    across threads within a scheduling round.  [tid] is
    {!Sim.Engine.current_tid}; [-1] marks emissions from outside the
    engine (harness code between runs). *)

type t = {
  engine : Sim.Engine.t;
  events : event Util.Vec.t;
}

let dummy_event =
  { ts = 0; tid = -1; payload = Runtime.Tracepoint.Recording { on = false } }

let create engine = { engine; events = Util.Vec.create ~capacity:1024 dummy_event }

let emit t payload =
  Util.Vec.push t.events
    { ts = Sim.Engine.now t.engine; tid = Sim.Engine.current_tid t.engine; payload }

(** Install a recorder on [rt]: tracepoint sink plus heap region
    observer.  Call before the first {!Sim.Engine.run} (the harness
    [?attach] seam) so setup events are captured too. *)
let attach rt =
  let t = create rt.Runtime.Rt.engine in
  Runtime.Metrics.set_tracer rt.Runtime.Rt.metrics (Some (fun p -> emit t p));
  Heap.Heap_impl.set_region_observer rt.Runtime.Rt.heap
    (Some
       (fun (r : Heap.Region.t) ~claimed ->
         let rkind = Heap.Region.kind_to_string r.Heap.Region.kind in
         emit t
           (if claimed then
              Runtime.Tracepoint.Region_claim { rid = r.Heap.Region.rid; rkind }
            else
              Runtime.Tracepoint.Region_release
                { rid = r.Heap.Region.rid; rkind; used = r.Heap.Region.top })));
  t

let length t = Util.Vec.length t.events
let events t = Util.Vec.to_array t.events
let iter f t = Util.Vec.iter f t.events

(** Threads spawned on the recorder's engine, ascending tid. *)
let threads t = Sim.Engine.thread_info t.engine
