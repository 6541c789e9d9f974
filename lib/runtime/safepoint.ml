(** Stop-the-world safepoint protocol.

    Mutators poll {!check} between operations; a GC thread calling {!stw}
    raises the stop flag, waits until every registered mutator is either
    polled-in or parked (blocked in an allocation stall or idle wait —
    such threads are at a safepoint by construction, as in HotSpot), runs
    the critical section, then releases everyone.  The measured pause is
    the full stop duration including time-to-safepoint. *)

type t = {
  engine : Sim.Engine.t;
  metrics : Metrics.t;
  mutable stop_requested : bool;
  mutable in_stw : bool;
  mutable registered : int;  (** live mutators *)
  mutable stopped : int;  (** mutators at the safepoint or parked *)
  all_stopped : Sim.Engine.cond;
  release : Sim.Engine.cond;
  stw_free : Sim.Engine.cond;  (** serializes concurrent STW requesters *)
  mutable on_release : unit -> unit;
      (** sanitizer hook, fired in the GC fiber right after the release
          broadcast — the world is still quiesced (no intervening
          suspension point), mutators resume only at the next round *)
}

let create engine metrics =
  {
    engine;
    metrics;
    stop_requested = false;
    in_stw = false;
    registered = 0;
    stopped = 0;
    all_stopped = Sim.Engine.cond "sp.all_stopped";
    release = Sim.Engine.cond "sp.release";
    stw_free = Sim.Engine.cond "sp.stw_free";
    on_release = ignore;
  }

let set_on_release t f = t.on_release <- f

let register t = t.registered <- t.registered + 1

let deregister t =
  t.registered <- t.registered - 1;
  if t.stop_requested && t.stopped >= t.registered then
    Sim.Engine.broadcast t.engine t.all_stopped

let note_stopped t =
  t.stopped <- t.stopped + 1;
  if t.stop_requested && t.stopped >= t.registered then
    Sim.Engine.broadcast t.engine t.all_stopped

let note_running t = t.stopped <- t.stopped - 1

(** Mutator-side poll: blocks for the duration of any pending STW. *)
let check t =
  if t.stop_requested then begin
    note_stopped t;
    while t.stop_requested do
      Sim.Engine.wait t.release
    done;
    note_running t
  end

(** Mark the calling mutator as parked (safe) while it blocks elsewhere.
    [unpark] re-enters mutator mode, waiting out any STW in progress. *)
let park t = note_stopped t

let unpark t =
  while t.stop_requested do
    Sim.Engine.wait t.release
  done;
  note_running t

(* Release the world stopped at [t0] and record the pause. *)
let finish t kind ~t0 =
  t.stop_requested <- false;
  t.in_stw <- false;
  Sim.Engine.broadcast t.engine t.release;
  Sim.Engine.broadcast t.engine t.stw_free;
  t.on_release ();
  let now = Sim.Engine.now t.engine in
  Metrics.record_pause t.metrics ~at:t0 ~dur:(now - t0) kind

(** Run [f] with all mutators stopped; returns [f ()]'s result.
    Concurrent requesters (e.g. Jade's co-running young and old
    controllers) are serialized: later callers wait their turn. *)
let stw t kind f =
  while t.in_stw do
    Sim.Engine.wait t.stw_free
  done;
  t.in_stw <- true;
  let t0 = Sim.Engine.now t.engine in
  t.stop_requested <- true;
  while t.stopped < t.registered do
    Sim.Engine.wait t.all_stopped
  done;
  Sim.Engine.tick Heap.Costs.safepoint_sync;
  match f () with
  | result ->
      finish t kind ~t0;
      result
  | exception e ->
      finish t kind ~t0;
      raise e
