(** Wiring layer: installs the verifier and race detector onto a runtime.

    [Off] is free (no hooks installed anywhere).  [Fast] is the
    explorer's oracle set: the O(# regions) accounting checks at every
    phase boundary plus the happens-before race detector (engine
    scheduling trace plus heap metadata access logging).  [Full] adds
    the O(heap) object-graph passes (reachability, SATB, remset
    coverage, CRDT).

    A broken invariant raises {!Report.Violation} from the check that
    found it; the driver that runs the simulation catches it
    ([Harness.run], [Explore.run_schedule]).

    All hooks are host-side and never tick simulated time, so simulated
    traces and metrics are bit-identical at every level. *)

module RtM = Runtime.Rt
module Vhook = Runtime.Vhook

type level = Off | Fast | Full

let level_to_string = function Off -> "off" | Fast -> "fast" | Full -> "full"

let level_of_string = function
  | "off" | "0" | "none" -> Some Off
  | "fast" | "1" -> Some Fast
  | "full" | "2" | "" -> Some Full
  | _ -> None

(** Install the sanitizer at [level], in hook order: the verifier at
    phase boundaries, at the end of every grace period (before the pool
    takes what it frees), safepoint-release fires, then the race
    detector on the engine tracer and the heap's access hook.  Install
    once per runtime.

    [on_access] and [on_trace] compose extra host-side observers after
    the race detector's hooks — the explorer records per-thread access
    footprints this way for its equivalence pruning. *)
let install ?(on_access = fun _ _ ~key:_ ~site:_ -> ()) ?(on_trace = ignore)
    ~level rt =
  match level with
  | Off -> ()
  | Fast | Full ->
      let verifier = Verifier.create ~full:(level = Full) rt in
      rt.RtM.phase_hook <- Some (Verifier.on_phase verifier);
      Heap.Grace.set_check rt.RtM.heap.Heap.Heap_impl.grace
        (Some (Verifier.check_grace verifier));
      Runtime.Safepoint.set_on_release rt.RtM.safepoint (fun () ->
          RtM.fire_phase rt Vhook.Safepoint_release);
      let r = Race.create ~engine:rt.RtM.engine () in
      Sim.Engine.set_tracer rt.RtM.engine
        (Some
           (fun ev ->
             Race.on_trace r ev;
             on_trace ev));
      Heap.Access.set_hook
        (Some
           (fun op res ~key ~site ->
             Race.on_access r op res ~key ~site;
             on_access op res ~key ~site))
