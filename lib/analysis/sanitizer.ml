(** Wiring layer: installs the verifier and race detector onto a runtime.

    [Off] is free (no hooks installed anywhere).  [Fast] runs the O(#
    regions) accounting checks at every phase boundary.  [Full] adds the
    object-graph passes (reachability, SATB, remset coverage, CRDT)
    and turns on the happens-before race detector —
    engine scheduling trace plus heap metadata access logging.

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

let default_on_violation r = raise (Report.Violation r)

(* The one wiring path behind both entry points, in hook order: the
   verifier at phase boundaries, at the end of every grace period
   (before the pool takes what it frees), safepoint-release fires,
   then, when [race] carries extra observers, the race detector on the
   engine tracer and the access hook with those observers composed
   after it. *)
let wire ~verify_level ~full ~race ~on_violation rt =
  rt.RtM.verify_level <- verify_level;
  let verifier = Verifier.create ~full ~on_violation rt in
  rt.RtM.phase_hook <- Some (Verifier.on_phase verifier);
  Heap.Grace.set_check rt.RtM.heap.Heap.Heap_impl.grace
    (Some (Verifier.check_grace verifier));
  Runtime.Safepoint.set_on_release rt.RtM.safepoint (fun () ->
      RtM.fire_phase rt Vhook.Safepoint_release);
  Option.iter
    (fun (on_access, on_trace) ->
      let r = Race.create ~engine:rt.RtM.engine ~on_violation () in
      Sim.Engine.set_tracer rt.RtM.engine
        (Some
           (fun ev ->
             Race.on_trace r ev;
             on_trace ev));
      Heap.Access.set_hook
        (Some
           (fun op res ~key ~site ->
             Race.on_access r op res ~key ~site;
             on_access op res ~key ~site)))
    race

let no_access _ _ ~key:_ ~site:_ = ()
let no_trace (_ : Sim.Engine.trace_event) = ()

(** Install the sanitizer at [level].  Idempotent per runtime: a second
    install on the same [rt] is a no-op (the first one wins). *)
let install ?(on_violation = default_on_violation) ~level rt =
  match level with
  | Off -> ()
  | Fast | Full when rt.RtM.verify_level > 0 -> ()
  | Fast -> wire ~verify_level:1 ~full:false ~race:None ~on_violation rt
  | Full ->
      wire ~verify_level:2 ~full:true
        ~race:(Some (no_access, no_trace))
        ~on_violation rt

(** Oracles for the schedule-space explorer ([gcsim check]): the fast
    (accounting) verifier at every phase boundary plus the full
    happens-before race detector.  Every explored schedule re-runs the
    whole simulation, so the verifier's O(heap) full passes would
    dominate the search budget; accounting checks + race detection are
    the cheap oracles that still catch the schedule-dependent failure
    classes (double relocation, lost publication, broken accounting).

    [on_access] and [on_trace] compose extra host-side observers onto
    the race detector's hooks — the explorer records per-thread access
    footprints this way for its equivalence pruning. *)
let install_check_oracles ?(on_access = no_access) ?(on_trace = no_trace)
    ~on_violation rt =
  if rt.RtM.verify_level = 0 then
    wire ~verify_level:2 ~full:false
      ~race:(Some (on_access, on_trace))
      ~on_violation rt
