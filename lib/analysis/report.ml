(** Structured violation reports shared by the heap verifier and the
    happens-before race detector.

    A report names which engine fired, which invariant broke, and where —
    collector, phase, region, object — so a CI log line is enough to
    start debugging without re-running under a tracer.  A check raises
    {!Violation} with the first broken invariant; the driver that ran
    the simulation catches it ([Harness.run], [Explore.run_schedule]). *)

type t = {
  engine : string;  (** ["verifier"] or ["race-detector"] *)
  invariant : string;  (** short kebab-case invariant name *)
  collector : string;  (** collector that announced the phase, or ["-"] *)
  phase : string;  (** phase boundary at which the check ran, or ["-"] *)
  region : int option;  (** region id involved, when one is implicated *)
  object_id : int option;  (** logical object id, when one is implicated *)
  detail : string;  (** human-readable specifics, may span lines *)
}

exception Violation of t

let to_string r =
  Printf.sprintf "[%s] %s violated (collector=%s phase=%s%s%s)\n%s" r.engine
    r.invariant r.collector r.phase
    (match r.region with
    | Some rid -> Printf.sprintf " region=%d" rid
    | None -> "")
    (match r.object_id with
    | Some id -> Printf.sprintf " object=#%d" id
    | None -> "")
    r.detail

let () =
  Printexc.register_printer (function
    | Violation r -> Some (to_string r)
    | _ -> None)
