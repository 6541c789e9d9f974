(** Stop-the-world safepoint protocol.

    Mutators poll {!check} between operations; a GC thread calling {!stw}
    raises the stop flag, waits until every registered mutator is either
    polled-in or parked (blocked in an allocation stall or idle wait —
    such threads are at a safepoint by construction, as in HotSpot), runs
    the critical section, then releases everyone.  The measured pause is
    the full stop duration including time-to-safepoint.  Concurrent STW
    requesters (e.g. Jade's co-running young and old controllers) are
    serialized. *)

type t

val create : Sim.Engine.t -> Metrics.t -> t

val register : t -> unit
(** A mutator joins the protocol (done by [Mutator.create]). *)

val deregister : t -> unit

val check : t -> unit
(** Mutator-side poll: blocks for the duration of any pending STW. *)

val park : t -> unit
(** Mark the calling mutator as safepoint-safe while it blocks
    elsewhere. *)

val unpark : t -> unit
(** Leave the parked state, first waiting out any STW in progress. *)

val set_on_release : t -> (unit -> unit) -> unit
(** Install a sanitizer hook fired in the GC fiber right after every
    STW release broadcast, while the world is still quiesced.  The hook
    must not tick simulated time. *)

val stw : t -> Metrics.pause_kind -> (unit -> 'a) -> 'a
(** Run a function with every registered mutator stopped; the pause is
    recorded in the metrics under the given kind.  Must be called from a
    GC fiber, never from a mutator (a mutator cannot wait for itself to
    reach the safepoint). *)
