(** Grace periods for released records: quiescent-state-based
    reclamation over a run's mutators and collector controllers.

    Region release puts two kinds of dead resident in limbo instead of
    the pool ({!Gobj.release_residents}):
    - a stub (forwarded record) left behind by an evacuation.  The heap
      counts nothing naming it once its [inrefs] is 0, but something
      outside the heap may still hold it: an unrooted local of a request
      in flight, a gray stack, an SATB queue, an evacuation worklist, or
      a root that a cycle heals only in its epilogue;
    - an unforwarded record released while a mark runs that the floor
      rule keeps back (a held record): that mark's gray stacks and SATB
      queues may still hold it.

    Both reach the pool after a grace period in which every participant
    online at the release has passed a quiescent point: stubs onto the
    pool's one FIFO stub queue ({!Gobj.Pool.put_stubs}), in release
    order behind those of earlier periods, held records through the
    harvest of a release outside marking.  The period's ring of stubs
    and vector of held records are emptied and kept for the next one.
    Every mark runs inside one controller step, between two of that
    controller's quiescent points, so a mark that was running at the
    release has ended by then.

    Participants are online while they may hold such a reference: a
    mutator inside a request ({!Runtime.Driver} brackets each one;
    set-up is one long request), a controller inside a collection cycle
    (it declares a quiescent point before each cycle it considers).  A
    grace period waits on every participant online when it opens,
    except the one opening it, and ends when each has passed a
    quiescent point or gone offline.  Periods open and end only inside
    {!quiescent} and {!offline}, never inside a region release.

    All state is plain host state: nothing here ticks, traces or touches
    a simulated number. *)

type t

val create : Gobj.Pool.t -> t
(** Drains into the given pool.  No participants, nothing in limbo. *)

val register : t -> int
(** A new participant, online; returns its index. *)

val quiescent : t -> int -> unit
(** Participant [p] holds no reference outside the roots and the heap
    slots right now.  Ends the running period if it waited on [p] last,
    and opens the next one over the records released since. *)

val offline : t -> int -> unit
(** {!quiescent}, then [p] stays quiescent until {!online}: a mutator
    between requests, parked in an open-loop sleep, or finished. *)

val online : t -> int -> unit
(** [p] may hold references again (no-op when already online).  A
    period already open does not wait on it: whatever it picks up now
    it reads from the roots or the heap. *)

val release : t -> floor:int -> Gobj.t Util.Vec.t -> unit
(** Free a released region's residents
    ({!Gobj.release_residents} with this pool): harvest what [floor]
    allows now and put stubs and held records in limbo, for the next
    period to open. *)

val set_check :
  t -> (stubs:Gobj.t Util.Ring.t -> held:Gobj.t Util.Vec.t -> unit) option ->
  unit
(** Called with each period's stubs and held records just before they
    go to the pool; the sanitizer asserts there that no root names one,
    that each stub still has no incoming heap edge and that no held
    record is forwarded. *)

val in_limbo : t -> int
(** Stubs and held records released whose grace period has not ended
    yet. *)
