(** Grace periods for forwarded records (stubs): quiescent-state-based
    reclamation over a run's mutators and collector controllers.

    A stub left behind by an evacuation is named by nothing the heap
    counts once its [inrefs] is 0, but something outside the heap may
    still hold it: an unrooted local of a request in flight, a gray
    stack, an SATB queue, an evacuation worklist, or a root that a
    cycle heals only in its epilogue.  So region release only puts it
    in limbo ({!Gobj.release_residents}), and it reaches the pool
    ({!Gobj.Pool.put_stubs}) after a grace period in which every
    participant online at the release has passed a quiescent point.

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
    and opens the next one over the stubs released since. *)

val offline : t -> int -> unit
(** {!quiescent}, then [p] stays quiescent until {!online}: a mutator
    between requests, parked in an open-loop sleep, or finished. *)

val online : t -> int -> unit
(** [p] may hold references again (no-op when already online).  A
    period already open does not wait on it: whatever it picks up now
    it reads from the roots or the heap. *)

val limbo : t -> Gobj.t Util.Vec.t
(** Where {!Gobj.release_residents} pushes the stubs of a release; the
    next period to open takes them. *)

val set_check : t -> (Gobj.t Util.Vec.t -> unit) option -> unit
(** Called with each batch just before it goes to the pool; the
    sanitizer asserts there that no root names a batch record and that
    each still has no incoming heap edge. *)

val in_limbo : t -> int
(** Stubs released whose grace period has not ended yet. *)
