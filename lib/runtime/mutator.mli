(** Mutator (application thread) operations — the only API workloads use
    to touch the heap.

    Every allocation, reference load and reference store pays the cost
    model, runs the installed collector's barriers and polls the
    safepoint.  The loaded-value barrier is built in: a load whose target
    has been relocated is healed to the newest copy in place (§3.1).

    {b Handle discipline.}  Any operation here may reach a safepoint and
    let a copying collection run.  An object handle held only in an OCaml
    local across such a point is invisible to the collector (the classic
    unrooted-handle bug, reproduced and regression-tested in this
    repository): keep live handles in stack-root slots
    ({!push_root}/{!set_root}) across every polling operation. *)

type t = {
  mid : int;  (** mutator id (workloads key per-thread state on it) *)
  rt : Rt.t;
  prng : Util.Prng.t;  (** this thread's deterministic random stream *)
  roots : Heap.Gobj.t Util.Vec.t;
      (** simulated stack slots; {!Heap.Gobj.null} marks an empty slot *)
  mutable tlab : Heap.Region.t option;
  mutable ops : int;
  mutable pending_ns : int;
  mutable tax_ns : int;
      (** cumulative mutator-tax surcharge; {!take_tax} reads deltas *)
  grace : int;
      (** this mutator's participant index in the heap's grace periods
          ({!Heap.Grace}) *)
}

val create : Rt.t -> t
(** Register a mutator: safepoint membership, a root set, a TLAB retire
    hook, and an online grace-period participant.  Call from inside the
    mutator's own fiber. *)

val finish : t -> unit
(** Deregister (flushes pending costs) and go offline for grace periods.
    Must be called before the fiber returns or safepoints would wait for
    it forever. *)

val begin_request : t -> unit
(** From here on the mutator may hold heap references in OCaml locals
    (a request keeps a few unrooted across safepoints), so a grace
    period opened now waits for its {!end_request}. *)

val end_request : t -> unit
(** A quiescent point: between requests the mutator holds heap
    references only in its roots, so it goes offline for grace periods
    until the next {!begin_request}; a mutator parked in an open-loop
    sleep thus holds no period up. *)

val now : t -> int
(** Virtual time (flushes the batched cost accumulator first). *)

val take_tax : t -> int
(** Mutator-tax ns accrued since the last call (and reset the meter);
    the request driver attaches this to [Request_end] trace events. *)

val work : t -> int -> unit
(** Burn application CPU, polling safepoints every few microseconds. *)

val alloc : t -> data_bytes:int -> nrefs:int -> Heap.Gobj.t
(** Allocate an object with [nrefs] reference slots and [data_bytes] of
    payload in the mutator's TLAB.  Blocks in an allocation stall when the
    heap is exhausted (the collector's policy decides how to make
    progress); raises {!Rt.Out_of_memory} when even a full collection
    cannot free memory. *)

val read : t -> Heap.Gobj.t -> int -> Heap.Gobj.t
(** Load field [i]: resolves a stale holder, heals a stale slot in place
    (loaded-value barrier), and returns the newest copy.  Empty slots
    return {!Heap.Gobj.null} — test with {!Heap.Gobj.is_null}. *)

val write : t -> Heap.Gobj.t -> int -> Heap.Gobj.t -> unit
(** Store [v] (or {!Heap.Gobj.null} to clear) into field [i], running
    the collector's write barrier (SATB / card dirtying / remembered
    sets / RC logging). *)

(** {2 Stack roots} *)

val push_root : t -> Heap.Gobj.t -> int
(** Append a root slot; returns its stable index. *)

val set_root : t -> int -> Heap.Gobj.t -> unit
(** Overwrite a root slot ({!Heap.Gobj.null} clears it). *)

val get_root : t -> int -> Heap.Gobj.t
(** Read a root slot, healing a stale reference in place; returns
    {!Heap.Gobj.null} for an empty slot. *)

val truncate_roots : t -> int -> unit
(** Drop root slots at index [n] and above (end-of-request cleanup). *)

(** {2 Blocking helpers (safepoint-safe)} *)

val safe_sleep_until : t -> int -> unit

(** {2 Low-level} *)

val tick : t -> int -> unit
(** Charge mutator CPU (collector tax applied; batched). *)
