(** Deterministic discrete-event simulation engine.

    Threads are OCaml-5 effect-handler coroutines multiplexed over a
    fixed number of virtual cores by quantum-based round-robin
    scheduling: each scheduling round advances the virtual clock by one
    quantum and gives at most [cores] runnable threads a quantum of CPU
    each, so [r > cores] CPU-bound threads each progress at [cores/r]
    speed — the machine model every collector and mutator in this
    repository runs on.

    The scheduler core is event-driven: sleepers live in a binary
    min-heap keyed on [(wake time, tid)], idle periods jump the clock
    straight to the next event, and runs of rounds in which no
    scheduling decision can occur (every runnable thread holds a core
    and is mid-{!tick}) are collapsed into one multi-quantum step
    aligned to the quantum grid — an optimization of the scheduler's
    bookkeeping, not a change to the machine model.

    Determinism: scheduling order is a pure function of the spawn
    order, the threads' behaviour and the installed scheduling
    {!policy}; two runs of the same configuration produce identical
    traces.  Sleepers are kept in the min-heap for the whole sleep (no
    per-round re-partitioning), so threads sleeping until the same
    instant wake in [(wake time, tid)] order — the heap key — and a
    wake never reorders unrelated sleepers.

    One effect suspends a thread.  {!tick} past the round budget,
    {!yield}, {!wait} and {!sleep_until} first record their operand on
    the calling thread (its debt, its yielded flag, an entry in the
    condition's waiter queue or in the sleeper heap) and then perform a
    single constant [Suspend] effect; the thread's handler, built once
    at spawn, only keeps the continuation.  The run queue and the waiter
    queues are {!Util.Ring}s, so a suspension costs the host the
    continuation and its box (4 minor words) and nothing else.  With no
    spawned thread to record the operand on, these operations raise
    [Invalid_argument] rather than drop the call.

    The policy seam ({!set_policy}) exposes every scheduling {e choice
    point} — a round whose outcome depends on which runnable thread
    goes first — to analysis tooling (the schedule-space explorer in
    [lib/analysis/explore.ml]).  With no policy installed, or with a
    policy that always returns rotation [0], the scheduler serves the
    run queue in FIFO order, bit-identical to the default. *)

(** Thread classes, for CPU accounting ({!busy_ns}). *)
type kind = Mutator | Gc | Aux

type thread
(** A spawned coroutine.  Values remain valid after the thread finishes. *)

type cond
(** A condition variable: threads {!wait} on it and are released by
    {!signal} (one waiter) or {!broadcast} (all waiters). *)

type t
(** An engine instance: virtual clock, run queue, sleepers, accounting. *)

exception Deadlock of string
(** Raised by {!run} when no thread can make progress: nothing runnable,
    nothing sleeping, and at least one non-daemon thread blocked. *)

val create : ?cores:int -> ?quantum:int -> unit -> t
(** [create ~cores ~quantum ()] builds an engine with [cores] virtual
    cores (default 8) and a scheduling quantum in virtual ns (default
    20 µs — measurement error of any interval is below one quantum). *)

val now : t -> int
(** Virtual time in ns as seen by the currently running thread (includes
    its progress within the current quantum). *)

val cores : t -> int

val quantum : t -> int
(** The scheduling quantum in virtual ns. *)

val busy_ns : t -> kind -> int
(** Cumulative CPU consumed by threads of [kind], in virtual ns. *)

val total_busy_ns : t -> int

val cond : string -> cond
(** [cond name] creates a condition variable; the name appears in
    diagnostics and {!Deadlock} reports. *)

val spawn :
  t -> ?daemon:bool -> name:string -> kind:kind -> (unit -> unit) -> thread
(** Create a coroutine.  Daemon threads (collector controllers) do not
    keep the simulation alive: {!run} returns when every non-daemon
    thread has finished. *)

(** {2 Operations performed from inside a thread}

    These suspend the calling coroutine and must only be called from
    within a spawned body; anywhere else they raise [Invalid_argument]. *)

val tick : int -> unit
(** Charge the calling thread [n] ns of virtual CPU time. *)

val yield : unit -> unit
(** Give up the rest of the current quantum, staying runnable. *)

val wait : cond -> unit
(** Block until the condition is signalled. *)

val sleep : t -> int -> unit
(** Sleep for [n] virtual ns without consuming CPU. *)

val sleep_until : t -> int -> unit
(** Sleep until an absolute virtual time. *)

val join : t -> thread -> unit
(** Block until [thread] finishes (returns immediately if it has). *)

(** {2 Operations from anywhere} *)

val signal : t -> cond -> unit
(** Wake one waiter (FIFO). *)

val broadcast : t -> cond -> unit
(** Wake all waiters. *)

val run : ?until:int -> t -> unit
(** Run the simulation until all non-daemon threads finish or the
    virtual clock reaches [until].  Re-raises the first exception
    escaping any thread; raises {!Deadlock} when no progress is
    possible.  May be called again to continue (e.g. after a setup
    phase). *)

(** {2 Analysis hooks}

    Scheduling-event tracing for the happens-before race detector
    ([lib/analysis]).  Off by default; with no tracer installed each
    event site costs a single branch. *)

(** [Spawned] orders the spawning thread before the child's first step;
    [Woken] orders a {!signal}/{!broadcast} caller before each woken
    waiter.  Sleeper expiry is time-driven and deliberately carries no
    ordering edge. *)
type trace_event =
  | Spawned of { parent : int; child : int; name : string }
  | Woken of { waker : int; woken : int; cond : string }

val set_tracer : t -> (trace_event -> unit) option -> unit
(** Install or remove the scheduling-event tracer. *)

(** {2 Scheduling-policy seam}

    The schedule-space explorer perturbs scheduling through this seam;
    nothing else should.  A policy is consulted once per {e choice
    point}: a scheduling round with [n >= 2] runnable threads whose
    outcome can depend on their order — either [n > cores] (the policy
    decides who is delayed a round) or at least two threads will resume
    code within the round (the policy decides their relative order at
    equal virtual time).  Rounds that are pure debt bookkeeping are not
    choice points and are never presented. *)

type policy = int -> int
(** A policy is called with the number [n] of runnable threads, the
    {e candidates}, and returns a left-rotation [r] of them
    ([0 <= r < n]): the scheduler serves the first [cores] threads of
    the rotated order this round and requeues the rest, preserving the
    rotated order.  Rotation [0] reproduces the default FIFO round-robin
    bit-identically.  Out-of-range rotations raise [Invalid_argument].
    A policy that needs to know who the candidates are reads their tids
    with {!candidate_tid}, in run-queue order. *)

val set_policy : t -> policy option -> unit
(** Install or remove the scheduling policy.  [None] (the default)
    keeps the FIFO fast path.  The first install allocates the buffer
    policy rounds drain the run queue into.  After that a policy round,
    choice point or not, allocates nothing, unless more threads are
    runnable than the buffer holds: it then grows, at least doubling. *)

val candidate_tid : t -> int -> int
(** [candidate_tid t i] is the tid of candidate [i] ([0 <= i < n]) at
    the choice point being presented.  The candidates live in a buffer
    the engine reuses every round, so they can be read only while the
    policy is being called: a policy must copy the tids it wants to
    keep, and any other call raises [Invalid_argument]. *)

val choice_points : t -> int
(** Number of choice points presented to the installed policy so far
    (0 with no policy installed). *)

val current_tid : t -> int
(** Tid of the thread the engine is driving right now; [-1] when called
    from outside {!run} (setup code, the scheduler itself). *)

val thread_info : t -> (int * string * kind) list
(** Every thread ever spawned, as [(tid, name, kind)] in ascending tid
    order (spawn order).  Thread values outlive their coroutines, so
    this is valid after {!run} returns — the observability exporters
    label trace timelines from it. *)
