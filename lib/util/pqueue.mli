(** Deterministic binary min-heap with integer keys and an integer
    tie-breaker.

    Elements are ordered by [(key, tie)] lexicographically; equal-key
    elements therefore pop in a fixed order independent of insertion
    history.  The engine's sleeper queue keys on the wake time and
    tie-breaks on the thread id, keeping schedules reproducible.

    The min accessors are O(1) and allocation-free so they can sit on
    the scheduler's per-round hot path. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] builds an empty heap.  [dummy] fills vacated slots so
    the backing array does not retain popped elements. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Remove every element (releases element references). *)

val push : 'a t -> key:int -> tie:int -> 'a -> unit
(** O(log n).  The same element may be pushed more than once; callers
    that need at-most-once semantics handle staleness on [pop]. *)

val min_key_exn : 'a t -> int
(** O(1), allocation-free; raises [Invalid_argument] when empty. *)

val min_elt_exn : 'a t -> 'a
(** Element carrying the smallest [(key, tie)]; raises when empty. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val pop_exn : 'a t -> 'a
