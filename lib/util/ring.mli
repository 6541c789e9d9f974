(** Growable FIFO ring buffer.

    Backs the simulation engine's run queue and condition-variable
    waiter queues, and the record pool's queue of stubs.  Unlike
    [Stdlib.Queue], which allocates a cell per [push], the elements live
    in one array used circularly: [push] and [pop_exn] allocate nothing
    until the array must grow, and it grows by doubling, so a queue in
    steady state costs no host allocation. *)

type 'a t

val create : 'a -> 'a t
(** [create dummy] builds an empty ring.  The backing array is allocated
    on the first {!push}; [dummy] fills vacated slots so the array does
    not retain popped elements. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back.  Amortized O(1). *)

val pop_exn : 'a t -> 'a
(** Remove and return the front element.  Raises [Invalid_argument] when
    empty. *)

val clear : 'a t -> unit
(** Drop every element, keeping the backing array. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front to back. *)

val transfer : src:'a t -> dst:'a t -> unit
(** Move every element of [src] to the back of [dst], in order, leaving
    [src] empty.  When [dst] is empty the two exchange backing arrays
    instead of copying, so handing a long queue to an empty one costs
    O(1); both rings must have been created with the same dummy. *)
