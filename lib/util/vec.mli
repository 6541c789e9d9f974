(** Growable array (OCaml 5.1 predates [Dynarray] in the stdlib).

    Used pervasively: region object lists, GC mark stacks, SATB buffers,
    root sets.  Amortized O(1) push; indices are stable until
    {!pop_last}, {!truncate} or {!clear}.

    Every operation that shortens a vector clears the slots it drops to
    the dummy, except {!forget}: a vector emptied with it keeps its old
    values past its length, readable with {!kept}, until pushes land on
    their slots.  Only a region's object vector in a recycled heap is
    emptied that way ([Heap.Region.recycle]): its slots are the records
    the heap's previous run left there. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] — the dummy value fills unused slots so the vector
    never retains dead values. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val clear : 'a t -> unit

val push : 'a t -> 'a -> unit

val reserve : 'a t -> int -> unit
(** [reserve t n] grows the capacity to exactly [n] when it is smaller,
    so the next [n - length t] pushes allocate nothing. *)

val forget : 'a t -> unit
(** Set the length to 0 and keep every value in its slot, past the
    length.  O(1): nothing is written. *)

val kept : 'a t -> int -> 'a
(** [kept t i] is the value in slot [i] at or past the length: one that
    {!forget} kept, or the dummy.  Raises [Invalid_argument] when [i] is
    not below the capacity. *)

val push_kept : 'a t -> 'a -> unit
(** {!push}, except that when the slot at the length already holds [x]
    (physically) it is not written again. *)

val pop_last : 'a t -> 'a
(** Remove and return the last element; the caller has checked
    {!is_empty}.  There is deliberately no option-returning pop: drain
    loops (mark stacks, SATB buffers) stay allocation-free per element.
    Raises [Invalid_argument] when empty. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] drops every element from index [n] on (a no-op when
    [n >= length t]), clearing the freed slots to the dummy, without
    allocating.  Raises [Invalid_argument] when
    [n < 0]. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a -> 'a list -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place stable sort of the live prefix. *)

val find_first_geq : 'a t -> key:int -> of_elt:('a -> int) -> int
(** Binary search over a vector sorted by [of_elt]: first index whose
    key is >= [key], or [length t] when all keys are smaller.  Locates
    the first object overlapping a card during remembered-set scans. *)
