(** Dense bitset backed by an [int array] of 63-bit words.

    Backs the card table, remembered sets and the old-to-young
    remembered set (one bit per 512-byte card), mirroring the paper's
    memory-overhead arithmetic (1/4096 of the heap per remembered set);
    {!byte_size} reports the logical [ceil(nbits/8)] so the accounting
    is representation-independent.

    Iteration is word-at-a-time with lowest-set-bit extraction: sparse
    sets (dirty-card tables, remembered sets) scan at one load per 63
    clear bits instead of one test per bit. *)

type t

val create : int -> t
(** [create nbits]; raises [Invalid_argument] for negative sizes. *)

val length : t -> int
val cardinal : t -> int

val byte_size : t -> int
(** Memory footprint in bytes, for overhead accounting. *)

val get : t -> int -> bool

val set : t -> int -> bool
(** Returns [true] when the bit was newly set.  Bounds-checked. *)

val clear : t -> int -> unit
val clear_all : t -> unit

val clear_range : t -> lo:int -> hi:int -> unit
(** Clear every bit in [lo, hi) word-wise (interior words are zeroed
    with one store each); cardinal stays exact.  The batched
    replacement for per-bit {!clear} loops on the hot paths — a region
    release cleaning its whole card span, remset rebuilds. *)

val iter_set : (int -> unit) -> t -> unit
(** Visit set bits in increasing order (zero words are skipped). *)

val to_list : t -> int list

val snapshot_desc : t -> int Vec.t -> unit
(** [snapshot_desc t buf] empties [buf] and pushes the set bits onto it
    in decreasing order: the snapshot collectors hand out cards from,
    highest first (the claim order is part of the deterministic
    schedule).  A buffer kept across snapshots allocates nothing once
    it holds the largest set. *)
