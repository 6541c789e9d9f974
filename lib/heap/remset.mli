(** Remembered sets (§3.3).

    A remembered set records, at card (512-byte) granularity, the heap
    locations that may hold references {e into} the memory the set
    covers: a region for G1, a whole collection group for Jade (so
    intra-group references need no entries — regions of a group are
    released together), or the old generation for old-to-young sets.
    Implemented as a bitset over the global card index space: each set
    costs heap_size/4096 bytes, the paper's overhead arithmetic. *)

type t

val create : name:string -> total_cards:int -> t

val add : t -> int -> bool
(** [add t card] inserts; returns [true] when newly inserted. *)

val mem : t -> int -> bool
val remove : t -> int -> unit
val cardinal : t -> int
val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Iterate member cards in increasing order. *)

val snapshot_desc : t -> int Util.Vec.t -> unit
(** Replace the buffer's contents with the member cards in decreasing
    order ({!Util.Bitset.snapshot_desc}). *)

val byte_size : t -> int
(** Memory footprint, for overhead reporting. *)
