(** Cross-region discover table (§3.3, "piggyback with marking").

    One global table mapping each 512-byte card to a 4-byte entry that
    records which {e other} regions the card's references point to,
    filled by the concurrent marking phase as it traverses live objects.
    Up to two distinct region ids fit an entry (the paper measured that
    83 % of dirty cards reference at most two foreign regions); a third
    distinct region overflows the entry, meaning the card must be
    rescanned during remembered-set building.  Remembered-set building
    then needs no card scanning for the exact entries: it maps each
    recorded region to its group and sets the group's bit directly,
    which is where Table 7's reduction in scanned cards comes from.

    The entries are allocated by the first {!record}; an untouched table
    reads [Empty] everywhere and owns no per-card words. *)

type t

type entry = Empty | One of int | Two of int * int | Overflow

val max_region_id : int
(** Largest encodable region id (16-bit halves, minus sentinels). *)

val create : total_cards:int -> t

val total_cards : t -> int

val byte_size : t -> int
(** 4 bytes per card: 0.78 % of the heap, the paper's figure. *)

val record : t -> card:int -> rid:int -> unit
(** Record that [card] holds a reference into region [rid].  Duplicates
    are stored once; a third distinct region overflows the entry
    permanently (until {!reset}).  Raises [Invalid_argument] when [rid]
    exceeds {!max_region_id}. *)

val get : t -> int -> entry
(** Raises [Invalid_argument] when the card is outside [0, total_cards).
    Allocates a [One] or [Two]: the verifier and the tests read entries
    this way, collectors through {!code}. *)

(** {2 Unboxed reads} *)

val code : t -> int -> int
(** A card's entry as an int, with no allocation: {!code_empty},
    {!code_overflow}, or a code for one or two regions, read with
    {!code_first} and {!code_second}.  Raises like {!get}. *)

val code_empty : int
val code_overflow : int

val code_first : int -> int
(** The first region of a code that is neither empty nor overflowed. *)

val code_second : int -> int
(** The second region of such a code, or [-1] when it records one. *)

val reset : t -> unit
(** Clear every entry (done at each marking cycle's start). *)

val iter_nonempty : (int -> entry -> unit) -> t -> unit
(** Iterate cards with at least one recorded region, in card order,
    each with its decoded entry (for the verifier). *)

val push_nonempty : t -> int Util.Vec.t -> unit
(** Push the cards with at least one recorded region onto the buffer,
    in card order, allocating nothing but the buffer's growth. *)

val stats : t -> int * int
(** [(nonempty_cards, overflowed_cards)]. *)
