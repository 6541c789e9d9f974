(** Log-bucketed latency histogram (HDR-histogram style).

    Values are non-negative integers (virtual nanoseconds in practice).
    Small values (below [2^sub_bits]) are recorded exactly; larger values
    fall into logarithmic buckets with [sub_bits] bits of mantissa,
    giving a worst-case relative quantization error of [2^-sub_bits]
    (~0.8 % with 7 bits) — ample for p99/p999 reporting.  This is the
    simulator's one percentile definition: every pause and latency
    statistic is read from a histogram.

    The buckets are allocated by the first record, so a histogram that
    records nothing costs a few words instead of the full layout; counts,
    percentiles and merges read exactly as with the layout allocated up
    front. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Record one occurrence of a value; negative values clamp to 0. *)

val total : t -> int
val max_value : t -> int

val min_value : t -> int
(** 0 when empty. *)

val mean : t -> float
val sum : t -> float

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0, 100]; 0 when empty.  Exact for
    values below [2^sub_bits], otherwise the bucket midpoint (never above
    the recorded maximum). *)

val of_list : int list -> t
(** A histogram holding each value of the list once. *)

val merge : into:t -> t -> unit
(** Add [src]'s counts into [into]. *)
