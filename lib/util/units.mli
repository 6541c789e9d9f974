(** Time and size units.

    All simulator time is [int] virtual nanoseconds (63-bit ints cover
    ~292 years) and sizes are bytes. *)

val ns : int
val us : int
val ms : int
val sec : int

val kib : int
val mib : int

val pp_time_ns : int -> string
(** Adaptive unit, e.g. ["1.23ms"]. *)

val to_ms : int -> float
val to_sec : int -> float

val pp_bytes : int -> string
(** Adaptive unit, e.g. ["512.0KiB"]. *)
