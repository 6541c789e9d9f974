(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit
    generator so a run is a pure function of its seed; {!split} derives
    independent streams for threads and mutators. *)

type t

val create : int -> t
val copy : t -> t

val split : t -> t
(** Derive an independent generator (advances the parent). *)

val bits : t -> int
(** Uniform non-negative int in [0, 2^62). *)

val int : t -> int -> int
(** [int t n] uniform in [0, n); requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed (Poisson interarrival times). *)
