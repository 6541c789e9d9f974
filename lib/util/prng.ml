(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit [t]
    so that a run is a pure function of its seed: two simulations with the
    same configuration and seed produce byte-identical results.  splitmix64
    is small, fast, passes BigCrush, and supports cheap stream splitting.

    The 64-bit state lives unboxed in an 8-byte [Bytes.t], read and
    written with [Bytes.get_int64_le] / [set_int64_le] (compiler
    primitives that ocamlopt keeps in registers).  A [mutable int64]
    record field would box both the stored state and the step's result
    on every draw; here the step is inlined into each draw, so [bits],
    [int], [chance] and friends allocate nothing. *)

type t = Bytes.t

let[@inline] get t = Bytes.get_int64_le t 0
let[@inline] set t s = Bytes.set_int64_le t 0 s

let of_state s =
  let t = Bytes.create 8 in
  set t s;
  t

let create seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* Core splitmix64 step (Steele, Lea & Flood 2014).  Inlined into every
   draw: its int64 result only stays unboxed when the caller consumes it
   in the same function body. *)
let[@inline] step t =
  let open Int64 in
  let z = add (get t) 0x9E3779B97F4A7C15L in
  set t z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [split t] derives an independent generator; used to give each thread or
    mutator its own stream without sharing mutable state. *)
let split t = of_state (step t)

(** Non-negative int uniform in [0, 2^62). *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (step t) 2)

(** [int t n] is uniform in [0, n). Requires [n > 0]. *)
let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  bits t mod n

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)
let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

(** Uniform float in [0, 1). *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) *. 0x1.0p-53

let bool t = Int64.logand (step t) 1L = 1L

(** [chance t p] is true with probability [p]. *)
let chance t p = float t < p

(** Exponentially distributed value with the given [mean]; used for Poisson
    arrival processes in the open-loop request driver. *)
let exponential t ~mean =
  let u = float t in
  (* Guard against log 0. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u
