(** Log-bucketed latency histogram (HDR-histogram style).

    Values are non-negative integers (virtual nanoseconds in practice).
    Small values (below [2^sub_bits]) are recorded exactly; larger values
    fall into log buckets with [sub_bits] bits of mantissa, giving a
    worst-case relative quantization error of [2^-sub_bits] (~0.8 % with
    7 bits) — ample for p99/p999 reporting.

    The bucket array is allocated by the first {!record} (or the first
    {!merge} of a histogram that has one): a histogram that records
    nothing, such as the stall histogram of a run without stalls, owns
    no buckets. *)

(** Mantissa bits of a bucket. *)
let sub_bits = 7

type t = {
  mutable counts : int array;  (** [[||]] until the first record *)
  mutable total : int;
  mutable sum : int;
      (** exact integer sum: an [int] field keeps {!record} free of the
          boxed-float store a [float] field costs; the float views
          ({!sum}, {!mean}) equal a float accumulator's while the total
          stays below 2^53 ns (~104 days) *)
  mutable max_value : int;
  mutable min_value : int;
}

let create () =
  {
    counts = [||];
    total = 0;
    sum = 0;
    max_value = 0;
    min_value = max_int;
  }

let msb_position v =
  let pos = ref 0 and x = ref v in
  while !x > 1 do
    incr pos;
    x := !x lsr 1
  done;
  !pos

(* Bucket layout: bucket = v for v < 2^sub_bits; otherwise buckets are
   indexed by (exponent, mantissa) where exponent = msb - sub_bits + 1 >= 1
   and mantissa is the sub_bits bits below the most significant bit. *)
let bucket_of v =
  let v = Int.max v 0 in
  if v < 1 lsl sub_bits then v
  else begin
    let exponent = msb_position v - sub_bits + 1 in
    let mantissa = (v lsr exponent) land ((1 lsl sub_bits) - 1) in
    (exponent * (1 lsl sub_bits)) + mantissa
  end

(* Midpoint of the value range a bucket covers; exact for small values.
   For bucket (e, m) the covered range is [m << e, (m+1) << e). *)
let midpoint_of bucket =
  if bucket < 1 lsl sub_bits then bucket
  else begin
    let exponent = bucket / (1 lsl sub_bits) in
    let mantissa = bucket mod (1 lsl sub_bits) in
    (mantissa lsl exponent) + (1 lsl (exponent - 1))
  end

(* Allocate the full layout: cold, once per histogram. *)
let own_buckets t =
  t.counts <- Array.make ((63 - sub_bits) * (1 lsl sub_bits)) 0

let record t v =
  if Array.length t.counts = 0 then own_buckets t;
  let b = Int.min (bucket_of v) (Array.length t.counts - 1) in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum + v;
  if v > t.max_value then t.max_value <- v;
  if v < t.min_value then t.min_value <- v

let total t = t.total
let max_value t = t.max_value
let min_value t = if t.total = 0 then 0 else t.min_value
let mean t = if t.total = 0 then 0. else float_of_int t.sum /. float_of_int t.total
let sum t = float_of_int t.sum

(** [percentile t p] with [p] in [0, 100]; 0 when empty. *)
let percentile t p =
  if t.total = 0 then 0
  else begin
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.total)))
    in
    let acc = ref 0 and result = ref t.max_value in
    (try
       Array.iteri
         (fun b c ->
           if c > 0 then begin
             acc := !acc + c;
             if !acc >= rank then begin
               result := min (midpoint_of b) t.max_value;
               raise Exit
             end
           end)
         t.counts
     with Exit -> ());
    !result
  end

let of_list vs =
  let t = create () in
  List.iter (record t) vs;
  t

let merge ~into src =
  if Array.length src.counts > Array.length into.counts then own_buckets into;
  Array.iteri
    (fun i c -> if c > 0 then into.counts.(i) <- into.counts.(i) + c)
    src.counts;
  into.total <- into.total + src.total;
  into.sum <- into.sum + src.sum;
  if src.max_value > into.max_value then into.max_value <- src.max_value;
  if src.total > 0 && src.min_value < into.min_value then
    into.min_value <- src.min_value
