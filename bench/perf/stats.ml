(* Order statistics over a handful of repetitions. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so the spreads printed here are the ones the
   acceptance check computes from the same values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need two values";
  let m = n + 1 in
  let cut i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 3)

let min_max xs =
  List.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (Float.infinity, Float.neg_infinity) xs

(* Relative spread of repetitions around their median: the quartile
   distance from four values on, the min-max range below that.  Zero for
   fewer than two values or a zero median. *)
let spread xs =
  let med = median xs in
  if List.length xs < 2 || med = 0. then 0.
  else
    let lo, hi = if List.length xs >= 4 then quartiles xs else min_max xs in
    (hi -. lo) /. Float.abs med

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))
