(* Monomorphic comparisons, and names that only look like Stdlib's:
   a labelled parameter, a local binding, a pattern variable, and an
   [open] of a module with its own [max]. *)
let clamp n = Int.min (Int.max n 0) 100

let sorted xs = List.sort Int.compare xs

let halve x = Float.max 0. (x /. 2.)

let check v ~max = v <= max

let spread xs =
  let min = List.fold_left Int.min max_int xs in
  List.map (fun x -> x - min) xs

let first_max = function (max, _) :: _ -> max | [] -> 0

let bigger a b = Int.(max a b)
