(* expect: R6 *)
(* Stdlib's polymorphic comparisons on a hot path, in every spelling:
   bare, Stdlib-qualified, and passed as a function value. *)
let clamp n = min (max n 0) 100

let widest a b = Stdlib.max a b

let sorted xs = List.sort compare xs
