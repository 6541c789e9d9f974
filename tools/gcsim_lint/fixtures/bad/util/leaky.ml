(* expect: R1 *)
(* A helper library function that launders host randomness.  Helper
   trees are linted like the core, so the primitive is an R1 error here,
   at its source; a caller elsewhere needs no diagnostic of its own. *)
let entropy () = Random.bits ()
