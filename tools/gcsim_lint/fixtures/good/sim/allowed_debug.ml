(* Tricky negative: an env-gated debug heartbeat, deliberately exempted
   in source with a reason.  The attribute suppresses the R1 diagnostic,
   and callers of [debug] stay clean. *)
let enabled =
  (match Sys.getenv_opt "SIM_DEBUG" with Some "1" -> true | _ -> false)
  [@@gcsim.allow "env-gated debug flag, read once at startup"]

let debug msg = if enabled then prerr_endline msg
  [@@gcsim.allow "debug heartbeat on stderr, dead unless SIM_DEBUG=1"]

let tick n =
  debug "tick";
  n + 1
