(** The [gcsim --version] string. *)
let version = "0.1.0"
