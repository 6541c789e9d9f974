(** Plain-text table rendering for benchmark output.

    Columns size to their widest cell; the first column is left-aligned,
    the rest right-aligned. *)

type t

val create : title:string -> headers:string list -> t
val add_row : t -> string list -> t
val render : t -> string
val print : t -> unit
