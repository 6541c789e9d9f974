(** Plain-text table rendering for benchmark output.

    A table is its title, its header row and its body rows, in order.
    Columns size to their widest cell; the first column is left-aligned,
    the rest right-aligned. *)

val render : title:string -> headers:string list -> string list list -> string
val print : title:string -> headers:string list -> string list list -> unit
