(** Plain-text table rendering for benchmark output.

    A table is its title, its header row and its body rows, in order.
    Columns size to their widest cell; the first column is left-aligned,
    the rest right-aligned.  Every row has exactly one cell per header:
    [render] raises [Invalid_argument], naming the title, on a row that
    does not. *)

val render : title:string -> headers:string list -> string list list -> string
