(* The bench driver's command-line options, set once by main.ml and read
   by every experiment group. *)

(* --quick: reduced run lengths and suites. *)
let quick = ref false

(* -j N: fan-out width for each experiment's independent cells.  Every
   (collector x config) cell builds its own machine and all simulator
   state is domain-scoped, so the rendered tables are byte-identical at
   any value ({!Util.Dpool.map_list}).  Cells must not print: a table
   renders after the whole sweep returns. *)
let jobs = ref 1
