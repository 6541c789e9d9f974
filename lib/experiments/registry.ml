(** The collector registry: every collector and variant the evaluation
    compares (§5.1). *)

type entry = {
  name : string;
  install : Runtime.Rt.t -> unit;
  concurrent_copy : bool;
      (** evacuates concurrently (vs STW evacuation like G1/LXR) *)
}

let g1 =
  { name = "g1"; install = (fun rt -> ignore (Collectors.G1.install rt));
    concurrent_copy = false }

let g1_10ms =
  {
    name = "g1-10ms";
    install =
      (fun rt ->
        ignore (Collectors.G1.install ~pause_target:(10 * Util.Units.ms) rt));
    concurrent_copy = false;
  }

let shenandoah =
  { name = "shenandoah";
    install = (fun rt -> ignore (Collectors.Shenandoah.install rt));
    concurrent_copy = true }

let zgc =
  { name = "zgc"; install = (fun rt -> ignore (Collectors.Zgc.install rt));
    concurrent_copy = true }

let genshen =
  { name = "genshen";
    install =
      (fun rt ->
        ignore Collectors.Generational.(install genshen rt));
    concurrent_copy = true }

let genz =
  { name = "genz";
    install = (fun rt -> ignore Collectors.Generational.(install genz rt));
    concurrent_copy = true }

let lxr =
  { name = "lxr"; install = (fun rt -> ignore (Collectors.Lxr.install rt));
    concurrent_copy = false }

let jade =
  { name = "jade"; install = (fun rt -> ignore (Jade.Collector.install rt));
    concurrent_copy = true }

(** Jade with a custom configuration (Fig. 8 ablations, Table 5 setup). *)
let jade_with ?(name = "jade*") config =
  {
    name;
    install = (fun rt -> ignore (Jade.Collector.install ~config rt));
    concurrent_copy = true;
  }

let all = [ jade; g1; g1_10ms; zgc; shenandoah; lxr; genz; genshen ]

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None -> invalid_arg ("unknown collector: " ^ name)

(** Parse a comma-separated collector list ("jade,g1,zgc") into entries,
    order preserved — the unit of fan-out for parallel sweeps
    ({!Util.Dpool.map_list}) and [gcsim run -c a,b,c -j N]. *)
let find_list names =
  String.split_on_char ',' names
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map find
