(* The simulator's layers are its library directories under lib/.  The
   sampler attributes a host stack sample to the innermost frame whose
   source file lies in a layer (or in this benchmark), so the time a
   layer spends inside the standard library counts as its own. *)

let layers =
  [ "sim"; "runtime"; "heap"; "collectors"; "core"; "workload"; "util"; "obs";
    "analysis"; "experiments" ]

(* Modules reported on their own ([self_pct.<layer>.<module>]): the ones a
   host-speed change is most likely to touch.  Every other module still
   counts towards its layer's total. *)
let hot_modules =
  [
    ("sim", [ "engine" ]);
    ("runtime", [ "mutator"; "driver"; "rt"; "safepoint"; "metrics" ]);
    ("heap", [ "gobj"; "heap_impl"; "region"; "remset"; "forwarding"; "crdt" ]);
    ( "collectors",
      [ "common"; "young_gen"; "stw_collect"; "g1"; "zgc"; "shenandoah"; "lxr";
        "genz"; "genshen"; "region_remsets" ] );
    ("core", [ "old"; "young"; "grouping"; "collector" ]);
    ("workload", [ "spec" ]);
    ("util", [ "prng"; "vec"; "bitset"; "pqueue"; "histogram" ]);
    ("obs", [ "trace"; "analyze"; "export" ]);
    ("analysis", [ "explore"; "verifier"; "race"; "sanitizer" ]);
  ]

type frame = Lib of string * string  (** layer, module *) | Bench | Foreign

(* Debug info names a source file by its path from the workspace root
   ("lib/heap/gobj.ml"); a leading directory is tolerated so absolute
   paths classify the same way. *)
let classify file =
  let parts = String.split_on_char '/' file in
  let rec find = function
    | "lib" :: layer :: [ base ] when List.mem layer layers ->
        Lib (layer, Filename.remove_extension base)
    | "bench" :: "perf" :: _ :: _ -> Bench
    | _ :: rest -> find rest
    | [] -> Foreign
  in
  find parts

(* Sampler keys for a frame attribution: the layer share and, for a hot
   module, the module share. *)
let keys = function
  | Lib (layer, m) ->
      let hot = try List.mem m (List.assoc layer hot_modules) with Not_found -> false in
      if hot then [ layer; layer ^ "." ^ m ] else [ layer ]
  | Bench -> [ "bench" ]
  | Foreign -> [ "other" ]
