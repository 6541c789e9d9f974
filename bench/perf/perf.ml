(* The repository benchmark (see README.md in this directory).

     perf.exe run --seed S [--reps N] [--out FILE]
     perf.exe trace --seed S
     perf.exe compare A.json B.json
     perf.exe bench --workload W --seed S --seconds T --trace 0|1

   [run] measures every workload N times with tracing off and prints the
   end-to-end metrics; [trace] runs one untraced and one traced
   repetition per workload and prints the per-layer ledger; [compare]
   judges B against baseline A; [bench] measures one workload for T
   seconds and ends with a one-line JSON result.  Exits non-zero when
   any repetition fails. *)

open Perf_bench

let usage =
  "usage: perf.exe run --seed S [--reps N] [--out FILE]\n\
  \       perf.exe trace --seed S\n\
  \       perf.exe compare A.json B.json\n\
  \       perf.exe bench --workload W --seed S --seconds T --trace 0|1"

let die msg =
  prerr_endline ("perf: " ^ msg);
  prerr_endline usage;
  exit 2

(* Flags of one subcommand; [seed] is required everywhere it is read. *)
let seed = ref None
let reps = ref 3
let out = ref None
let workload = ref None
let seconds = ref None
let trace = ref false
let positional = ref []

let parse argv =
  let specs =
    [
      ("--seed", Arg.Int (fun n -> seed := Some n), "S workload seed");
      ("--reps", Arg.Set_int reps, "N repetitions per workload (run)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE result file");
      ("--workload", Arg.String (fun w -> workload := Some w), "W workload name");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "T measuring time");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false | 1 -> trace := true | _ -> raise (Arg.Bad "--trace wants 0 or 1")),
        "0|1 traced measurement" );
    ]
  in
  try Arg.parse_argv ~current:(ref 1) argv specs (fun p -> positional := !positional @ [ p ]) usage
  with Arg.Bad msg | Arg.Help msg -> die (List.hd (String.split_on_char '\n' msg))

let required name = function Some v -> v | None -> die ("missing " ^ name)

let the_workload () =
  let w = required "--workload" !workload in
  if not (List.mem w Workloads.names) then
    die (Printf.sprintf "unknown workload %S (want one of: %s)" w (String.concat ", " Workloads.names));
  w

let write_json path j =
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc

let print_table s =
  print_newline ();
  print_string s;
  flush stdout

(* Untraced repetitions of every workload. *)
let run_cmd () =
  let seed = required "--seed" !seed in
  if !reps < 1 then die "--reps must be at least 1";
  let prov = Runner.provenance ~seed ~reps:!reps ~runs:!reps in
  Runner.print_provenance prov;
  let outcomes =
    List.map
      (fun workload ->
        let reports = List.init !reps (fun _ -> Runner.spawn ~workload ~seed ~traced:false) in
        let o = Runner.outcome ~workload ~seed ~untraced:reports ~traced:[] in
        print_table (Runner.end_to_end_table o);
        o)
      Workloads.names
  in
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           [
             ("provenance", Json.Obj prov);
             ("workloads", Json.Arr (List.map Runner.outcome_to_json outcomes));
           ]);
      Printf.printf "\nwrote %s\n" path)
    !out;
  if List.exists (fun (o : Runner.outcome) -> o.Runner.failures <> []) outcomes then exit 1

(* One untraced and one traced repetition of every workload. *)
let trace_cmd () =
  let seed = required "--seed" !seed in
  Runner.print_provenance (Runner.provenance ~seed ~reps:1 ~runs:2);
  let failed =
    List.filter
      (fun workload ->
        let untraced = [ Runner.spawn ~workload ~seed ~traced:false ] in
        let traced = [ Runner.spawn ~workload ~seed ~traced:true ] in
        let o = Runner.outcome ~workload ~seed ~untraced ~traced in
        List.iter (fun f -> Printf.printf "\n%s FAILED: %s\n" workload f) o.Runner.failures;
        print_table
          (Runner.per_layer_table ~workload (Runner.per_layer ~workload ~untraced ~traced));
        o.Runner.failures <> [])
      Workloads.names
  in
  if failed <> [] then exit 1

(* What BENCHMARK.json's command runs: repetitions of one workload for
   [--seconds] (at least one; no repetition starts that would, at the
   pace of the previous one, end past the deadline), then one JSON
   line. *)
let bench_cmd () =
  let workload = the_workload () in
  let seed = required "--seed" !seed in
  let seconds = required "--seconds" !seconds in
  let traced = !trace in
  let deadline = Unix.gettimeofday () +. seconds in
  let untraced = ref [] and traced_reports = ref [] in
  let rec loop () =
    let t0 = Unix.gettimeofday () in
    untraced := Runner.spawn ~workload ~seed ~traced:false :: !untraced;
    if traced then traced_reports := Runner.spawn ~workload ~seed ~traced:true :: !traced_reports;
    let t1 = Unix.gettimeofday () in
    if t1 +. (t1 -. t0) <= deadline then loop ()
  in
  loop ();
  let untraced = List.rev !untraced and traced_reports = List.rev !traced_reports in
  let runs = List.length untraced + List.length traced_reports in
  Runner.print_provenance (Runner.provenance ~seed ~reps:(List.length untraced) ~runs);
  let o = Runner.outcome ~workload ~seed ~untraced ~traced:traced_reports in
  print_table (Runner.end_to_end_table o);
  let metrics =
    if traced then begin
      let layer = Runner.per_layer ~workload ~untraced ~traced:traced_reports in
      print_table (Runner.per_layer_table ~workload layer);
      List.map
        (fun (m : Catalog.metric) ->
          (m.Catalog.name, Option.value ~default:Float.nan (List.assoc_opt m.Catalog.name layer), m))
        Catalog.json_per_layer
    end
    else
      List.map
        (fun (m : Catalog.metric) -> (m.Catalog.name, Stats.median (Runner.metric_values o m), m))
        Catalog.json_end_to_end
  in
  let failed = List.length o.Runner.failures in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int o.Runner.attempted));
            ("failed", Json.Num (float_of_int failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, (m : Catalog.metric)) ->
                     (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.Catalog.unit) ]))
                   metrics) );
          ]));
  if failed > 0 then exit 1

(* One repetition in this process; its report is the last stdout line. *)
let child_cmd () =
  let workload = the_workload () in
  let seed = required "--seed" !seed in
  let r = Runner.measure ~workload ~seed ~traced:!trace ~scale:1 in
  print_endline (Json.to_string (Runner.report_to_json r))

let () =
  if Array.length Sys.argv < 2 then die "missing subcommand";
  parse Sys.argv;
  match Sys.argv.(1) with
  | "run" -> run_cmd ()
  | "trace" -> trace_cmd ()
  | "compare" -> (
      match !positional with
      | [ a; b ] -> if Compare.run a b > 0 then exit 1
      | _ -> die "compare wants two result files")
  | "bench" -> bench_cmd ()
  | "child" -> child_cmd ()
  | cmd -> die ("unknown subcommand " ^ cmd)
