(* Runs workloads and turns what they booked into metrics.

   Every measured repetition is a fresh child process ([perf.exe child]),
   started one at a time with one OCaml domain: peak heap is then per
   run, no run inherits another's host-GC debt, and the parent stays a
   single load generator. *)

let now = Unix.gettimeofday

(** What one repetition of one workload reports. *)
type report = {
  error : string option;  (** exception, OOM, violation or crash *)
  fingerprint : string;
  first_run : string;
  e2e : (string * float) list;
  layer : (string * float) list;  (** traced only: ledger metrics *)
  samples : (string * int) list;  (** traced only: sampler counts *)
}

let failed_report error =
  { error = Some error; fingerprint = ""; first_run = ""; e2e = []; layer = []; samples = [] }

let e2e_of (l : Ledger.t) ~wall =
  let g = Ledger.get l in
  let sim_ns = g "sim_ns" in
  let top_words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    ("sim_ms_per_host_s", sim_ns /. 1e6 /. g "runtime.driver_run_s");
    ("wall_s", wall);
    ("setup_s", g "experiments.prepare_s");
    ("alloc_mwords_per_sim_ms", g "minor_words" /. sim_ns);
    ("promoted_mwords_per_sim_ms", g "promoted_words" /. sim_ns);
    ("peak_heap_mb", float_of_int (top_words * (Sys.word_size / 8)) /. 1048576.);
  ]
  @ (if Hashtbl.mem l.Ledger.sums "schedules_per_host_s" then
       [ ("schedules_per_host_s", g "schedules_per_host_s") ]
     else [])
  @
  match l.Ledger.summaries with
  | [] -> []
  | ss ->
      let over f = Stats.geomean (List.map f ss) in
      [
        ("sim_throughput_rps", over (fun s -> s.Experiments.Harness.throughput));
        ( "sim_p99_ms",
          over (fun s -> float_of_int s.Experiments.Harness.p99_latency /. 1e6) );
      ]

(* Ledger-backed per-layer metrics (everything but the sampler shares
   and the tracing overhead, which need more than one run). *)
let layer_of (l : Ledger.t) ~workload =
  let gc = Gc.quick_stat () in
  let value name =
    match name with
    | "heap.pool_record_hit_pct" ->
        100. *. Ledger.get l "heap.pool_records_reused"
        /. Float.max 1. (Ledger.get l "heap.objects_minted")
    | "ocaml.minor_gcs" -> float_of_int gc.Gc.minor_collections
    | "ocaml.major_gcs" -> float_of_int gc.Gc.major_collections
    | name -> Ledger.get l name
  in
  Catalog.timed @ Catalog.counted @ Catalog.derived
  |> List.filter (fun (m : Catalog.metric) ->
         Catalog.applies m workload && m.Catalog.name <> "trace_overhead_pct")
  |> List.map (fun (m : Catalog.metric) -> (m.Catalog.name, value m.Catalog.name))

(** Run one repetition in this process.  The sampler runs only when
    [traced], and only around the workload itself. *)
let measure ~workload ~seed ~traced ~scale =
  let w = Workloads.find workload in
  let l = Ledger.create ~traced in
  if traced then Sampler.start ();
  let t0 = now () in
  let outcome =
    match w.Workloads.run l ~seed ~scale with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  if traced then Sampler.stop ();
  match outcome with
  | Some error -> failed_report error
  | None ->
      {
        error = None;
        fingerprint = l.Ledger.fingerprint;
        first_run = l.Ledger.first_run;
        e2e = e2e_of l ~wall;
        layer = (if traced then layer_of l ~workload else []);
        samples = (if traced then Sampler.snapshot () else []);
      }

(* --- child-process transport ---------------------------------------- *)

let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let report_to_json r =
  Json.Obj
    [
      ("error", match r.error with Some e -> Json.Str e | None -> Json.Null);
      ("fingerprint", Json.Str r.fingerprint);
      ("first_run", Json.Str r.first_run);
      ("e2e", nums r.e2e);
      ("layer", nums r.layer);
      ("samples", nums (List.map (fun (k, n) -> (k, float_of_int n)) r.samples));
    ]

let report_of_json j =
  let field k = Option.value ~default:Json.Null (Json.member k j) in
  let floats k = List.map (fun (k, v) -> (k, Json.num v)) (Json.assoc (field k)) in
  {
    error = (match field "error" with Json.Str e -> Some e | _ -> None);
    fingerprint = Json.str (field "fingerprint");
    first_run = Json.str (field "first_run");
    e2e = floats "e2e";
    layer = floats "layer";
    samples = List.map (fun (k, v) -> (k, int_of_float v)) (floats "samples");
  }

(** Run one repetition in a fresh child process and wait for it. *)
let spawn ~workload ~seed ~traced =
  let args =
    [| Sys.executable_name; "child"; "--workload"; workload; "--seed";
       string_of_int seed; "--trace"; (if traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec last acc =
    match input_line ic with
    | line -> last (if String.trim line = "" then acc else line)
    | exception End_of_file -> acc
  in
  let line = last "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      try report_of_json (Json.parse line)
      with Json.Parse_error e -> failed_report ("unreadable child report: " ^ e))
  | Unix.WEXITED n -> failed_report (Printf.sprintf "child exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failed_report (Printf.sprintf "child killed by signal %d" n)

(* --- aggregation ---------------------------------------------------- *)

(** The repetitions of one workload, after the correctness gate. *)
type outcome = {
  workload : string;
  reports : report list;  (** the untraced repetitions *)
  attempted : int;  (** repetitions run, traced ones included *)
  failures : string list;  (** one line per failed repetition *)
  reference : string option;  (** the fingerprint runs were held to *)
}

(** Gate a workload's repetitions.  At seed 42 they must match the
    recorded fingerprint; at other seeds they must agree with the first
    successful one.  Traced repetitions count as attempts and are held to
    the same fingerprint (tracing must not perturb the simulation), but
    report no end-to-end values. *)
let outcome ~workload ~seed ~untraced ~traced =
  let all = untraced @ traced in
  let reference =
    match Catalog.expected_fingerprint ~seed workload with
    | Some fp -> Some fp
    | None -> List.find_map (fun r -> if r.error = None then Some r.fingerprint else None) all
  in
  let failures =
    List.filter_map
      (fun r ->
        match (r.error, reference) with
        | Some e, _ -> Some e
        | None, Some fp when r.fingerprint <> fp ->
            Some
              (Printf.sprintf "fingerprint %s, expected %s (first run: %s)"
                 r.fingerprint fp r.first_run)
        | None, _ -> None)
      all
  in
  { workload; reports = untraced; attempted = List.length all; failures; reference }

(* A metric's values over the successful repetitions; fail_rate is one
   value over all of them. *)
let metric_values (o : outcome) (m : Catalog.metric) =
  if m.Catalog.name = "fail_rate" then
    [ float_of_int (List.length o.failures) /. float_of_int (max 1 o.attempted) ]
  else
    List.filter_map
      (fun r -> if r.error = None then List.assoc_opt m.Catalog.name r.e2e else None)
      o.reports

(* Pooled sampler shares and ledger medians over the traced repetitions,
   plus the tracing overhead against the untraced ones. *)
let per_layer ~workload ~untraced ~traced =
  let ok = List.filter (fun r -> r.error = None) traced in
  let count k = List.fold_left (fun acc r -> acc + Option.value ~default:0 (List.assoc_opt k r.samples)) 0 ok in
  let samples = count "samples" in
  let pct k = 100. *. float_of_int (count k) /. float_of_int (max 1 samples) in
  let median_of name = Stats.median (List.filter_map (fun r -> List.assoc_opt name r.layer) ok) in
  let wall rs =
    Stats.median (List.filter_map (fun r -> if r.error = None then List.assoc_opt "wall_s" r.e2e else None) rs)
  in
  let base = wall untraced in
  List.filter_map
    (fun (m : Catalog.metric) ->
      let name = m.Catalog.name in
      if not (Catalog.applies m workload) then None
      else
        let v =
          if name = "host.samples" then float_of_int samples
          else if name = "trace_overhead_pct" then 100. *. (wall traced -. base) /. base
          else if String.starts_with ~prefix:"self_pct." name then
            pct (String.sub name 9 (String.length name - 9))
          else if String.starts_with ~prefix:"kind_pct." name then
            pct ("kind." ^ String.sub name 9 (String.length name - 9))
          else median_of name
        in
        Some (name, v))
    Catalog.per_layer

(* --- provenance ----------------------------------------------------- *)

(* First stdout line of a command run from the current directory, stderr
   discarded; None when it fails. *)
let capture prog args =
  try
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out_w null in
    Unix.close out_w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr out_r in
    let line = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> line | _ -> None
  with Unix.Unix_error _ -> None

(* Only a checkout's own git metadata is consulted: outside a git tree
   the revision is "unknown" rather than whatever a parent directory
   holds. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    match capture "git" [ "rev-parse"; "--short"; "HEAD" ] with
    | None -> "unknown"
    | Some rev -> (
        match capture "git" [ "status"; "--porcelain"; "--untracked-files=no" ] with
        | Some _ -> rev ^ "-dirty"
        | None -> rev)

let provenance ~seed ~reps ~runs =
  [
    ("git_rev", Json.Str (git_rev ()));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("seed", Json.Num (float_of_int seed));
    ("reps", Json.Num (float_of_int reps));
    ("runs_per_workload", Json.Num (float_of_int runs));
  ]

let print_provenance prov =
  Printf.printf "# %s\n"
    (String.concat " "
       (List.map
          (fun (k, v) ->
            k ^ "=" ^ match v with Json.Str s -> s | v -> Json.to_string v)
          prov));
  match List.assoc_opt "git_rev" prov with
  | Some (Json.Str rev) when String.ends_with ~suffix:"-dirty" rev ->
      let warn =
        "WARNING: the working tree is dirty; these numbers do not belong to " ^ rev
        ^ " alone"
      in
      Printf.printf "# %s\n%!" warn;
      prerr_endline ("perf: " ^ warn)
  | _ -> ()

(* --- printing ------------------------------------------------------- *)

let end_to_end_table (o : outcome) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "== %s: %d run%s, fingerprint %s ==\n" o.workload o.attempted
    (if o.attempted = 1 then "" else "s")
    (Option.value ~default:"-" o.reference);
  List.iter (fun f -> Printf.bprintf b "  FAILED: %s\n" f) o.failures;
  Printf.bprintf b "  %-28s %-9s %14s %14s %14s %3s\n" "metric" "unit" "median" "min" "max" "n";
  List.iter
    (fun (m : Catalog.metric) ->
      if Catalog.applies m o.workload then
        let vs = metric_values o m in
        let lo, hi = Stats.min_max vs in
        Printf.bprintf b "  %-28s %-9s %14.6g %14.6g %14.6g %3d\n" m.Catalog.name
          m.Catalog.unit (Stats.median vs) lo hi (List.length vs))
    Catalog.end_to_end;
  Buffer.contents b

let per_layer_table ~workload layer =
  let b = Buffer.create 4096 in
  Printf.bprintf b "== %s: per-layer (traced) ==\n" workload;
  List.iter
    (fun (m : Catalog.metric) ->
      match List.assoc_opt m.Catalog.name layer with
      | Some v -> Printf.bprintf b "  %-34s %-6s %14.6g\n" m.Catalog.name m.Catalog.unit v
      | None -> Printf.bprintf b "  %-34s %-6s %14s\n" m.Catalog.name m.Catalog.unit "n/a")
    Catalog.per_layer;
  Buffer.contents b

(* Result-file form of one workload's repetitions, read by [compare]. *)
let outcome_to_json (o : outcome) =
  let metric (m : Catalog.metric) =
    let vs = metric_values o m in
    let lo, hi = Stats.min_max vs in
    ( m.Catalog.name,
      Json.Obj
        [
          ("unit", Json.Str m.Catalog.unit);
          ("values", Json.Arr (List.map (fun v -> Json.Num v) vs));
          ("median", Json.Num (Stats.median vs));
          ("min", Json.Num lo);
          ("max", Json.Num hi);
          ("n", Json.Num (float_of_int (List.length vs)));
        ] )
  in
  Json.Obj
    [
      ("name", Json.Str o.workload);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int (List.length o.failures)));
      ("failures", Json.Arr (List.map (fun f -> Json.Str f) o.failures));
      ("fingerprint", match o.reference with Some fp -> Json.Str fp | None -> Json.Null);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun m -> if Catalog.applies m o.workload then Some (metric m) else None)
             Catalog.end_to_end) );
    ]
