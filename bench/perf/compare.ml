(* [perf.exe compare A.json B.json]: B against baseline A, one row per
   (workload, metric), each metric judged against its own bound. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Relative change of [b]'s median from [a]'s, signed so that positive
   means worse. *)
let worsening (m : Catalog.metric) a b =
  let ma = Stats.median a and mb = Stats.median b in
  let d =
    if ma <> 0. then (mb -. ma) /. Float.abs ma
    else if mb = ma then 0.
    else Float.copy_sign Float.infinity (mb -. ma)
  in
  match m.Catalog.better with Catalog.Lower -> d | Catalog.Higher -> -.d

(* A metric whose repetitions spread wider than its bound is unresolved,
   unless every run of [b] reads better than every run of [a]. *)
let verdict (m : Catalog.metric) a b =
  let bound = m.Catalog.bound in
  let spread = Float.max (Stats.spread a) (Stats.spread b) in
  let a_lo, a_hi = Stats.min_max a and b_lo, b_hi = Stats.min_max b in
  let all_better =
    match m.Catalog.better with Catalog.Lower -> b_hi < a_lo | Catalog.Higher -> b_lo > a_hi
  in
  let d = worsening m a b in
  if spread > bound then if all_better then Better else Unresolved
  else if d > bound then Worse
  else if d < -.bound then Better
  else Same

let workloads j =
  List.map
    (fun w -> (Json.str (Option.get (Json.member "name" w)), w))
    (Json.list (Option.value ~default:Json.Null (Json.member "workloads" j)))

let metric_values w name =
  match Option.bind (Json.member "metrics" w) (Json.member name) with
  | None -> None
  | Some m -> Some (List.map Json.num (Json.list (Option.value ~default:Json.Null (Json.member "values" m))))

let provenance_line path j =
  match Json.member "provenance" j with
  | Some (Json.Obj kvs) ->
      Printf.sprintf "%s: %s" path
        (String.concat " "
           (List.map
              (fun (k, v) -> k ^ "=" ^ match v with Json.Str s -> s | v -> Json.to_string v)
              kvs))
  | _ -> path ^ ": (no provenance)"

(** Print the comparison; the number of rows judged worse, counting a
    changed fingerprint at the same seed as one. *)
let run path_a path_b =
  let a = Json.of_file path_a and b = Json.of_file path_b in
  print_endline ("# A " ^ provenance_line path_a a);
  print_endline ("# B " ^ provenance_line path_b b);
  let seed j = Option.bind (Json.member "provenance" j) (Json.member "seed") in
  let same_seed = seed a = seed b in
  if not same_seed then print_endline "# seeds differ: fingerprints are not compared";
  Printf.printf "%-22s %-28s %-9s %12s %12s %8s %8s %6s  %s\n" "workload" "metric" "unit"
    "A median" "B median" "change" "spread" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name (workloads b) with
      | None -> Printf.printf "%-22s (missing from B)\n" name
      | Some wb ->
          let fp w = Json.member "fingerprint" w in
          if same_seed && fp wa <> fp wb then begin
            incr worse;
            Printf.printf "%-22s %-28s fingerprint changed\n" name "fingerprint"
          end;
          List.iter
            (fun (m : Catalog.metric) ->
              match (metric_values wa m.Catalog.name, metric_values wb m.Catalog.name) with
              | Some (_ :: _ as va), Some (_ :: _ as vb) ->
                  let v = verdict m va vb in
                  if v = Worse then incr worse;
                  let ma = Stats.median va and mb = Stats.median vb in
                  Printf.printf "%-22s %-28s %-9s %12.6g %12.6g %7.2f%% %7.2f%% %5.1f%%  %s\n"
                    name m.Catalog.name m.Catalog.unit ma mb
                    (if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma)
                    (100. *. Float.max (Stats.spread va) (Stats.spread vb))
                    (100. *. m.Catalog.bound) (verdict_string v)
              | _ -> ())
            Catalog.end_to_end)
    (workloads a);
  !worse
