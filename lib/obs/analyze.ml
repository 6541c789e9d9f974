(** Post-run trace analysis: pause-time distributions, MMU curves and
    evacuation totals.

    Pause percentiles come from {!Util.Histogram}, the definition
    {!Runtime.Metrics} uses for the same pauses, so a trace and the run's
    summary agree.  Every statistic is a pure function of the event
    stream: two byte-identical traces always analyze identically. *)

module Tp = Runtime.Tracepoint

type pause_stats = {
  count : int;
  total_ns : int;
  p50_ns : int;
  p95_ns : int;
  p99_ns : int;
  max_ns : int;
}

type t = {
  window_start : int;  (** analysis window: the recorded measurement
                           interval when [Recording] markers are present,
                           else the full trace span *)
  window_end : int;
  stw : pause_stats;  (** stop-the-world pauses inside the window *)
  stalls : pause_stats;  (** allocation stalls (single-mutator pauses) *)
  mmu : (int * float) list;
      (** [(window_ns, utilization)] ascending; the monotone lower
          envelope of raw MMU (see {!mmu_curve}) *)
  evac_batches : int;
  evac_bytes : int;
}

(* -- percentiles ----------------------------------------------------- *)

let pause_stats_of durs =
  let h = Util.Histogram.of_list durs in
  {
    count = Util.Histogram.total h;
    total_ns = int_of_float (Util.Histogram.sum h);
    p50_ns = Util.Histogram.percentile h 50.;
    p95_ns = Util.Histogram.percentile h 95.;
    p99_ns = Util.Histogram.percentile h 99.;
    max_ns = Util.Histogram.max_value h;
  }

(* -- MMU ------------------------------------------------------------- *)

(* Merge possibly-overlapping intervals (sorted by start) into a disjoint
   ascending list. *)
let merge_intervals ivs =
  let ivs = List.sort compare ivs in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
        match acc with
        | (s0, e0) :: acc' when s <= e0 -> go ((s0, max e0 e) :: acc') rest
        | _ -> go ((s, e) :: acc) rest)
  in
  go [] ivs

(* Total overlap of the merged interval list with [a, b]. *)
let overlap_with ivs a b =
  List.fold_left
    (fun acc (s, e) -> acc + max 0 (min e b - max s a))
    0 ivs

(* Raw minimum mutator utilization for one window size: the worst window
   of length [w] inside [lo, hi] given merged pause intervals.  A worst
   window can always be shifted until an edge touches a pause boundary,
   so evaluating windows anchored at each interval start and end is
   exhaustive. *)
let raw_mmu ivs ~lo ~hi w =
  let span = hi - lo in
  if span <= 0 || w <= 0 then 1.
  else if w >= span then
    let busy = overlap_with ivs lo hi in
    max 0. (float_of_int (span - busy) /. float_of_int span)
  else begin
    let worst = ref (overlap_with ivs lo (lo + w)) in
    let consider a =
      let a = max lo (min a (hi - w)) in
      let o = overlap_with ivs a (a + w) in
      if o > !worst then worst := o
    in
    List.iter
      (fun (s, e) ->
        consider s;
        consider (e - w))
      ivs;
    max 0. (float_of_int (w - !worst) /. float_of_int w)
  end

(* The standard window ladder, clipped to the span; the span itself is
   always the last rung so the curve ends at whole-window utilization. *)
let ladder span =
  let base =
    [
      1_000_000; 2_000_000; 5_000_000; 10_000_000; 20_000_000; 50_000_000;
      100_000_000; 200_000_000; 500_000_000; 1_000_000_000;
    ]
  in
  let below = List.filter (fun w -> w < span) base in
  if span > 0 then below @ [ span ] else below

(** MMU curve over the ladder of window sizes, as the monotone lower
    envelope: raw MMU is not monotone in window size (a window just
    large enough to span two pause clusters can be worse than a smaller
    one between them), so each reported point is the minimum raw MMU
    over all windows {e at least} that large — the strongest guarantee
    of the form "any window of length >= w has utilization >= u", which
    is non-decreasing in [w] by construction. *)
let mmu_curve ivs ~lo ~hi =
  let ws = ladder (hi - lo) in
  let raw = List.map (fun w -> (w, raw_mmu ivs ~lo ~hi w)) ws in
  let rec suffix_min = function
    | [] -> []
    | (w, u) :: rest ->
        let rest' = suffix_min rest in
        let u' =
          List.fold_left (fun acc (_, v) -> min acc v) u rest'
        in
        (w, u') :: rest'
  in
  suffix_min raw

(* -- main analysis --------------------------------------------------- *)

let analyze (events : Trace.event array) =
  let n = Array.length events in
  (* Analysis window: first Recording-on to the last Recording-off after
     it; the whole span when markers are absent or unbalanced.  Stamps
     are monotone only per thread, so the span runs from the least stamp
     to the greatest, not from the first event to the last. *)
  let first_ts, last_ts =
    if n = 0 then (0, 0)
    else
      Array.fold_left
        (fun (lo, hi) (e : Trace.event) ->
          (Int.min lo e.Trace.ts, Int.max hi e.Trace.ts))
        (max_int, min_int) events
  in
  let w_on = ref None and w_off = ref None in
  Array.iter
    (fun (e : Trace.event) ->
      match e.Trace.payload with
      | Tp.Recording { on = true } when !w_on = None -> w_on := Some e.Trace.ts
      | Tp.Recording { on = false } when !w_on <> None ->
          w_off := Some e.Trace.ts
      | _ -> ())
    events;
  let window_start = match !w_on with Some t -> t | None -> first_ts in
  let window_end = match !w_off with Some t -> t | None -> last_ts in
  let in_window ts = ts >= window_start && ts <= window_end in
  (* Pause populations (the Pause event is emitted at the pause's end). *)
  let stw_durs = ref [] and stall_durs = ref [] in
  let stw_ivs = ref [] in
  let evac_batches = ref 0 and evac_bytes = ref 0 in
  Array.iter
    (fun (e : Trace.event) ->
      match e.Trace.payload with
      | Tp.Pause { kind; start_ns; dur_ns } ->
          if in_window e.Trace.ts then
            if kind = "alloc-stall" then stall_durs := dur_ns :: !stall_durs
            else begin
              stw_durs := dur_ns :: !stw_durs;
              stw_ivs := (start_ns, start_ns + dur_ns) :: !stw_ivs
            end
      | Tp.Evac_batch { bytes; _ } ->
          incr evac_batches;
          evac_bytes := !evac_bytes + bytes
      | Tp.Phase_begin _ | Tp.Phase_end _ | Tp.Region_claim _
      | Tp.Region_release _ | Tp.Request_begin | Tp.Request_end _
      | Tp.Boundary _ | Tp.Recording _ ->
          ())
    events;
  let ivs =
    merge_intervals
      (List.filter_map
         (fun (s, e) ->
           let s = max s window_start and e = min e window_end in
           if e > s then Some (s, e) else None)
         !stw_ivs)
  in
  {
    window_start;
    window_end;
    stw = pause_stats_of !stw_durs;
    stalls = pause_stats_of !stall_durs;
    mmu = mmu_curve ivs ~lo:window_start ~hi:window_end;
    evac_batches = !evac_batches;
    evac_bytes = !evac_bytes;
  }

(** Utilization guaranteed for any window at least [w] ns long: the
    curve value at the largest ladder rung <= [w] (conservative — the
    envelope is non-decreasing), or the first rung's value when [w] is
    below the whole ladder. *)
let mmu_at t w =
  match t.mmu with
  | [] -> 1.
  | (_, u0) :: _ ->
      List.fold_left (fun acc (w', u) -> if w' <= w then u else acc) u0 t.mmu
