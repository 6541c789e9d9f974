(** Simulation-based hand-over-hand grouping — Algorithm 1 (§3.2) — and
    free-space estimation — Algorithm 2 (§4.2).

    The grouping simulates a hand-over-hand compaction: the first group's
    cumulative live bytes are bounded by the estimated free space (its
    evacuation must fit in memory that exists now); every later group
    reuses the first group's region count, because each completed round
    releases at least that many regions.  No data moves here — the
    output is a plan, and the cost is microseconds (benchmarked by the
    micro suite). *)

open Heap

type plan = {
  groups : Region.t list array;  (** groups.(i) collected in round i *)
  tracked : int;  (** regions that passed the liveness filter *)
  skipped : int;  (** tracked regions left out by the MAX_GROUP cap *)
}

(** Tracked-list filter (85 %): regions at or above this liveness are
    not worth evacuating. *)
let live_threshold = 0.85

(** Algorithm 2 reservation (85 %): the share of free memory kept for
    the young generation's own activity. *)
let young_ratio = 0.85

(** Algorithm 2.  [free_bytes] available for old evacuation: whole free
    regions, minus the young promotion expected to land during the
    remaining GC time, scaled by the young reservation. *)
let estimate_free_space ~free_region_count ~region_bytes ~promotion_rate
    ~estimated_gc_time_ns =
  let free_space = free_region_count * region_bytes in
  let promoted =
    int_of_float
      (promotion_rate *. (float_of_int estimated_gc_time_ns /. 1e9))
  in
  let free_space = Int.max 0 (free_space - promoted) in
  int_of_float (float_of_int free_space *. (1. -. young_ratio))

(** Algorithm 1.  [candidates] are the old regions eligible this cycle
    (the caller applies the kind/epoch filters); this function
    applies the liveness filter, sorts, and splits into groups. *)
let build ~(config : Jade_config.t) ~free_bytes candidates =
  (* Lines 1-6: the tracked list, filtered by live ratio. *)
  let tracked_list =
    List.filter
      (fun (r : Region.t) -> Region.live_ratio r < live_threshold)
      candidates
  in
  let tracked = List.length tracked_list in
  (* Line 8: sort by live bytes so evacuation starts with the cheapest
     (most garbage per copied byte). *)
  let tracked_list =
    List.sort
      (fun (a : Region.t) b ->
        Int.compare a.Region.live_bytes b.Region.live_bytes)
      tracked_list
  in
  (* Lines 10-33: split into groups. *)
  let groups = ref [] in
  let rest = ref tracked_list in
  let group_size = ref 0 in
  let stop = ref false in
  while (not !stop) && !rest <> [] do
    if !groups = [] then begin
      (* Lines 13-23: first group, bounded by estimated free bytes. *)
      let budget = ref free_bytes in
      let g = ref [] in
      let continue_ = ref true in
      while !continue_ do
        match !rest with
        | [] -> continue_ := false
        | r :: tl ->
            if !budget - r.Region.live_bytes < 0 && !g <> [] then
              continue_ := false
            else begin
              budget := !budget - r.Region.live_bytes;
              g := r :: !g;
              rest := tl;
              (* A region larger than the whole budget still goes in when
                 the group is empty (progress guarantee), then closes it. *)
              if !budget < 0 then continue_ := false
            end
      done;
      group_size := List.length !g;
      groups := [ List.rev !g ]
    end
    else begin
      (* Lines 26-33: subsequent groups reuse the first group's count. *)
      let g = ref [] in
      let n = ref 0 in
      while !n < !group_size && !rest <> [] do
        (match !rest with
        | r :: tl ->
            g := r :: !g;
            rest := tl
        | [] -> ());
        incr n
      done;
      groups := List.rev !g :: !groups
    end;
    (* Lines 34-36: cap the number of groups. *)
    if List.length !groups >= config.max_groups then stop := true
  done;
  {
    groups = Array.of_list (List.rev !groups);
    tracked;
    skipped = List.length !rest;
  }

let num_groups plan = Array.length plan.groups

let total_regions plan =
  Array.fold_left (fun acc g -> acc + List.length g) 0 plan.groups
