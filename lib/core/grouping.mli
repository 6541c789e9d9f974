(** Simulation-based hand-over-hand grouping — Algorithm 1 of the paper
    (§3.2) — and free-space estimation — Algorithm 2 (§4.2).

    The grouping turns the old regions eligible for collection into an
    ordered list of {e groups}, the unit of Jade's incremental
    reclamation: each evacuation round copies one group's live objects
    and releases the whole group immediately.  The plan simulates a
    hand-over-hand compaction: the first group's cumulative live bytes
    must fit the estimated free space, and every later group reuses the
    first group's region count because each completed round frees at
    least that many regions.  No data moves while planning; the cost is
    microseconds (see the micro benchmark suite). *)

type plan = {
  groups : Heap.Region.t list array;
      (** [groups.(i)] is collected and released in round [i] *)
  tracked : int;  (** regions that passed the liveness filter (line 1-6) *)
  skipped : int;  (** tracked regions dropped by the MAX_GROUP cap *)
}

val live_threshold : float
(** Tracked-list filter of Algorithm 1: regions at or above 85 %
    liveness are not evacuated. *)

val estimate_free_space :
  free_region_count:int ->
  region_bytes:int ->
  promotion_rate:float ->
  estimated_gc_time_ns:int ->
  int
(** Algorithm 2: bytes available as old-evacuation destinations — whole
    free regions, minus the promotion expected to land during the
    remaining GC time ([promotion_rate] in bytes/s), scaled by the 15 %
    left after Algorithm 2's reservation of 85 % for the young
    generation's own activity.  Clamped at zero. *)

val build :
  config:Jade_config.t -> free_bytes:int -> Heap.Region.t list -> plan
(** Algorithm 1.  [candidates] are the old regions eligible this cycle
    (the caller applies kind/epoch filters); [build] filters
    out regions at or above {!live_threshold} liveness, sorts the
    rest by live bytes ascending, and splits them into at most
    [config.max_groups] groups.  Guarantees:
    - every group's regions are below the liveness threshold;
    - the first group's live bytes fit [free_bytes] (except the
      single-region progress case when even one region exceeds it);
    - groups after the first have exactly the first group's region count,
      except the final remainder group;
    - no region appears twice.
    These invariants are property-tested in [test/test_jade.ml]. *)

val num_groups : plan -> int
val total_regions : plan -> int
