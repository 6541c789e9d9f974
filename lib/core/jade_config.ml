(** Jade configuration (§3–4 defaults): the settings experiments vary.

    The paper's defaults: at most 16 groups are built per cycle, and the
    chasing mode raises the number of concurrent GC threads to the core
    count while mutators are stalled.  The paper's fixed parameters are
    constants beside their readers: the 85 % liveness filter and the
    85 % young reservation in {!Grouping}, the tenuring age in {!Young},
    the trigger thresholds in [collector.ml], and the poll interval
    shared with the baselines in {!Collectors.Common}. *)

(** Deliberately planted protocol bugs, for sanitizer regression tests
    ([lib/analysis]).  A planted variant must never ship in an
    experiment config; it exists so CI can prove the correctness
    tooling catches real failures rather than merely staying silent. *)
type planted_bug =
  | No_bug
  | Skip_remset_insert
      (** the young write barrier "forgets" the old→young remembered-set
          insert (and the matching card dirtying), so a young collection
          can miss an old-to-young edge — caught by the verifier's
          independent remset recomputation *)
  | Racy_forwarding
      (** evacuation re-checks the forwarding slot, then yields before
          installing — the classic check-then-act window a real CAS
          closes — so two workers can both relocate one object; caught
          by the race detector as unordered forwarding installs *)
  | Racy_forwarding_window
      (** like [Racy_forwarding] but the check-then-act window is one
          engine quantum of real (ticked) work instead of a yield, so
          the race only fires when another worker is {e scheduled into}
          the window — round-robin never trips it; exists to prove the
          schedule-space explorer ([gcsim check]) finds interleaving
          bugs the default schedule hides *)

type t = {
  young_workers : int;  (** concurrent young GC threads *)
  old_workers : int;  (** concurrent old GC threads *)
  max_groups : int;  (** Algorithm 1, MAX_GROUP *)
  chasing_mode : bool;  (** §4.3: all-core evacuation during stalls *)
  compressed_oops : bool;
      (** disabled only for the Table 5 apples-to-apples comparison *)
  use_crdt : bool;
      (** ablation: when false, remembered-set building ignores the CRDT
          and conservatively scans every dirty card (§3.3 without the
          piggyback optimization) *)
  concurrent_weak_refs : bool;
      (** §4.4 future work: process the weak discover list concurrently
          instead of inside the final-mark pause *)
  planted_bug : planted_bug;  (** sanitizer regression tests only *)
}

let default =
  {
    young_workers = 1;
    old_workers = 1;
    max_groups = 16;
    chasing_mode = true;
    compressed_oops = true;
    use_crdt = true;
    concurrent_weak_refs = false;
    planted_bug = No_bug;
  }
