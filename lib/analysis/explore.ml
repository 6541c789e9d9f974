(** Bounded concurrency model checker over the simulation engine's
    scheduling-policy seam.

    The engine's default schedule is one point in the space of legal
    interleavings; the protocol bugs worth finding (forwarding-CAS
    races, remembered-set publication windows, safepoint/evacuation
    overlaps) live in the rest of it.  This module systematically
    re-runs a {e scenario} — a closure that builds a fresh
    engine/heap/runtime and drives a full simulation — under perturbed
    schedules, with the accounting verifier and the happens-before race
    detector attached as oracles ([Sanitizer.install ~level:Fast]).  An
    oracle raises {!Report.Violation}; {!run_schedule} is the one place
    it is caught, and the first one raised is the schedule's report.

    A schedule is encoded as its divergence from round-robin: a sparse
    list of [(choice point ordinal, left-rotation)] pairs fed to the
    engine policy ({!Sim.Engine.set_policy}); the empty list is the
    default schedule.  Three strategies explore the space:

    - {!Rand}: PCT-style random walk — every schedule forces at most
      [depth] rotations at ordinals sampled uniformly over the baseline
      schedule's choice points, from a seeded PRNG.  Cheap, probes deep.
    - {!Bounded}: breadth-first exhaustive search over all rotation
      vectors for the first [depth] choice points, shallow divergences
      first, capped by the schedule budget.
    - {!Pruned}: {!Bounded} plus a sleep-set-style reduction — a child
      rotation that only reorders threads whose runs touched disjoint
      metadata (per the race detector's access footprints, including
      condition-variable and spawn edges) is equivalent to its parent
      and skipped.  Only this strategy records footprints and the
      candidate tids they are compared by; the others, replays and the
      minimizer record nothing beside the oracles, so their scheduling
      rounds allocate no host memory and their oracle hooks allocate
      only for what the race detector keeps (a forwarding install, a
      released region's clock, a scheduling event).

    Every schedule counted in [explored] also folds its simulated end
    state into {!result}'s [end_digest], so simulated state no oracle
    checks still shows in the output.

    A violating schedule is shrunk by delta debugging to a minimal set
    of forced rotations that still reproduces the same broken invariant,
    then reported with both the original and minimized choice sequences;
    {!Schedule} gives them a replayable on-disk form.

    With [jobs > 1] candidate schedules fan out over a fixed domain pool
    ({!Util.Dpool}), one fresh engine/heap/oracle set per schedule per
    domain; results are folded back in task order, so every field of
    {!result} — and any replay file written from it — is byte-identical
    to a sequential run.  Shrinking stays sequential: ddmin is a chain
    of dependent replays. *)

module RtM = Runtime.Rt

type strategy = Rand | Bounded | Pruned

let strategy_to_string = function
  | Rand -> "rand"
  | Bounded -> "bounded"
  | Pruned -> "pruned"

let strategy_of_string = function
  | "rand" | "random" -> Some Rand
  | "bounded" | "exhaustive" -> Some Bounded
  | "pruned" | "sleep-set" -> Some Pruned
  | _ -> None

type config = {
  strategy : strategy;
  schedules : int;  (** exploration budget: max schedules to run *)
  depth : int;
      (** [Bounded]/[Pruned]: choice-point horizon K; [Rand]: max forced
          rotations (preemption points) per schedule *)
  seed : int;  (** PRNG seed for [Rand]; ignored by the others *)
  jobs : int;
      (** domains to fan candidate schedules over ({!Util.Dpool}); the
          result — violation, minimized schedule, and every reported
          count — is byte-identical to [jobs = 1].  Schedules past the
          first violation in task order may run speculatively; they are
          discarded, not counted. *)
}

type scenario = attach:(RtM.t -> unit) -> unit
(** One full simulation: build a fresh engine/heap/runtime, call
    [attach rt] {e before} running (it installs the policy and oracles),
    then drive the run to completion.  Called once per schedule.

    The runtime must not be used after the scenario returns: the
    explorer then retires its heap ({!Heap.Heap_impl.retire}), and the
    next schedule's {!Heap.Heap_impl.create} in the same domain rebuilds
    on its storage.  Read whatever the schedule should report before
    returning. *)

type violation = {
  report : Report.t;  (** from replaying the minimized schedule *)
  schedule : (int * int) list;  (** minimized divergence *)
  first_schedule : (int * int) list;  (** divergence as first found *)
  first_report : Report.t;
}

type result = {
  explored : int;  (** schedules run while searching (incl. baseline) *)
  shrink_runs : int;  (** extra schedules run by the minimizer *)
  pruned : int;  (** children skipped as footprint-equivalent *)
  baseline_choice_points : int;
  end_digest : string;
      (** MD5 chain, in task order, over the simulated end state of every
          schedule counted in [explored]: the same integers bench/perf
          fingerprints a run with (virtual time, requests completed,
          pauses and pause time, busy time per thread kind, bytes
          allocated, uid watermark), read before the heap is retired.
          Like every other field it is byte-identical at any [jobs]. *)
  violation : violation option;
}

(* ------------------------------------------------------------------ *)
(* One schedule = one instrumented run of the scenario.                 *)

(* Footprint items: metadata accesses keyed (resource tag, key), plus
   synthetic synchronization tokens so threads that interact only
   through condition variables or spawning still intersect. *)
let res_tag : Heap.Access.res -> int = function
  | Heap.Access.Forward -> 0
  | Heap.Access.Fwd_table -> 1
  | Heap.Access.Card -> 2
  | Heap.Access.Mark_bit -> 3
  | Heap.Access.Region_ctl -> 4
  | Heap.Access.Remset -> 5

let cond_tag = 100
let spawn_tag = 101

type footprints = (int, (int * int, unit) Hashtbl.t) Hashtbl.t

let foot_add (fp : footprints) tid item =
  let set =
    match Hashtbl.find_opt fp tid with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 64 in
        Hashtbl.replace fp tid s;
        s
  in
  Hashtbl.replace set item ()

let foot_disjoint (fp : footprints) t1 t2 =
  match (Hashtbl.find_opt fp t1, Hashtbl.find_opt fp t2) with
  | None, _ | _, None -> true
  | Some a, Some b ->
      let small, big = if Hashtbl.length a <= Hashtbl.length b then (a, b) else (b, a) in
      Hashtbl.fold (fun item () acc -> acc && not (Hashtbl.mem big item)) small
        true

type run_record = {
  rr_report : Report.t option;
  rr_choice_points : int;  (** choice points encountered *)
  rr_applied : (int * int) list;  (** non-zero rotations applied, ascending *)
  rr_arity : int array;  (** candidates per choice point, first [horizon] *)
  rr_cands : int array array;
      (** candidate tids per choice point, first [horizon]; recorded
          with the footprints only *)
  rr_cores : int;
  rr_foot : footprints option;  (** [Pruned] only *)
  rr_end : string;  (** simulated end state, folded into the digest *)
}

(* The simulated end state of a run, from the integers bench/perf
   fingerprints a run with.  Requests completed are the ones the
   metrics recorded, which is what [Runtime.Driver.run] reports. *)
let end_state rt =
  let engine = rt.RtM.engine and m = rt.RtM.metrics in
  let busy = Sim.Engine.busy_ns engine in
  Printf.sprintf
    "now=%d completed=%d pauses=%d pause_ns=%d busy=%d/%d/%d alloc=%d uids=%d"
    (Sim.Engine.now engine)
    (Runtime.Metrics.requests_completed m)
    (Runtime.Metrics.pause_count m)
    (Runtime.Metrics.cumulative_pause m)
    (busy Sim.Engine.Mutator) (busy Sim.Engine.Gc) (busy Sim.Engine.Aux)
    rt.RtM.heap.Heap.Heap_impl.bytes_allocated (Heap.Gobj.uid_watermark ())

(** Run the scenario once.  [forced ~ordinal ~arity] names the rotation
    to apply at each choice point (out-of-range rotations fall back to
    0, which keeps replays of stale files well-defined); [horizon] caps
    how many choice points record their arity for the exhaustive
    strategies.  With [footprints] (the pruned strategy only) those
    choice points also record their candidates, and every thread's
    metadata accesses and synchronization edges are collected for
    {!footprint_prune}; without it the oracle hooks record nothing. *)
let run_schedule (scenario : scenario) ~horizon ~footprints
    ~(forced : ordinal:int -> arity:int -> int) : run_record =
  let ordinal = ref 0 in
  let applied = ref [] in
  let arity = Array.make (max horizon 1) 0 in
  let cands = Array.make (max horizon 1) [||] in
  let cores = ref 0 in
  let foot : footprints option =
    if footprints then Some (Hashtbl.create 32) else None
  in
  let report = ref None in
  let attached = ref None in
  let attach rt =
    attached := Some rt;
    let engine = rt.RtM.engine in
    cores := Sim.Engine.cores engine;
    Sim.Engine.set_policy engine
      (Some
         (fun n ->
           let j = !ordinal in
           incr ordinal;
           if j < horizon then begin
             arity.(j) <- n;
             if footprints then
               cands.(j) <- Array.init n (Sim.Engine.candidate_tid engine)
           end;
           let r = forced ~ordinal:j ~arity:n in
           let r = if r >= 0 && r < n then r else 0 in
           if r <> 0 then applied := (j, r) :: !applied;
           r));
    match foot with
    | None -> Sanitizer.install ~level:Fast rt
    | Some foot ->
        Sanitizer.install ~level:Fast
          ~on_access:(fun _op res ~key ~site:_ ->
            foot_add foot (Sim.Engine.current_tid engine) (res_tag res, key))
          ~on_trace:(fun ev ->
            match ev with
            | Sim.Engine.Spawned { parent; child; _ } ->
                let item = (spawn_tag, child) in
                foot_add foot parent item;
                foot_add foot child item
            | Sim.Engine.Woken { waker; woken; cond } ->
                let item = (cond_tag, Hashtbl.hash cond) in
                foot_add foot waker item;
                foot_add foot woken item)
          rt
  in
  let finished = ref false and end_ = ref "" in
  Fun.protect
    ~finally:(fun () -> Heap.Access.reset ())
    (fun () ->
      (try
         scenario ~attach;
         finished := true
       with
      | Report.Violation r -> report := Some r
      | Sim.Engine.Deadlock msg ->
          report :=
            Some
              {
                Report.engine = "explorer";
                invariant = "schedule-deadlock";
                collector = "-";
                phase = "-";
                region = None;
                object_id = None;
                detail = "perturbed schedule deadlocked: " ^ msg;
              }
      | e ->
          report :=
            Some
              {
                Report.engine = "explorer";
                invariant = "uncaught-exception";
                collector = "-";
                phase = "-";
                region = None;
                object_id = None;
                detail = Printexc.to_string e;
              });
      Option.iter
        (fun rt ->
          end_ := end_state rt;
          (* Only a run that finished hands its heap on.  One cut short
             may hold a copy whose forwarding pointer was never installed
             (the detector raises on the second of two racing installs),
             and its field array is also its source's: recycling would
             pool that array twice. *)
          if !finished then Heap.Heap_impl.retire rt.RtM.heap)
        !attached);
  {
    rr_report = !report;
    rr_choice_points = !ordinal;
    rr_applied = List.rev !applied;
    rr_arity = arity;
    rr_cands = cands;
    rr_cores = !cores;
    rr_foot = foot;
    rr_end = !end_;
  }

let forced_of_choices choices =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (o, r) -> Hashtbl.replace tbl o r) choices;
  fun ~ordinal ~arity:_ ->
    match Hashtbl.find_opt tbl ordinal with Some r -> r | None -> 0

(** Replay a schedule once; [Some report] if it violates an oracle.
    The heap it leaves for recycling is dropped on return. *)
let replay scenario choices =
  Fun.protect ~finally:Heap.Heap_impl.drop_retired (fun () ->
      (run_schedule scenario ~horizon:0 ~footprints:false
         ~forced:(forced_of_choices choices))
        .rr_report)

(* ------------------------------------------------------------------ *)
(* Delta-debugging minimizer.                                           *)

(* Same broken invariant, not necessarily the same object: shrinking
   must not wander onto a different bug, but uids and timestamps may
   legitimately differ between interleavings that trip one bug. *)
let same_failure (a : Report.t) (b : Report.t) =
  a.Report.engine = b.Report.engine && a.Report.invariant = b.Report.invariant

(** ddmin over the forced-choice list: find a small (1-minimal under the
    chunking actually tried) subset that still reproduces the failure.
    Returns the subset and the number of replays spent. *)
let minimize scenario ~(matches : Report.t -> bool) choices =
  let runs = ref 0 in
  let fails subset =
    incr runs;
    match replay scenario subset with
    | Some r -> matches r
    | None -> false
  in
  let split lst n =
    let len = List.length lst in
    let base = len / n and extra = len mod n in
    let rec take k xs =
      if k = 0 then ([], xs)
      else
        match xs with
        | [] -> ([], [])
        | x :: rest ->
            let a, b = take (k - 1) rest in
            (x :: a, b)
    in
    let rec go i xs =
      if i >= n then []
      else
        let size = base + if i < extra then 1 else 0 in
        let chunk, rest = take size xs in
        chunk :: go (i + 1) rest
    in
    go 0 lst
  in
  let rec ddmin cs n =
    if List.length cs <= 1 then cs
    else begin
      let chunks = split cs n in
      match List.find_opt (fun c -> c <> [] && fails c) chunks with
      | Some c -> ddmin c 2
      | None -> (
          let complements =
            List.mapi
              (fun i _ ->
                List.concat (List.filteri (fun j _ -> j <> i) chunks))
              chunks
          in
          match
            List.find_opt
              (fun c -> List.length c < List.length cs && fails c)
              complements
          with
          | Some c -> ddmin c (max 2 (n - 1))
          | None ->
              if n < List.length cs then ddmin cs (min (List.length cs) (2 * n))
              else cs)
    end
  in
  let minimal = ddmin choices 2 in
  (minimal, !runs)

(* ------------------------------------------------------------------ *)
(* Strategies.                                                          *)

let found scenario first_record first_report =
  let first_schedule = first_record.rr_applied in
  let minimal, shrink_runs =
    minimize scenario ~matches:(same_failure first_report) first_schedule
  in
  (* Replay the minimized schedule for the report actually shipped: its
     sites/clocks must describe the schedule the file reproduces. *)
  let report, shrink_runs =
    match replay scenario minimal with
    | Some r -> (r, shrink_runs + 1)
    | None ->
        (* Non-monotonic shrink artifact; fall back to the original. *)
        (first_report, shrink_runs + 1)
  in
  ( { report; schedule = minimal; first_schedule; first_report },
    shrink_runs )

(* Parallel batches.  Candidate schedules are embarrassingly parallel —
   each runs the scenario on a fresh engine/heap/oracle set — so a
   batch of up to [cfg.jobs] of them fans out over a domain pool and
   the records come back in task order.  Determinism is preserved by
   *processing* strictly in task order with the sequential loop's exact
   bookkeeping: a schedule is counted (and allowed to set the result or
   extend the frontier) only while no earlier schedule has violated.
   Batch-mates past the first violation ran speculatively; their
   records are dropped, so every reported count matches [jobs = 1]. *)
let run_batch cfg (tasks : (unit -> run_record) array) =
  Util.Dpool.map ~jobs:cfg.jobs (Array.length tasks) (fun k -> tasks.(k) ())

(* The schedules counted so far, in task order, and the digest of their
   end states. *)
type tally = { mutable counted : int; mutable digest : string }

let count tally (rec_ : run_record) =
  tally.counted <- tally.counted + 1;
  tally.digest <- Digest.to_hex (Digest.string (tally.digest ^ rec_.rr_end))

(* Seeded random walk: each schedule forces at most [depth] rotations at
   ordinals sampled uniformly over the baseline's choice points.  The
   schedule at index [i] is a pure function of [(cfg.seed, i)], which is
   what makes the walk batchable. *)
let rand_schedule scenario cfg ~total i () =
  let prng = Util.Prng.create ((cfg.seed * 1_000_003) + i) in
  let budget = max 1 cfg.depth in
  let points = Hashtbl.create 8 in
  for _ = 1 to budget do
    (* Sampling with replacement; duplicates collapse, so a schedule
       carries between 1 and [depth] preemption points. *)
    Hashtbl.replace points (Util.Prng.int prng total) (Util.Prng.bits prng)
  done;
  let forced ~ordinal ~arity =
    match Hashtbl.find_opt points ordinal with
    | Some salt when arity >= 2 -> 1 + (salt mod (arity - 1))
    | _ -> 0
  in
  run_schedule scenario ~horizon:0 ~footprints:false ~forced

let explore_rand scenario cfg ~tally ~(baseline : run_record) =
  let total = max 1 baseline.rr_choice_points in
  let result = ref None in
  let i = ref 1 in
  while !result = None && !i < cfg.schedules do
    let batch = min cfg.jobs (cfg.schedules - !i) in
    let recs =
      run_batch cfg
        (Array.init batch (fun k -> rand_schedule scenario cfg ~total (!i + k)))
    in
    Array.iter
      (fun rec_ ->
        if !result = None then begin
          count tally rec_;
          (match rec_.rr_report with
          | Some r -> result := Some (rec_, r)
          | None -> ());
          incr i
        end)
      recs
  done;
  !result

(* Breadth-first exhaustive search over rotation vectors for the first
   [depth] choice points; [prune] may veto a child before it runs. *)
let explore_bounded scenario cfg ~tally
    ~(prune : run_record -> int -> int -> bool) ~(baseline : run_record) =
  let pruned = ref 0 in
  let result = ref None in
  let queue = Queue.create () in
  let push_children (v : int array) (rec_ : run_record) =
    (* Extend at every choice point at or past this vector's length:
       the run shares its prefix with the child up to that point, so the
       recorded arity there is the child's arity too. *)
    for j = Array.length v to cfg.depth - 1 do
      for r = 1 to rec_.rr_arity.(j) - 1 do
        if prune rec_ j r then incr pruned
        else begin
          let child = Array.make (j + 1) 0 in
          Array.blit v 0 child 0 (Array.length v);
          child.(j) <- r;
          Queue.push child queue
        end
      done
    done
  in
  let run_vector (v : int array) () =
    let forced ~ordinal ~arity:_ =
      if ordinal < Array.length v then v.(ordinal) else 0
    in
    run_schedule scenario ~horizon:cfg.depth
      ~footprints:(cfg.strategy = Pruned) ~forced
  in
  push_children [||] baseline;
  while
    !result = None
    && (not (Queue.is_empty queue))
    && tally.counted < cfg.schedules
  do
    (* A batch never outruns the budget, and FIFO order is undisturbed:
       the popped vectors all predate any child they generate, so
       processing the batch in pop order pushes children exactly where
       the sequential loop would have. *)
    let batch =
      min (Queue.length queue) (min cfg.jobs (cfg.schedules - tally.counted))
    in
    let vs = Array.init batch (fun _ -> Queue.pop queue) in
    let recs = run_batch cfg (Array.map run_vector vs) in
    Array.iteri
      (fun k rec_ ->
        if !result = None then begin
          count tally rec_;
          match rec_.rr_report with
          | Some r -> result := Some (rec_, r)
          | None -> push_children vs.(k) rec_
        end)
      recs
  done;
  (!pruned, !result)

(* Sleep-set-style equivalence: rotating candidates [r..] ahead of
   [0..r-1] only permutes the round's host order when everyone is served
   anyway (n <= cores); if additionally every reordered pair touched
   disjoint metadata and shares no synchronization edge, the child
   schedule is observably equal to its parent and need not run.  A run
   that recorded no footprints prunes nothing. *)
let footprint_prune (rec_ : run_record) j r =
  let n = rec_.rr_arity.(j) in
  let cands = rec_.rr_cands.(j) in
  match rec_.rr_foot with
  | None -> false
  | Some foot ->
      n <= rec_.rr_cores
      && begin
           let disjoint = ref true in
           for i = 0 to r - 1 do
             for l = r to n - 1 do
               if !disjoint && not (foot_disjoint foot cands.(i) cands.(l))
               then disjoint := false
             done
           done;
           !disjoint
         end

let run scenario cfg =
  if cfg.schedules < 1 then invalid_arg "Explore.run: schedules";
  if cfg.depth < 1 then invalid_arg "Explore.run: depth";
  if cfg.jobs < 1 then invalid_arg "Explore.run: jobs";
  (* Each schedule's heap is recycled into the next one its domain runs;
     the last one is let go here.  Pool domains end with their batch and
     take their slots with them. *)
  Fun.protect ~finally:Heap.Heap_impl.drop_retired @@ fun () ->
  let horizon =
    match cfg.strategy with Rand -> 0 | Bounded | Pruned -> cfg.depth
  in
  let baseline =
    run_schedule scenario ~horizon ~footprints:(cfg.strategy = Pruned)
      ~forced:(fun ~ordinal:_ ~arity:_ -> 0)
  in
  let tally = { counted = 0; digest = "" } in
  count tally baseline;
  match baseline.rr_report with
  | Some r ->
      (* The default schedule already violates: nothing to search or
         shrink, the empty schedule is the reproducer. *)
      {
        explored = 1;
        shrink_runs = 0;
        pruned = 0;
        baseline_choice_points = baseline.rr_choice_points;
        end_digest = tally.digest;
        violation =
          Some
            {
              report = r;
              schedule = [];
              first_schedule = [];
              first_report = r;
            };
      }
  | None ->
      let pruned, hit =
        match cfg.strategy with
        | Rand -> (0, explore_rand scenario cfg ~tally ~baseline)
        | Bounded ->
            explore_bounded scenario cfg ~tally
              ~prune:(fun _ _ _ -> false)
              ~baseline
        | Pruned ->
            explore_bounded scenario cfg ~tally ~prune:footprint_prune ~baseline
      in
      let violation, shrink_runs =
        match hit with
        | None -> (None, 0)
        | Some (rec_, r) ->
            let v, shrink_runs = found scenario rec_ r in
            (Some v, shrink_runs)
      in
      {
        explored = tally.counted;
        shrink_runs;
        pruned;
        baseline_choice_points = baseline.rr_choice_points;
        end_digest = tally.digest;
        violation;
      }
