(* Tests for the discrete-event engine: timing, scheduling fairness,
   conditions, determinism, CPU accounting, deadlock detection. *)

open Sim

let us = Util.Units.us
let ms = Util.Units.ms

let test_single_thread_timing () =
  let e = Engine.create ~cores:1 ~quantum:(10 * us) () in
  let finished_at = ref 0 in
  ignore
    (Engine.spawn e ~name:"t" ~kind:Engine.Mutator (fun () ->
         Engine.tick (500 * us);
         finished_at := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "500us of work takes 500us" (500 * us) !finished_at

let test_core_contention () =
  (* 4 threads x 1ms of work on 2 cores -> 2ms wall time. *)
  let e = Engine.create ~cores:2 ~quantum:(10 * us) () in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "w%d" i)
         ~kind:Engine.Mutator
         (fun () -> Engine.tick ms))
  done;
  Engine.run e;
  Alcotest.(check int) "wall time is work/cores" (2 * ms) (Engine.now e)

let test_parallel_speedup () =
  (* 4 threads x 1ms on 4 cores -> 1ms wall time. *)
  let e = Engine.create ~cores:4 ~quantum:(10 * us) () in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "w%d" i)
         ~kind:Engine.Gc
         (fun () -> Engine.tick ms))
  done;
  Engine.run e;
  Alcotest.(check int) "perfect parallelism" ms (Engine.now e);
  Alcotest.(check int) "gc busy = 4ms" (4 * ms) (Engine.busy_ns e Engine.Gc)

let test_sleep_accuracy () =
  let e = Engine.create ~cores:1 () in
  let woke = ref 0 in
  ignore
    (Engine.spawn e ~name:"sleeper" ~kind:Engine.Aux (fun () ->
         Engine.sleep e (3 * ms);
         woke := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "sleep wakes on time" (3 * ms) !woke

let test_cond_signal_broadcast () =
  let e = Engine.create ~cores:2 () in
  let c = Engine.cond "c" in
  let woken = ref 0 in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "waiter%d" i)
         ~kind:Engine.Mutator
         (fun () ->
           Engine.wait c;
           incr woken))
  done;
  ignore
    (Engine.spawn e ~name:"signaller" ~kind:Engine.Aux (fun () ->
         Engine.tick (100 * us);
         Engine.signal e c;
         Engine.tick (100 * us);
         Engine.broadcast e c));
  Engine.run e;
  Alcotest.(check int) "all three woken" 3 !woken

let test_join () =
  let e = Engine.create ~cores:2 () in
  let order = ref [] in
  let worker =
    Engine.spawn e ~name:"worker" ~kind:Engine.Gc (fun () ->
        Engine.tick ms;
        order := "worker" :: !order)
  in
  ignore
    (Engine.spawn e ~name:"joiner" ~kind:Engine.Mutator (fun () ->
         Engine.join e worker;
         order := "joiner" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "join ordering" [ "joiner"; "worker" ] !order

let test_daemon_does_not_block_exit () =
  let e = Engine.create ~cores:1 () in
  ignore
    (Engine.spawn e ~daemon:true ~name:"daemon" ~kind:Engine.Gc (fun () ->
         while true do
           Engine.sleep e ms
         done));
  ignore
    (Engine.spawn e ~name:"main" ~kind:Engine.Mutator (fun () ->
         Engine.tick (5 * ms)));
  Engine.run e;
  Alcotest.(check bool) "exits with daemon alive" true (Engine.now e >= 5 * ms)

let test_deadlock_detection () =
  let e = Engine.create ~cores:1 () in
  let c = Engine.cond "never" in
  ignore
    (Engine.spawn e ~name:"stuck" ~kind:Engine.Mutator (fun () ->
         Engine.wait c));
  Alcotest.(check bool) "raises Deadlock" true
    (match Engine.run e with
    | () -> false
    | exception Engine.Deadlock _ -> true)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_daemon_sleepers_then_deadlock () =
  (* A daemon that sleeps a few periods and then finishes: while it is
     alive the engine jumps through its wakeups, and once the sleeper
     heap drains the blocked non-daemon must be reported as a deadlock
     rather than spinning or exiting. *)
  let e = Engine.create ~cores:2 () in
  let c = Engine.cond "never-signalled" in
  ignore
    (Engine.spawn e ~daemon:true ~name:"pulse" ~kind:Engine.Aux (fun () ->
         for _ = 1 to 5 do
           Engine.sleep e ms
         done));
  ignore
    (Engine.spawn e ~name:"stuck" ~kind:Engine.Mutator (fun () ->
         Engine.wait c));
  (match Engine.run e with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock msg ->
      Alcotest.(check bool) "names the blocked thread" true
        (contains ~needle:"stuck" msg));
  (* The final wake at 5 ms runs inside a round that still advances the
     clock by one quantum before the deadlock is detected. *)
  Alcotest.(check bool) "clock advanced through the daemon's wakes" true
    (Engine.now e >= 5 * ms && Engine.now e <= (5 * ms) + (100 * us))

let test_exception_propagates () =
  let e = Engine.create ~cores:1 () in
  ignore
    (Engine.spawn e ~name:"boom" ~kind:Engine.Mutator (fun () ->
         Engine.tick us;
         failwith "boom"));
  Alcotest.(check bool) "failure re-raised" true
    (match Engine.run e with
    | () -> false
    | exception Failure m -> m = "boom")

let test_until_limit () =
  let e = Engine.create ~cores:1 () in
  ignore
    (Engine.spawn e ~name:"long" ~kind:Engine.Mutator (fun () ->
         Engine.tick (100 * ms)));
  Engine.run ~until:(10 * ms) e;
  Alcotest.(check bool) "stopped at limit" true (Engine.now e <= 11 * ms)

let run_trace () =
  let e = Engine.create ~cores:2 ~quantum:(20 * us) () in
  let log = Buffer.create 64 in
  let c = Engine.cond "c" in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e
         ~name:(Printf.sprintf "t%d" i)
         ~kind:Engine.Mutator
         (fun () ->
           Engine.tick (i * 37 * us);
           Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e));
           if i = 2 then Engine.broadcast e c
           else if i = 1 then Engine.wait c))
  done;
  Engine.run e;
  Buffer.contents log

let test_determinism () =
  Alcotest.(check string) "identical traces" (run_trace ()) (run_trace ())

let test_quantum_fairness () =
  (* Two CPU-bound threads on one core must interleave via the quantum. *)
  let e = Engine.create ~cores:1 ~quantum:(10 * us) () in
  let last = ref "" and switches = ref 0 in
  for i = 1 to 2 do
    let name = Printf.sprintf "s%d" i in
    ignore
      (Engine.spawn e ~name ~kind:Engine.Mutator (fun () ->
           for _ = 1 to 10 do
             Engine.tick (25 * us);
             if !last <> name then incr switches;
             last := name
           done))
  done;
  Engine.run e;
  Alcotest.(check bool)
    (Printf.sprintf "threads interleaved (%d switches)" !switches)
    true (!switches > 5)

(* Same-seed determinism across a full mixed mutator/GC workload: two
   closed-loop harness runs of the jade collector must produce
   byte-identical summaries.  This is the regression fence for the
   event-driven scheduler core (sleeper heap ordering, idle jumps,
   multi-quantum collapse, local tick payment): any divergence in wake
   order or quantum accounting shows up as a changed metric. *)
let render_summary (s : Experiments.Harness.summary) =
  Printf.sprintf
    "%s/%s heap=%d tput=%h done=%d lat=%d/%d/%d/%d pause=%d/%d/%d/%d \
     n=%d stall=%d cpu=%d/%d util=%h elapsed=%d oom=%s"
    s.Experiments.Harness.collector s.Experiments.Harness.workload
    s.Experiments.Harness.heap_bytes s.Experiments.Harness.throughput
    s.Experiments.Harness.completed s.Experiments.Harness.p50_latency
    s.Experiments.Harness.p99_latency s.Experiments.Harness.p999_latency
    s.Experiments.Harness.max_latency s.Experiments.Harness.cumulative_pause
    s.Experiments.Harness.avg_pause s.Experiments.Harness.p99_pause
    s.Experiments.Harness.max_pause s.Experiments.Harness.pause_count
    s.Experiments.Harness.cumulative_stall s.Experiments.Harness.cpu_mutator
    s.Experiments.Harness.cpu_gc s.Experiments.Harness.cpu_utilization
    s.Experiments.Harness.elapsed
    (Option.value ~default:"-" s.Experiments.Harness.oom)

let test_same_seed_workload_determinism () =
  let app = Workload.Apps.find "avrora" in
  let machine = Experiments.Exp.machine_for app ~mult:3.0 in
  let entry = Experiments.Registry.jade in
  let run () =
    render_summary
      (Experiments.Harness.run ~mode:Runtime.Driver.Closed ~machine ~warmup:(20 * ms)
         ~duration:(80 * ms) ~install:entry.Experiments.Registry.install
         ~collector:entry.Experiments.Registry.name app)
  in
  Alcotest.(check string) "byte-identical summaries" (run ()) (run ())

(* Host words each suspension costs, averaged over [reps] repetitions of
   [body] in a spawned thread after a warm-up: the window spans the
   scheduler's work between suspensions too. *)
let words_per_suspension ?(per_rep = 1) e body =
  let reps = 10_000 and words = ref nan in
  ignore
    (Engine.spawn e ~name:"measured" ~kind:Engine.Mutator (fun () ->
         for _ = 1 to 100 do
           body ()
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to reps do
           body ()
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int (reps * per_rep)));
  Engine.run e;
  !words

(* A suspension allocates at most its continuation (2 words), which the
   thread record keeps unboxed: operands live on the thread record, the
   effect is a constant and the run queue is a ring. *)
let test_suspensions_allocate_little () =
  let at_most_2 what words =
    if words > 2. then
      Alcotest.failf "%s: %.2f minor words per suspension (want <= 2)" what
        words
  in
  let e = Engine.create ~cores:1 ~quantum:(10 * us) () in
  at_most_2 "tick past budget"
    (words_per_suspension e (fun () -> Engine.tick (25 * us)));
  let e = Engine.create ~cores:1 () in
  at_most_2 "yield" (words_per_suspension e Engine.yield);
  let e = Engine.create ~cores:1 () in
  at_most_2 "sleep_until"
    (words_per_suspension e (fun () ->
         Engine.sleep_until e (Engine.now e + us)));
  (* Ping-pong: each repetition is one [wait] and one [signal] in each
     of two threads, so two suspensions. *)
  let e = Engine.create ~cores:2 () in
  let ping = Engine.cond "ping" and pong = Engine.cond "pong" in
  ignore
    (Engine.spawn e ~daemon:true ~name:"echo" ~kind:Engine.Mutator (fun () ->
         while true do
           Engine.wait ping;
           Engine.signal e pong
         done));
  at_most_2 "wait plus signal"
    (words_per_suspension ~per_rep:2 e (fun () ->
         Engine.signal e ping;
         Engine.wait pong))

(* Under a policy every round drains the run queue into the engine's
   candidate buffer and, at a choice point, calls the policy; none of
   that may allocate, so a suspension still costs at most its 2-word
   continuation.  Each repetition is one [yield] of the measured thread
   and one of its partner, so two suspensions; the rotation-0 policy
   reads every candidate's tid and makes each round a choice point: one
   core with two runnable threads (the policy picks who waits), then two
   cores with both about to run code (it picks their order). *)
let test_policy_rounds_allocate_little () =
  List.iter
    (fun (what, cores) ->
      let e = Engine.create ~cores () in
      let seen = ref 0 in
      Engine.set_policy e
        (Some
           (fun n ->
             for i = 0 to n - 1 do
               seen := !seen + Engine.candidate_tid e i
             done;
             0));
      ignore
        (Engine.spawn e ~daemon:true ~name:"partner" ~kind:Engine.Mutator
           (fun () ->
             while true do
               Engine.yield ()
             done));
      let words = words_per_suspension ~per_rep:2 e Engine.yield in
      if words > 2. then
        Alcotest.failf "%s: %.2f minor words per suspension (want <= 2)" what
          words;
      (* At least one choice point for each of the 10,000 measured
         repetitions. *)
      if Engine.choice_points e < 10_000 then
        Alcotest.failf "%s: only %d choice points" what (Engine.choice_points e))
    [ ("one core, two threads", 1); ("two cores, two threads", 2) ]

(* The policy reads its candidates, in run-queue order, only while it is
   called; the buffer they live in is the engine's to reuse. *)
let test_candidates_only_inside_policy () =
  let e = Engine.create ~cores:1 () in
  let first = ref [] in
  Engine.set_policy e
    (Some
       (fun n ->
         if !first = [] then first := List.init n (Engine.candidate_tid e);
         0));
  for i = 0 to 2 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "t%d" i) ~kind:Engine.Mutator
         (fun () -> Engine.tick (50 * us)))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "spawn order" [ 0; 1; 2 ] !first;
  match Engine.candidate_tid e 0 with
  | _ -> Alcotest.fail "candidate_tid outside the policy returned"
  | exception Invalid_argument _ -> ()

(* The suspending operations record their operand on the calling
   thread; with no thread to record it on they must fail, never drop
   the operation. *)
let test_outside_thread_raises () =
  let e = Engine.create () in
  let c = Engine.cond "c" in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s outside a spawned thread returned" what
    | exception Invalid_argument _ -> ()
  in
  let all_raise () =
    raises "tick" (fun () -> Engine.tick 1);
    raises "yield" Engine.yield;
    raises "wait" (fun () -> Engine.wait c);
    raises "sleep_until" (fun () -> Engine.sleep_until e (Engine.now e + us));
    raises "sleep" (fun () -> Engine.sleep e us)
  in
  all_raise ();
  ignore
    (Engine.spawn e ~name:"t" ~kind:Engine.Mutator (fun () -> Engine.tick ms));
  Engine.run e;
  all_raise ();
  (* The failed [wait] queued nobody: a waiter spawned now is the one a
     signal wakes. *)
  let woken = ref false in
  ignore
    (Engine.spawn e ~name:"waiter" ~kind:Engine.Mutator (fun () ->
         Engine.wait c;
         woken := true));
  ignore
    (Engine.spawn e ~name:"signaller" ~kind:Engine.Aux (fun () ->
         Engine.tick us;
         Engine.signal e c));
  Engine.run e;
  Alcotest.(check bool) "waiter woken" true !woken

(* Property: CPU time is conserved and wall time is bounded by the
   theoretical parallel schedule, for arbitrary thread mixes. *)
let cpu_conservation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"cpu conservation and wall bounds"
       QCheck2.Gen.(
         pair (int_range 1 4)
           (list_size (int_range 1 12) (int_range 1 (500 * us))))
       (fun (cores, works) ->
         let e = Engine.create ~cores ~quantum:(10 * us) () in
         List.iteri
           (fun i w ->
             ignore
               (Engine.spawn e
                  ~name:(Printf.sprintf "w%d" i)
                  ~kind:Engine.Mutator
                  (fun () -> Engine.tick w)))
           works;
         Engine.run e;
         let total = List.fold_left ( + ) 0 works in
         let lower = total / cores in
         let upper = total + (10 * us * List.length works) in
         Engine.busy_ns e Engine.Mutator = total
         && Engine.now e >= lower
         && Engine.now e <= upper))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "single-thread timing" `Quick test_single_thread_timing;
          Alcotest.test_case "core contention" `Quick test_core_contention;
          Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
          Alcotest.test_case "sleep accuracy" `Quick test_sleep_accuracy;
          Alcotest.test_case "cond signal/broadcast" `Quick test_cond_signal_broadcast;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "daemons don't block exit" `Quick
            test_daemon_does_not_block_exit;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "deadlock after daemon sleepers drain" `Quick
            test_daemon_sleepers_then_deadlock;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "run ~until" `Quick test_until_limit;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "same-seed workload determinism" `Slow
            test_same_seed_workload_determinism;
          Alcotest.test_case "quantum fairness" `Quick test_quantum_fairness;
          cpu_conservation;
          Alcotest.test_case "suspensions allocate at most 2 words" `Quick
            test_suspensions_allocate_little;
          Alcotest.test_case "policy rounds allocate at most 2 words a suspension"
            `Quick test_policy_rounds_allocate_little;
          Alcotest.test_case "candidates visible only inside the policy" `Quick
            test_candidates_only_inside_policy;
          Alcotest.test_case "suspending outside a thread raises" `Quick
            test_outside_thread_raises;
        ] );
    ]
