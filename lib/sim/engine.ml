(** Deterministic discrete-event simulation engine.

    Threads are OCaml-5 effect-handler coroutines.  GC algorithms and
    mutators are written in direct style and charge virtual CPU time with
    {!tick}; the engine multiplexes all runnable threads over a fixed
    number of virtual cores using quantum-based round-robin scheduling:
    each scheduling round advances the virtual clock by one quantum and
    gives at most [cores] threads a quantum of CPU each.

    The scheduler core is event-driven: sleepers live in a binary
    min-heap keyed on [(wake time, tid)] ({!Util.Pqueue}), so waking is
    O(log sleepers) and "when is the next event?" is O(1); when nothing
    is runnable the clock jumps straight to the next wake, and when every
    runnable thread holds a core and is mid-[tick], whole runs of
    no-decision rounds are collapsed into a single multi-quantum step
    (floored to the quantum grid, so resumptions and wakeups land on
    exactly the boundaries quantum-by-quantum stepping would produce).

    With the default 20 µs quantum the timing error of any measured
    interval is below one quantum, an order of magnitude finer than the
    sub-millisecond pauses under study.  Runs are fully deterministic:
    scheduling order is a pure function of the configuration, the
    workload's PRNG seed and the installed scheduling {!policy};
    simultaneous wakeups order by [(wake time, tid)].

    The policy seam ({!set_policy}) lets analysis tooling perturb the
    round-robin order at every {e choice point} — a round whose outcome
    genuinely depends on which runnable thread goes first.  With no
    policy installed (the default) the scheduler takes the run queue in
    FIFO order, bit-identical to the historical behaviour. *)

type kind = Mutator | Gc | Aux

let kind_index = function Mutator -> 0 | Gc -> 1 | Aux -> 2

(* Constant constructors only, so a state change allocates nothing. *)
type state =
  | Runnable
  | Blocked (* waiting on a condition *)
  | Sleeping (* until [wake_at] *)
  | Finished

type thread = {
  tid : int;
  name : string;
  kind : kind;
  daemon : bool; (* daemons do not keep the simulation alive *)
  mutable state : state;
  mutable wake_at : int; (* absolute wake time while [Sleeping] *)
  mutable debt : int; (* virtual ns still to pay before resuming *)
  mutable cont : (unit, unit) Effect.Deep.continuation;
      (* [no_cont] unless suspended *)
  mutable yielded : bool;
  mutable enqueued : bool; (* membership flag for the run queue *)
  mutable body : (unit -> unit) option; (* set until first scheduled *)
  mutable on_finish : (unit -> unit) list;
  mutable blocked_on : string; (* cond name, for diagnostics *)
}

(* The one effect.  Every suspending operation first records its operand
   on the calling thread (debt, yielded flag, waiter-queue or sleeper-heap
   entry), then performs this constant, so a suspension allocates only
   the continuation, which [thread.cont] keeps unboxed. *)
type _ Effect.t += Suspend : unit Effect.t

(* "Not suspended": a continuation no thread ever holds, compared by
   address and never resumed.  It is captured once, by performing
   [Suspend] under a handler that raises the continuation straight out,
   so [thread.cont] needs no option or box around the real ones. *)
let no_cont : (unit, unit) Effect.Deep.continuation =
  let exception Captured of (unit, unit) Effect.Deep.continuation in
  match
    Effect.Deep.match_with Effect.perform Suspend
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) :
               ((a, unit) Effect.Deep.continuation -> unit) option ->
            match eff with
            | Suspend -> Some (fun k -> raise (Captured k))
            | _ -> None);
      }
  with
  | () -> invalid_arg "Sim.Engine.no_cont: Suspend was not performed"
  | exception Captured k -> k

(* Fills core slots and heap slots so they never retain a real thread. *)
let dummy_thread =
  {
    tid = -1;
    name = "<none>";
    kind = Aux;
    daemon = true;
    state = Finished;
    wake_at = 0;
    debt = 0;
    cont = no_cont;
    yielded = false;
    enqueued = false;
    body = None;
    on_finish = [];
    blocked_on = "";
  }

type cond = { cname : string; waiters : thread Util.Ring.t }

(** Scheduling events observable by analysis tooling (the happens-before
    race detector derives its vector-clock edges from these).  [Spawned]
    orders the spawner before the child's first step; [Woken] orders a
    {!signal}/{!broadcast} caller before each thread it wakes.  Sleeper
    expiry is time-driven and carries no ordering edge on purpose. *)
type trace_event =
  | Spawned of { parent : int; child : int; name : string }
  | Woken of { waker : int; woken : int; cond : string }

(* Called with the number of candidates at a choice point; it reads
   their tids through {!candidate_tid} and returns a left-rotation. *)
type policy = int -> int

type t = {
  cores : int;
  quantum : int;
  mutable clock : int;
  mutable run_offset : int; (* progress of the thread being driven now *)
  mutable local_budget : int; (* cap on self-paid ticks this round *)
  runq : thread Util.Ring.t;
  sleepers : thread Util.Pqueue.t; (* keyed (wake time, tid) *)
  mutable all_threads : thread list;
  mutable next_tid : int;
  mutable live_nondaemon : int;
  busy_ns : int array; (* per {!kind} CPU accounting *)
  mutable failure : exn option;
  mutable current : thread; (* thread being driven; [dummy_thread] outside *)
  mutable tracer : (trace_event -> unit) option;
  mutable policy : policy option;
  mutable cands : thread array;
      (* a policy round drains the run queue here; [[||]] until a policy
         is installed, [dummy_thread] outside a round *)
  mutable n_cands : int; (* candidates shown to the policy; 0 outside it *)
  mutable choice_points : int; (* choice points presented to the policy *)
  mutable self : t option;
      (* [Some] of this engine, built once: {!run_thread} installs it in
         [running_key] every scheduling slot *)
}

exception Deadlock of string

let create ?(cores = 8) ?(quantum = 20_000) () =
  if cores < 1 then invalid_arg "Engine.create: cores";
  if quantum < 1 then invalid_arg "Engine.create: quantum";
  let t =
    {
      cores;
      quantum;
      clock = 0;
      run_offset = 0;
      local_budget = 0;
      runq = Util.Ring.create dummy_thread;
      sleepers = Util.Pqueue.create dummy_thread;
      all_threads = [];
      next_tid = 0;
      live_nondaemon = 0;
      busy_ns = Array.make 3 0;
      failure = None;
      current = dummy_thread;
      tracer = None;
      policy = None;
      cands = [||];
      n_cands = 0;
      choice_points = 0;
      self = None;
    }
  in
  t.self <- Some t;
  t

(** Virtual time as seen by the currently running thread. *)
let now t = t.clock + t.run_offset

let cores t = t.cores
let quantum t = t.quantum
let busy_ns t kind = t.busy_ns.(kind_index kind)
let total_busy_ns t = Array.fold_left ( + ) 0 t.busy_ns

let cond name = { cname = name; waiters = Util.Ring.create dummy_thread }

(** Tid of the thread being driven right now; [-1] when the scheduler (or
    host code outside {!run}) is executing. *)
let current_tid t = t.current.tid

(** Every thread ever spawned, ascending tid — the observability
    exporters ([lib/obs]) name trace timelines from this. *)
let thread_info t =
  List.rev_map (fun th -> (th.tid, th.name, th.kind)) t.all_threads

(** Install (or remove) the scheduling-event tracer.  [None] — the
    default — keeps every event site down to one branch. *)
let set_tracer t f = t.tracer <- f

(** Install (or remove) the scheduling policy.  [None] — the default —
    keeps the FIFO fast path.  The first install sizes the candidate
    buffer, so an engine that never has a policy never builds one. *)
let set_policy t p =
  t.policy <- p;
  match p with
  | Some _ when Array.length t.cands = 0 ->
      t.cands <- Array.make (2 * t.cores) dummy_thread
  | _ -> ()

(** Tid of candidate [i] at the choice point being presented. *)
let candidate_tid t i =
  if i < 0 || i >= t.n_cands then
    invalid_arg
      (Printf.sprintf
         "Sim.Engine.candidate_tid: candidate %d of %d (only a policy, \
          while it is called, sees candidates)"
         i t.n_cands);
  t.cands.(i).tid

(** Choice points presented to the installed policy so far. *)
let choice_points t = t.choice_points

let enqueue t th =
  if not th.enqueued && th.state = Runnable then begin
    th.enqueued <- true;
    Util.Ring.push t.runq th
  end

let spawn t ?(daemon = false) ~name ~kind body =
  let th =
    {
      tid = t.next_tid;
      name;
      kind;
      daemon;
      state = Runnable;
      wake_at = 0;
      debt = 0;
      cont = no_cont;
      yielded = false;
      enqueued = false;
      body = Some body;
      on_finish = [];
      blocked_on = "";
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.all_threads <- th :: t.all_threads;
  if not daemon then t.live_nondaemon <- t.live_nondaemon + 1;
  enqueue t th;
  (match t.tracer with
  | Some f -> f (Spawned { parent = t.current.tid; child = th.tid; name })
  | None -> ());
  th

(* ------------------------------------------------------------------ *)
(* Operations performed from inside a thread.                          *)

(* The engine whose thread is currently being driven (each simulation
   runs entirely within one domain, so at most one resume is live per
   domain; nested engines save/restore around [run_thread]).  Its
   [current] is the thread every suspending operation records its
   operand on.  It also lets {!tick} pay charges that fit in the
   thread's remaining round budget by bumping [run_offset] directly —
   no effect perform, no continuation switch.  The outcome is
   bit-identical to suspending: the old scheduler paid a fitting tick in
   full and immediately resumed the thread within the same round slot at
   the same virtual time; only the coroutine round-trip disappears.

   Domain-local, not global: the parallel exploration/sweep drivers
   ([Util.Dpool]) run whole simulations in sibling domains, and this
   cell names *this domain's* engine — a plain global here would let
   one domain's [tick] charge another domain's engine. *)
let running_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The engine driving the calling thread.  Outside every spawned body
   there is none, and an operation that would record its operand on the
   current thread fails instead of silently writing to no thread. *)
let running_engine op =
  match !(Domain.DLS.get running_key) with
  | Some t -> t
  | None ->
      invalid_arg ("Sim.Engine." ^ op ^ ": called outside a spawned thread")

(** Charge [n] ns of virtual CPU time to the calling thread. *)
let tick n =
  if n > 0 then begin
    let t = running_engine "tick" in
    if t.run_offset + n <= t.local_budget then t.run_offset <- t.run_offset + n
    else begin
      t.current.debt <- n;
      Effect.perform Suspend
    end
  end

(** Give up the rest of the current quantum, staying runnable. *)
let yield () =
  let t = running_engine "yield" in
  t.current.yielded <- true;
  Effect.perform Suspend

(** Block until the condition is signalled. *)
let wait c =
  let th = (running_engine "wait").current in
  th.state <- Blocked;
  th.blocked_on <- c.cname;
  Util.Ring.push c.waiters th;
  Effect.perform Suspend

(** Sleep until an absolute virtual time; a time already reached returns
    at once, exactly as if the thread had suspended and been resumed in
    the same slot. *)
let sleep_until _t wake =
  let t = running_engine "sleep_until" in
  if wake > now t then begin
    let th = t.current in
    th.state <- Sleeping;
    th.wake_at <- wake;
    Util.Pqueue.push t.sleepers ~key:wake ~tie:th.tid th;
    Effect.perform Suspend
  end

(** Sleep without consuming CPU. *)
let sleep t n = sleep_until t (now t + Int.max n 0)

(* Signalling does not suspend the caller, so these are plain functions. *)

let trace_wake t c (th : thread) =
  match t.tracer with
  | Some f -> f (Woken { waker = t.current.tid; woken = th.tid; cond = c.cname })
  | None -> ()

let signal t c =
  if not (Util.Ring.is_empty c.waiters) then begin
    let th = Util.Ring.pop_exn c.waiters in
    th.state <- Runnable;
    enqueue t th;
    trace_wake t c th
  end

let broadcast t c =
  while not (Util.Ring.is_empty c.waiters) do
    let th = Util.Ring.pop_exn c.waiters in
    th.state <- Runnable;
    enqueue t th;
    trace_wake t c th
  done

let on_finish th f = th.on_finish <- f :: th.on_finish

(* ------------------------------------------------------------------ *)
(* Scheduler.                                                           *)

let finish_thread t th =
  th.state <- Finished;
  th.cont <- no_cont;
  if not th.daemon then t.live_nondaemon <- t.live_nondaemon - 1;
  List.iter (fun f -> f ()) th.on_finish;
  th.on_finish <- []

let handler t th : (unit, unit) Effect.Deep.handler =
  (* Built once per thread: the operation stored its operand before
     performing [Suspend], so all that is left is keeping the
     continuation, stored as it is. *)
  let capture = Some (fun k -> th.cont <- k) in
  {
    retc = (fun () -> finish_thread t th);
    exnc =
      (fun e ->
        if t.failure = None then t.failure <- Some e;
        finish_thread t th);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Suspend -> capture | _ -> None);
  }

(* A thread is suspended exactly when its [cont] is not the sentinel. *)
let resume t th =
  let k = th.cont in
  if k != no_cont then begin
    th.cont <- no_cont;
    Effect.Deep.continue k ()
  end
  else
    match th.body with
    | Some body ->
        th.body <- None;
        Effect.Deep.match_with body () (handler t th)
    | None ->
        failwith
          (Printf.sprintf
             "Sim.Engine.resume: thread %S (tid %d, state %s) has neither \
              a continuation nor a body — a finished thread was driven by \
              the scheduler"
             th.name th.tid
             (match th.state with
             | Runnable -> "runnable"
             | Blocked -> "blocked on " ^ th.blocked_on
             | Sleeping -> Printf.sprintf "sleeping until %dns" th.wake_at
             | Finished -> "finished"))

(* Drive [th] for at most [budget] ns; returns consumed CPU.
   [t.run_offset] doubles as the consumed-so-far counter: it advances
   here when debt is paid and inside {!tick} when the running thread
   pays a fitting charge itself. *)
let run_thread t th budget =
  th.yielded <- false;
  let running = Domain.DLS.get running_key in
  let saved_running = !running in
  let saved_current = t.current in
  running := t.self;
  t.current <- th;
  t.local_budget <- budget;
  let continue_loop = ref true in
  while !continue_loop do
    if th.state <> Runnable then continue_loop := false
    else if th.debt > 0 then
      if t.run_offset >= budget then continue_loop := false (* budget spent *)
      else begin
        let d = Int.min th.debt (budget - t.run_offset) in
        th.debt <- th.debt - d;
        t.run_offset <- t.run_offset + d
      end
    else begin
      (* Zero debt: resuming costs no virtual time, so do it even at the
         end of the quantum — otherwise completion is discovered a whole
         quantum late. *)
      resume t th;
      if th.yielded then continue_loop := false
    end
  done;
  running := saved_running;
  t.current <- saved_current;
  let consumed = t.run_offset in
  t.run_offset <- 0;
  t.busy_ns.(kind_index th.kind) <- t.busy_ns.(kind_index th.kind) + consumed;
  consumed

(* The sleeper heap uses lazy deletion: an entry is live only while its
   thread is still [Sleeping] with exactly the pushed wake time (a thread
   woken through another path and re-slept has a newer entry of its own).
   Stale entries are discarded whenever they surface at the top. *)

let sleeper_entry_live (th : thread) key =
  th.state = Sleeping && th.wake_at = key

let wake_due_sleepers t =
  let continue_ = ref true in
  while !continue_ && not (Util.Pqueue.is_empty t.sleepers) do
    let key = Util.Pqueue.min_key_exn t.sleepers in
    if key <= t.clock then begin
      let th = Util.Pqueue.pop_exn t.sleepers in
      if sleeper_entry_live th key then begin
        th.state <- Runnable;
        enqueue t th
      end
    end
    else continue_ := false
  done

(* Virtual time of the next sleeper wake; [max_int] when none.  O(1)
   beyond discarding stale heap tops. *)
let next_wake_ns t =
  let result = ref max_int in
  let continue_ = ref true in
  while !continue_ && not (Util.Pqueue.is_empty t.sleepers) do
    let key = Util.Pqueue.min_key_exn t.sleepers in
    if sleeper_entry_live (Util.Pqueue.min_elt_exn t.sleepers) key then begin
      result := key;
      continue_ := false
    end
    else ignore (Util.Pqueue.pop_exn t.sleepers)
  done;
  !result

(** Run the simulation until all non-daemon threads finish or [until]
    virtual ns elapse.  Re-raises the first exception escaping any
    thread.  Raises {!Deadlock} when progress is impossible. *)
let run ?until t =
  let limit = match until with Some u -> u | None -> max_int in
  let scratch = Array.make t.cores dummy_thread in
  (try
     while
       (match t.failure with None -> true | Some _ -> false)
       && t.live_nondaemon > 0
       && t.clock < limit
     do
       wake_due_sleepers t;
       if Util.Ring.is_empty t.runq then begin
         let w = next_wake_ns t in
         if w < max_int then
           (* Idle: jump the clock straight to the next event. *)
           t.clock <- Int.max t.clock (Int.min w limit)
         else begin
           let blocked =
             List.filter_map
               (fun th ->
                 if th.state = Blocked && not th.daemon then Some th.name
                 else None)
               t.all_threads
           in
           raise
             (Deadlock
                (Printf.sprintf "no runnable threads; blocked: [%s]"
                   (String.concat "; " blocked)))
         end
       end
       else begin
         let wake = next_wake_ns t in
         let n = ref 0 in
         (match t.policy with
         | None ->
             (* FIFO fast path: serve the front [cores] threads in queue
                order; the remainder stays queued, still in order. *)
             while !n < t.cores && not (Util.Ring.is_empty t.runq) do
               let th = Util.Ring.pop_exn t.runq in
               th.enqueued <- false;
               scratch.(!n) <- th;
               incr n
             done
         | Some pick ->
             (* Policy seam: drain every runnable thread, ask the policy
                for a left-rotation at choice points, serve the first
                [cores] of the rotated order and put the rest back —
                ahead of anything the served threads wake — so rotation 0
                reproduces the FIFO fast path bit-identically.  A round
                is a choice point only when its outcome can depend on the
                rotation: more runnable threads than cores (someone is
                delayed a round), or at least two threads whose code will
                actually execute this round (their host order decides who
                observes whose effects at equal virtual time). *)
             let m = Util.Ring.length t.runq in
             if m > Array.length t.cands then
               t.cands <-
                 Array.make (Int.max m (2 * Array.length t.cands)) dummy_thread;
             let cands = t.cands in
             for i = 0 to m - 1 do
               let th = Util.Ring.pop_exn t.runq in
               th.enqueued <- false;
               cands.(i) <- th
             done;
             let will_resume = ref 0 in
             for i = 0 to m - 1 do
               if cands.(i).debt <= t.quantum then incr will_resume
             done;
             let r =
               if m >= 2 && (m > t.cores || !will_resume >= 2) then begin
                 t.choice_points <- t.choice_points + 1;
                 t.n_cands <- m;
                 let r = pick m in
                 t.n_cands <- 0;
                 if r < 0 || r >= m then
                   invalid_arg
                     (Printf.sprintf
                        "Sim.Engine: policy returned rotation %d with %d \
                         candidates"
                        r m);
                 r
               end
               else 0
             in
             let served = Int.min t.cores m in
             for i = 0 to served - 1 do
               scratch.(i) <- cands.((i + r) mod m)
             done;
             for i = served to m - 1 do
               enqueue t cands.((i + r) mod m)
             done;
             Array.fill cands 0 m dummy_thread;
             n := served);
         (* Baseline step: one quantum, clamped so sleepers wake on time. *)
         let step =
           if wake > t.clock then Int.min t.quantum (wake - t.clock)
           else t.quantum
         in
         (* Event-driven fast path.  When every runnable thread holds a
            core and all are mid-[tick] with more than a quantum of debt,
            no scheduling decision can occur before the earliest of
            (smallest debt, next wake, [limit]): the intervening rounds
            differ only in debt bookkeeping, so they collapse into one
            multi-quantum step.  The jump is floored to the quantum grid
            so every resumption and wakeup lands on exactly the round
            boundary that quantum-by-quantum stepping would produce. *)
         let step =
           if step = t.quantum && Util.Ring.is_empty t.runq then begin
             let min_debt = ref max_int in
             for i = 0 to !n - 1 do
               let th = scratch.(i) in
               if th.debt < !min_debt then min_debt := th.debt
             done;
             if !min_debt > t.quantum then begin
               let horizon =
                 Int.min !min_debt (Int.min (wake - t.clock) (limit - t.clock))
               in
               let jump = horizon / t.quantum * t.quantum in
               if jump > t.quantum then jump else step
             end
             else step
           end
           else step
         in
         for i = 0 to !n - 1 do
           let th = scratch.(i) in
           scratch.(i) <- dummy_thread;
           ignore (run_thread t th step);
           if th.state = Runnable then enqueue t th
         done;
         t.clock <- t.clock + step
       end
     done
   with e ->
     t.failure <- Some e);
  match t.failure with
  | Some e ->
      t.failure <- None;
      raise e
  | None -> ()

(** Block the calling thread until [th] finishes. *)
let join t th =
  if th.state <> Finished then begin
    let c = cond ("join:" ^ th.name) in
    on_finish th (fun () -> broadcast t c);
    while th.state <> Finished do
      wait c
    done
  end
