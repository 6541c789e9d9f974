(** Happens-before race detector over the simulated GC/mutator protocol.

    One vector clock per simulated thread, maintained from the engine's
    scheduling trace plus the heap's synchronization accesses:

    - [Spawned parent child] — the child starts with a copy of the
      parent's clock (the parent's past happens-before everything the
      child does).
    - [Woken waker woken] — a [signal]/[broadcast] carries the waker's
      clock to each thread it wakes (condition variables are the
      simulator's only inter-thread message channel).
    - [Acquire]/[Release] on [Region_ctl] — releasing a region publishes
      the releasing thread's clock to the region; the next claimer joins
      it.  This is the free-list's CAS loop in the paper's runtime.

    Conflicts are checked only for [Write] accesses, and the only writes
    the heap reports are forwarding-pointer installs
    ([Gobj.set_forward]), keyed by the physical uid of the record being
    forwarded.  Two unordered installs on one record are a double
    relocation — the protocol bug class the paper's forwarding CAS
    exists to prevent — and in a correct run every install is uniquely
    owned, so a clean collector produces zero reports.  [Atomic]
    accesses (cards, mark bits, remset bits) model CAS/atomic-store
    updates that are benignly concurrent by design; they are recorded
    for the interleaving trace but never conflict-checked.

    A race raises {!Report.Violation} carrying both access sites, both
    thread names, and the tail of the metadata-access trace so the
    interleaving that produced the race can be read directly from the
    report. *)

(* Mutable on purpose: the ring buffer preallocates [trace_capacity]
   records at creation and overwrites them in place, so recording an
   access — which happens on every metadata touch while a detector is
   installed — allocates nothing. *)
type access = {
  mutable a_op : Heap.Access.op;
  mutable a_res : Heap.Access.res;
  mutable a_key : int;
  mutable a_site : string;
  mutable a_tid : int;
  mutable a_time : int;  (** simulated ns *)
}

(** Epoch of the last forwarding install on a record: the writing
    thread, that thread's own clock component at the write, and the
    site/time for reporting. *)
type write_epoch = { w_tid : int; w_stamp : int; w_site : string; w_time : int }

let trace_capacity = 256

type t = {
  engine : Sim.Engine.t;
  clocks : (int, Vclock.t) Hashtbl.t;  (** tid -> clock *)
  region_clocks : (int, Vclock.t) Hashtbl.t;  (** rid -> published clock *)
  last_install : (int, write_epoch) Hashtbl.t;  (** obj uid -> last install *)
  names : (int, string) Hashtbl.t;  (** tid -> thread name *)
  trace : access array;  (** preallocated ring buffer of recent accesses *)
  mutable trace_pos : int;
  mutable trace_filled : int;  (** slots written so far, capped at capacity *)
}

let create ~engine () =
  {
    engine;
    clocks = Hashtbl.create 64;
    region_clocks = Hashtbl.create 256;
    last_install = Hashtbl.create 4096;
    names = Hashtbl.create 64;
    trace =
      Array.init trace_capacity (fun _ ->
          {
            a_op = Heap.Access.Atomic;
            a_res = Heap.Access.Card;
            a_key = 0;
            a_site = "";
            a_tid = -1;
            a_time = 0;
          });
    trace_pos = 0;
    trace_filled = 0;
  }

let thread_name t tid =
  if tid = -1 then "host"
  else
    match Hashtbl.find_opt t.names tid with
    | Some n -> Printf.sprintf "%s(tid %d)" n tid
    | None -> Printf.sprintf "tid %d" tid

(* [Hashtbl.find], not [find_opt]: a hit, the common case on every
   edge, then allocates no option. *)
let clock_of t tid =
  match Hashtbl.find t.clocks tid with
  | c -> c
  | exception Not_found ->
      let c = Vclock.create () in
      Vclock.set c ~tid 1;
      Hashtbl.replace t.clocks tid c;
      c

(* ---------------------------------------------------------------- *)
(* Scheduling edges from the engine.                                  *)

let on_trace t = function
  | Sim.Engine.Spawned { parent; child; name } ->
      Hashtbl.replace t.names child name;
      let pc = clock_of t parent in
      let cc = Vclock.copy pc in
      Vclock.set cc ~tid:child (Vclock.get cc ~tid:child + 1);
      Hashtbl.replace t.clocks child cc;
      ignore (Vclock.tick pc ~tid:parent)
  | Sim.Engine.Woken { waker; woken; cond = _ } ->
      let wc = clock_of t waker in
      Vclock.merge (clock_of t woken) wc;
      ignore (Vclock.tick wc ~tid:waker)

(* ---------------------------------------------------------------- *)
(* Metadata accesses from the heap.                                   *)

let record t op res ~key ~site ~tid ~time =
  let a = Array.unsafe_get t.trace t.trace_pos in
  a.a_op <- op;
  a.a_res <- res;
  a.a_key <- key;
  a.a_site <- site;
  a.a_tid <- tid;
  a.a_time <- time;
  if t.trace_filled < trace_capacity then t.trace_filled <- t.trace_filled + 1;
  t.trace_pos <- (t.trace_pos + 1) mod trace_capacity

let access_to_string t a =
  Printf.sprintf "  t=%-10d %-22s %s %s[%d] @ %s" a.a_time
    (thread_name t a.a_tid)
    (Heap.Access.op_to_string a.a_op)
    (Heap.Access.res_to_string a.a_res)
    a.a_key a.a_site

(** The ring buffer contents, oldest first. *)
let trace_lines t =
  let lines = ref [] in
  for i = trace_capacity - 1 downto 0 do
    let idx = (t.trace_pos + i) mod trace_capacity in
    (* A slot is valid once written: all of them when the ring has
       wrapped, indices below the fill mark before that. *)
    if idx < t.trace_filled then
      lines := access_to_string t t.trace.(idx) :: !lines
  done;
  (* [lines] is newest-first here; the report wants oldest-first. *)
  List.rev !lines

let report_install_race t ~key ~site ~tid prev =
  let tail lines n =
    let len = List.length lines in
    if len <= n then lines else List.filteri (fun i _ -> i >= len - n) lines
  in
  let trace = tail (trace_lines t) 48 in
  let detail =
    Printf.sprintf
      "double relocation: two forwarding installs on one object record \
       are not ordered by happens-before\n\
      \  first  install: %s at t=%d by %s (stamp %d)\n\
      \  second install: %s at t=%d by %s (clock %s)\n\
       interleaving (last %d metadata accesses, oldest first):\n\
       %s"
      prev.w_site prev.w_time (thread_name t prev.w_tid) prev.w_stamp site
      (Sim.Engine.now t.engine) (thread_name t tid)
      (Vclock.to_string (clock_of t tid))
      (List.length trace) (String.concat "\n" trace)
  in
  raise
    (Report.Violation
       {
         Report.engine = "race-detector";
         invariant = "ordered-forwarding-install";
         collector = "-";
         phase = "-";
         region = None;
         object_id = Some key;
         detail;
       })

let on_access t op res ~key ~site =
  let tid = Sim.Engine.current_tid t.engine in
  record t op res ~key ~site ~tid ~time:(Sim.Engine.now t.engine);
  match (op, res) with
  | Heap.Access.Acquire, Heap.Access.Region_ctl -> (
      match Hashtbl.find t.region_clocks key with
      | rc -> Vclock.merge (clock_of t tid) rc
      | exception Not_found -> ())
  | Heap.Access.Release, Heap.Access.Region_ctl ->
      let c = clock_of t tid in
      Hashtbl.replace t.region_clocks key (Vclock.copy c);
      ignore (Vclock.tick c ~tid)
  | Heap.Access.Write, Heap.Access.Forward ->
      let c = clock_of t tid in
      (match Hashtbl.find_opt t.last_install key with
      | Some prev
        when prev.w_tid <> tid && Vclock.get c ~tid:prev.w_tid < prev.w_stamp
        ->
          report_install_race t ~key ~site ~tid prev
      | _ -> ());
      let stamp = Vclock.tick c ~tid in
      Hashtbl.replace t.last_install key
        { w_tid = tid; w_stamp = stamp; w_site = site;
          w_time = Sim.Engine.now t.engine }
  | _ -> ()
