(** Deterministic structured trace recorder.

    {!attach} installs a sink into the runtime's tracepoint seam
    ({!Runtime.Metrics.set_tracer}) and the heap's region-lifecycle seam
    ({!Heap.Heap_impl.set_region_observer}); every event is stamped with
    the engine's virtual clock and current thread id.  Recording is pure
    host-side bookkeeping: it never ticks the engine, so a traced run's
    simulated metrics, sim_ns and uids are bit-identical to an untraced
    one, and the event stream itself — being a pure function of the
    deterministic schedule — is byte-identical across [-j N] and across
    repeated same-seed runs (the determinism contract, DESIGN.md §11).

    Storage is columnar, in chunks of a fixed number of rows: one row
    per event across unboxed int columns (stamp, thread, constructor
    tag, two payload integers) and two string columns holding the
    payload's static names (phase, pause kind, region kind, collector,
    boundary).  {!emit} copies a payload's
    fields into its row and keeps no reference to the payload, and the
    region observer writes its row without building one, so a recorded
    event leaves nothing on the host's minor heap: the payloads that
    fire sites build die young.  Readers ({!iter}, {!events}) rebuild
    {!event} values on demand, after the measured run.

    Events before the first [Recording on] marker belong to setup and
    warmup; analyzers filter on the markers, the raw timeline is always
    complete. *)

module Tp = Runtime.Tracepoint

type event = { ts : int; tid : int; payload : Tp.payload }
(** One stamped event.  [ts] is {!Sim.Engine.now} at emission — note the
    engine clock includes the emitting thread's progress within its
    quantum, so timestamps are monotone {e per thread} but not globally
    across threads within a scheduling round.  [tid] is
    {!Sim.Engine.current_tid}; [-1] marks emissions from outside the
    engine (harness code between runs). *)

(* One constant constructor per payload constructor: immediate, so a
   [tag array] is an unboxed int array. *)
type tag =
  | Phase_begin
  | Phase_end
  | Pause
  | Region_claim
  | Region_release
  | Evac_batch
  | Boundary
  | Request_begin
  | Request_end
  | Recording

(* Event [i] is row [i land (chunk_rows - 1)] of chunk
   [i lsr chunk_bits].  [x]/[y] hold the payload's integers and
   [name]/[name2] its strings, by tag:
     Phase_begin, Phase_end   name
     Pause                    name = kind, x = start_ns, y = dur_ns
     Region_claim             name = rkind, x = rid
     Region_release           name = rkind, x = rid, y = used
     Evac_batch               x = objects, y = bytes
     Boundary                 name = collector, name2 = boundary
     Request_end              x = latency_ns, y = tax_ns
     Recording                x = 1 when on
   Columns a tag does not use hold 0 or "".  Chunks have a fixed size
   and are never copied, so a trace holds its rows plus less than one
   chunk; a column of [chunk_rows] words is past the minor heap's size
   limit, so its array is allocated directly in the major heap. *)
type chunk = {
  ts : int array;
  tid : int array;
  tag : tag array;
  x : int array;
  y : int array;
  name : string array;
  name2 : string array;
}

let chunk_bits = 12
let chunk_rows = 1 lsl chunk_bits

let chunk rows =
  {
    ts = Array.make rows 0;
    tid = Array.make rows 0;
    tag = Array.make rows Recording;
    x = Array.make rows 0;
    y = Array.make rows 0;
    name = Array.make rows "";
    name2 = Array.make rows "";
  }

type t = {
  engine : Sim.Engine.t;
  chunks : chunk Util.Vec.t;
  mutable len : int;
}

let create engine = { engine; chunks = Util.Vec.create (chunk 0); len = 0 }

(* Append one row, stamped now. *)
let push t tag ~x ~y ~name ~name2 =
  let i = t.len land (chunk_rows - 1) in
  if i = 0 then Util.Vec.push t.chunks (chunk chunk_rows);
  let c = Util.Vec.get t.chunks (t.len lsr chunk_bits) in
  t.len <- t.len + 1;
  c.ts.(i) <- Sim.Engine.now t.engine;
  c.tid.(i) <- Sim.Engine.current_tid t.engine;
  c.tag.(i) <- tag;
  c.x.(i) <- x;
  c.y.(i) <- y;
  c.name.(i) <- name;
  c.name2.(i) <- name2

let emit t (p : Tp.payload) =
  match p with
  | Tp.Phase_begin { name } -> push t Phase_begin ~x:0 ~y:0 ~name ~name2:""
  | Tp.Phase_end { name } -> push t Phase_end ~x:0 ~y:0 ~name ~name2:""
  | Tp.Pause { kind; start_ns; dur_ns } ->
      push t Pause ~x:start_ns ~y:dur_ns ~name:kind ~name2:""
  | Tp.Region_claim { rid; rkind } ->
      push t Region_claim ~x:rid ~y:0 ~name:rkind ~name2:""
  | Tp.Region_release { rid; rkind; used } ->
      push t Region_release ~x:rid ~y:used ~name:rkind ~name2:""
  | Tp.Evac_batch { objects; bytes } ->
      push t Evac_batch ~x:objects ~y:bytes ~name:"" ~name2:""
  | Tp.Boundary { collector; boundary } ->
      push t Boundary ~x:0 ~y:0 ~name:collector ~name2:boundary
  | Tp.Request_begin -> push t Request_begin ~x:0 ~y:0 ~name:"" ~name2:""
  | Tp.Request_end { latency_ns; tax_ns } ->
      push t Request_end ~x:latency_ns ~y:tax_ns ~name:"" ~name2:""
  | Tp.Recording { on } ->
      push t Recording ~x:(Bool.to_int on) ~y:0 ~name:"" ~name2:""

let payload c i : Tp.payload =
  match c.tag.(i) with
  | Phase_begin -> Tp.Phase_begin { name = c.name.(i) }
  | Phase_end -> Tp.Phase_end { name = c.name.(i) }
  | Pause -> Tp.Pause { kind = c.name.(i); start_ns = c.x.(i); dur_ns = c.y.(i) }
  | Region_claim -> Tp.Region_claim { rid = c.x.(i); rkind = c.name.(i) }
  | Region_release ->
      Tp.Region_release { rid = c.x.(i); rkind = c.name.(i); used = c.y.(i) }
  | Evac_batch -> Tp.Evac_batch { objects = c.x.(i); bytes = c.y.(i) }
  | Boundary -> Tp.Boundary { collector = c.name.(i); boundary = c.name2.(i) }
  | Request_begin -> Tp.Request_begin
  | Request_end -> Tp.Request_end { latency_ns = c.x.(i); tax_ns = c.y.(i) }
  | Recording -> Tp.Recording { on = c.x.(i) <> 0 }

let get t n =
  let c = Util.Vec.get t.chunks (n lsr chunk_bits)
  and i = n land (chunk_rows - 1) in
  { ts = c.ts.(i); tid = c.tid.(i); payload = payload c i }

(** Install a recorder on [rt]: tracepoint sink plus heap region
    observer.  Call before the first {!Sim.Engine.run} (the harness
    [?attach] seam) so setup events are captured too. *)
let attach rt =
  let t = create rt.Runtime.Rt.engine in
  Runtime.Metrics.set_tracer rt.Runtime.Rt.metrics (Some (fun p -> emit t p));
  Heap.Heap_impl.set_region_observer rt.Runtime.Rt.heap
    (Some
       (fun (r : Heap.Region.t) ~claimed ->
         push t
           (if claimed then Region_claim else Region_release)
           ~x:r.Heap.Region.rid
           ~y:(if claimed then 0 else r.Heap.Region.top)
           ~name:(Heap.Region.kind_to_string r.Heap.Region.kind)
           ~name2:""));
  t

let length t = t.len
let events t = Array.init t.len (get t)

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

(** Threads spawned on the recorder's engine, ascending tid. *)
let threads t = Sim.Engine.thread_info t.engine
