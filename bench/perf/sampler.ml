(* Host-stack sampler for the traced run.  A [SIGPROF] interval timer
   fires on host CPU time; OCaml runs the handler at the next safepoint
   of the interrupted code, on its stack, so [Printexc.get_callstack]
   sees the simulator frames (engine fibers included) beneath it.

   Each sample is attributed twice:
   - to code: the innermost frame in a layer or in this benchmark
     ({!Layers.classify}), "other" when there is none;
   - to the engine thread kind running at the time: the kind of
     [Engine.current_tid], else "scheduler" when the engine's own code is
     on the stack, else "host" (set-up, analysis, harness).

   Counts are process state: the traced child runs one workload and
   reports them once. *)

let counts : (string, int) Hashtbl.t = Hashtbl.create 64
let engine : Sim.Engine.t option ref = ref None
let kinds : (int, string) Hashtbl.t = Hashtbl.create 64

(* Callstack depth: the attributed frame is nearly always within the
   first few; the engine frame that marks scheduler time sits below a
   shallow harness stack. *)
let depth = 96

let bump key =
  Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))

(** Point kind attribution at the engine of the run about to start. *)
let watch e =
  engine := Some e;
  Hashtbl.reset kinds

let kind_name = function
  | Sim.Engine.Mutator -> "mutator"
  | Sim.Engine.Gc -> "gc"
  | Sim.Engine.Aux -> "aux"

let thread_kind e tid =
  match Hashtbl.find_opt kinds tid with
  | Some k -> k
  | None ->
      List.iter
        (fun (t, _, k) -> Hashtbl.replace kinds t (kind_name k))
        (Sim.Engine.thread_info e);
      Option.value ~default:"host" (Hashtbl.find_opt kinds tid)

(* The handler's own frames are the innermost ones; skip them. *)
let self_file = __FILE__

let attribute files =
  let rec go = function
    | [] -> Layers.Foreign
    | f :: rest when f = self_file -> go rest
    | f :: rest -> (
        match Layers.classify f with Layers.Foreign -> go rest | frame -> frame)
  in
  go files

let stack_files () =
  match Printexc.backtrace_slots (Printexc.get_callstack depth) with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun s ->
             Option.map
               (fun (l : Printexc.location) -> l.Printexc.filename)
               (Printexc.Slot.location s))

let on_sample (_ : int) =
  let files = stack_files () in
  bump "samples";
  List.iter bump (Layers.keys (attribute files));
  let kind =
    match !engine with
    | Some e when Sim.Engine.current_tid e >= 0 ->
        thread_kind e (Sim.Engine.current_tid e)
    | _ ->
        if List.exists (fun f -> Layers.classify f = Layers.Lib ("sim", "engine")) files
        then "scheduler"
        else "host"
  in
  bump ("kind." ^ kind)

let timer interval = { Unix.it_interval = interval; it_value = interval }

(* 1 ms requested; the kernel delivers profiling signals at its tick
   rate, about 250 per CPU-second on a HZ=250 kernel. *)
let start () =
  Hashtbl.reset counts;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.001))

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF (timer 0.));
  (* A signal already pending must not take the default action (exit). *)
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let snapshot () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
