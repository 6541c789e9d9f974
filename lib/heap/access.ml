(** Metadata access logging for the happens-before race detector
    ([lib/analysis/race.ml]).

    Heap code reports reads/writes of the metadata classes a concurrent
    collector actually races on — forwarding installs, card-table bits,
    mark words, remembered-set bits and the region free list — through
    a single global hook.  The hook is [None] by default and every call
    site passes only immediates (constant constructors, ints, literal
    strings), so a disabled logger costs one branch and zero allocation
    on the hot paths.

    The op taxonomy mirrors the detector's checking policy:
    - [Write] accesses are conflict-checked (two unordered writes to the
      same resource are a race).  Only forwarding-pointer installs use
      it: the simulator is single-domain, so the bugs worth catching are
      protocol races — double relocation of one object — not memory
      tearing.
    - [Atomic] accesses model CAS/atomic-store metadata updates (cards,
      mark bits, remset bits).  They are recorded for interleaving
      traces but never conflict-checked: benign concurrent updates are
      part of the design (e.g. co-running cycles touching the same card).
    - [Acquire]/[Release] are synchronization edges on a resource (region
      claim/release through the free list): the releasing thread's clock
      is published to the resource and joined by the next claimer. *)

type op = Write | Atomic | Acquire | Release

(** What kind of metadata the key identifies. *)
type res =
  | Forward  (** in-header forwarding slot; key = object uid *)
  | Fwd_table
      (** off-heap forwarding table: nothing emits it (ZGC's tables are
          billed, not modelled); bench/perf's ledger still matches it *)
  | Card  (** global card table; key = global card index *)
  | Mark_bit  (** mark/ymark epoch word; key = object uid *)
  | Region_ctl  (** free-list claim/release; key = region id *)
  | Remset  (** remembered-set bit; key = global card index *)

type logger = op -> res -> key:int -> site:string -> unit

(** A cached handle on this domain's hook slot.  [Domain.DLS.get] costs
    a handful of loads plus an initialization branch on {e every} call,
    which is pure waste on paths that fire per mark / card dirty /
    remset touch: hot-path owners ({!Heap_impl.t}, remsets) resolve the
    handle once at creation time and log through it with {!log_with} —
    one load and one branch when no detector is installed.  The handle
    stays valid for the whole run because {!set_hook} mutates the slot's
    {e contents}, never rebinds it, so a detector installed after the
    heap was built is still observed.

    The cached handle must live in run-threaded state (a field of the
    heap, a remset, ...) or in DLS itself — never in a toplevel mutable
    cell, where it would leak across the explorer's per-domain runs;
    [scripts/lint_purity.sh] enforces this. *)
type hooks = logger option ref

(* Domain-local, not global: parallel exploration runs one simulation
   per domain ([Util.Dpool]), each with its own race detector — a
   global hook would make one domain's detector observe a sibling
   domain's unrelated heap. *)
let hook_key : hooks Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(** Resolve this domain's hook slot once; thread the result through
    run-owned state and log with {!log_with}. *)
let hooks () : hooks = Domain.DLS.get hook_key

(** Install (or remove) this domain's metadata-access logger. *)
let set_hook f = Domain.DLS.get hook_key := f

(** The inlined fast flag: is a logger installed right now?  Batch
    operations read this once and choose between the zero-event fast
    path and the per-event loop a detector needs. *)
let[@inline] enabled (h : hooks) =
  match !h with None -> false | Some _ -> true

let[@inline] log_with (h : hooks) op res ~key ~site =
  match !h with None -> () | Some f -> f op res ~key ~site

(** Remove any installed logger (every harness run starts from here so a
    detector left over from a previous in-process run cannot observe an
    unrelated heap). *)
let reset () = set_hook None

let res_to_string = function
  | Forward -> "forward"
  | Fwd_table -> "fwd-table"
  | Card -> "card"
  | Mark_bit -> "mark-bit"
  | Region_ctl -> "region-ctl"
  | Remset -> "remset"

let op_to_string = function
  | Write -> "write"
  | Atomic -> "atomic"
  | Acquire -> "acquire"
  | Release -> "release"
