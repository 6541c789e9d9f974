(** Generational ZGC and Generational Shenandoah (GenZ, GenShen, §2.5).

    Both add a concurrent young generation ({!Young_gen}) to their parent
    collector and keep the parent's cycles for the old generation,
    restricted to old regions.  They differ only in the parent and in how
    young collections carry its overheads:

    - GenZ keeps ZGC's two-phase young shape — young marking with
      colored-pointer costs, then relocation with lazy reference healing
      — so "the young GC algorithm still contains the overhead of color
      pointers" (§2.5); the colored-pointer mutator taxes (per-load color
      checks, compressed references disabled) apply throughout.
    - GenShen keeps Shenandoah's three-phase structure — young marking,
      evacuation, then an eager reference-update pass over survivors,
      remembered cards and roots — and so its per-cycle overheads. *)

open Heap
module RtM = Runtime.Rt

(** Young GC when young regions exceed heap/[young_budget_fraction]. *)
let young_budget_fraction = 4

(** Start an old cycle above this old-generation occupancy. *)
let old_trigger_occupancy = 0.60

(** What the wrapper drives of the parent collector. *)
type old_cycle = {
  run_cycle : unit -> unit;  (** one old cycle, restricted to old regions *)
  marker : Common.Marker.t;  (** its SATB marker, fed by the barrier *)
  on_alloc_failure : unit -> unit;  (** its reaction to a stalled mutator *)
}

type variant = {
  name : string;
  style : Young_gen.style;
  colored : bool;
      (** colored pointers: atomic young marking, a per-load color check
          and the compressed-oops tax *)
  old_gen : RtM.t -> Common.old_config -> old_cycle;
}

let genz =
  {
    name = "genz";
    style = Young_gen.Lazy_healing;
    colored = true;
    old_gen =
      (fun rt config ->
        let z = Zgc.create ~config rt in
        {
          run_cycle = (fun () -> Zgc.run_cycle z);
          marker = z.Zgc.marker;
          on_alloc_failure = ignore;
        });
  }

let genshen =
  {
    name = "genshen";
    style = Young_gen.Update_refs_phase;
    colored = false;
    old_gen =
      (fun rt config ->
        let s = Shenandoah.create ~config rt in
        {
          run_cycle = (fun () -> Shenandoah.run_cycle s);
          marker = s.Shenandoah.marker;
          on_alloc_failure = (fun () -> Shenandoah.request_degeneration s);
        });
  }

type t = {
  rt : RtM.t;
  young : Young_gen.t;
  old : old_cycle;
  mutable urgent : bool;
}

(* A young collection failed or left too little: an old cycle, then the
   shared full-compaction-then-OOM rung. *)
let escalate t =
  if Common.below_low_watermark t.rt then begin
    t.old.run_cycle ();
    if Common.below_low_watermark t.rt then
      Common.full_gc_or_oom ~on_live_ref:Common.nothing_to_rebuild t.rt
  end

let controller t () =
  let rt = t.rt in
  let heap = rt.RtM.heap in
  let budget = Int.max 4 (Heap_impl.num_regions heap / young_budget_fraction) in
  if
    t.urgent
    || Common.young_count rt >= budget
    || Heap_impl.free_regions heap
       <= Int.max 2 (Heap_impl.num_regions heap / 16)
       && Common.young_count rt > 0
  then begin
    t.urgent <- false;
    let ok = Young_gen.collect t.young in
    if (not ok) || Common.below_low_watermark rt then escalate t
  end
  else if Common.old_occupancy rt >= old_trigger_occupancy then
    t.old.run_cycle ()
  else Sim.Engine.sleep rt.RtM.engine Common.poll_interval

let install variant rt =
  let young =
    Young_gen.create ~atomic_cost:variant.colored ~style:variant.style rt
  in
  (* Old cycles relocate holders of old-to-young references: their new
     locations must re-enter the remembered set or young targets would be
     lost when the old card's region is freed. *)
  let copy_hook (o' : Gobj.t) =
    let heap = rt.RtM.heap in
    Gobj.iter_fields
      (fun i child ->
        let child = Gobj.resolve child in
        if Young_gen.is_young heap child then
          ignore
            (Remset.add young.Young_gen.remset
               (Heap_impl.card_of_field heap o' i)))
      o'
  in
  let old =
    variant.old_gen rt
      {
        Common.cset_filter = (fun (r : Region.t) -> r.Region.kind = Region.Old);
        copy_hook;
      }
  in
  let t = { rt; young; old; urgent = false } in
  (* Old-generation SATB during old marking, young SATB during young
     marking; old-to-young remembering always. *)
  let markers = [ old.marker; young.Young_gen.marker ] in
  Common.install rt ~name:variant.name
    ~store_barrier:(fun ~src ~field ~old_v ~new_v ->
      Common.Marker.pre_write markers old_v;
      Young_gen.barrier young ~src ~field ~new_v)
    ~load_extra_cost:
      (if variant.colored then Costs.colored_load_extra
       else Costs.fwd_check_load_extra)
    ~mutator_tax_pct:
      (if variant.colored then Costs.compressed_oops_tax_pct else 0)
    ~on_alloc_failure:(fun () ->
      t.urgent <- true;
      old.on_alloc_failure ())
    [ (variant.name ^ "-controller", controller t) ];
  t
