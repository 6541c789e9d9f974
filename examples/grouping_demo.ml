(** Example: Jade's grouping algorithm on its own (§3.2, Algorithm 1).

    Builds a synthetic old generation with a configurable liveness
    distribution and shows the plan the simulation-based hand-over-hand
    grouping produces: which regions are tracked, how the free-space
    estimate bounds the first group, and how later groups reuse its size.

    Usage: [dune exec examples/grouping_demo.exe [-- <regions> <free-MiB>]] *)

let kib = Util.Units.kib

let () =
  let nregions = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 64 in
  let free_mib = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4 in
  let region_bytes = 512 * kib in
  let prng = Util.Prng.create 2024 in
  let regions =
    List.init nregions (fun rid ->
        let r = Heap.Region.make ~rid ~size:region_bytes in
        r.Heap.Region.kind <- Heap.Region.Old;
        r.Heap.Region.top <- region_bytes;
        (* A bimodal liveness profile: most regions churny, some dense. *)
        r.Heap.Region.live_bytes <-
          (if Util.Prng.chance prng 0.3 then
             Util.Prng.int_in prng (region_bytes * 9 / 10) region_bytes
           else Util.Prng.int_in prng 0 (region_bytes / 2));
        r)
  in
  let config = Jade.Jade_config.default in
  let free_bytes = free_mib * Util.Units.mib in
  let t0 = Unix.gettimeofday () in
  let plan = Jade.Grouping.build ~config ~free_bytes regions in
  let host_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  Printf.printf
    "Grouping %d old regions with a %s evacuation budget (host time %.1fus):\n"
    nregions
    (Util.Units.pp_bytes free_bytes)
    host_us;
  Printf.printf "  tracked (live < %.0f%%): %d regions, skipped by cap: %d\n"
    (100. *. Jade.Grouping.live_threshold)
    plan.Jade.Grouping.tracked plan.Jade.Grouping.skipped;
  Printf.printf "  groups: %d (paper cap: %d)\n\n"
    (Jade.Grouping.num_groups plan)
    config.Jade.Jade_config.max_groups;
  Array.iteri
    (fun gi group ->
      let live =
        List.fold_left
          (fun a (r : Heap.Region.t) -> a + r.Heap.Region.live_bytes)
          0 group
      in
      let garbage =
        List.fold_left
          (fun a (r : Heap.Region.t) -> a + Heap.Region.garbage_bytes r)
          0 group
      in
      Printf.printf
        "  round %2d: %2d regions, %8s live to copy, %8s reclaimed on release\n"
        gi (List.length group)
        (Util.Units.pp_bytes live)
        (Util.Units.pp_bytes garbage))
    plan.Jade.Grouping.groups;
  Printf.printf
    "\nThe first group's live bytes fit the budget; each completed round\n\
     frees at least a group's worth of regions, funding the next round\n\
     (hand-over-hand, Algorithm 1).\n"
