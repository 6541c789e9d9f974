(** Per-region remembered sets (G1-style, §3.3).

    One card-granularity set per region recording the cards that may hold
    incoming references from *old* holders.  Young-to-anything references
    need no entries because young regions are fully traced by every
    collection.  Sets are created lazily and dropped when
    their region is reclaimed, mirroring G1's memory behaviour (the paper:
    "the memory overhead is proportional to the number of regions"). *)

open Heap

type t = { heap : Heap_impl.t; sets : Remset.t option array }

let create heap = { heap; sets = Array.make (Heap_impl.num_regions heap) None }

let get t rid = t.sets.(rid)

let get_or_create t rid =
  match t.sets.(rid) with
  | Some rs -> rs
  | None ->
      let rs =
        Remset.create
          ~name:(Printf.sprintf "remset-r%d" rid)
          ~total_cards:(Heap_impl.total_cards t.heap)
      in
      t.sets.(rid) <- Some rs;
      rs

(** Record that [card] may hold a reference into region [target_rid]. *)
let add t ~target_rid ~card =
  ignore (Remset.add (get_or_create t target_rid) card)

let clear t rid =
  match t.sets.(rid) with None -> () | Some _ -> t.sets.(rid) <- None

let cardinal t rid =
  match t.sets.(rid) with None -> 0 | Some rs -> Remset.cardinal rs

(** Total memory footprint of all live sets, for overhead reporting. *)
let byte_size t =
  Array.fold_left
    (fun acc s -> match s with None -> acc | Some rs -> acc + Remset.byte_size rs)
    0 t.sets
