(** Remembered sets (§3.3).

    A remembered set records, at card (512-byte) granularity, the heap
    locations that may hold references *into* the memory the set covers
    (a region for G1, a whole collection group for Jade, the old
    generation for old-to-young sets).  Implemented as a bitset over the
    heap's global card index space — each set costs heap_size/4096 bytes,
    matching the paper's overhead arithmetic. *)

type t = {
  name : string;
  cards : Util.Bitset.t;
  hooks : Access.hooks;  (** cached per-domain hook handle; see {!Access.hooks} *)
}

let create ~name ~total_cards =
  { name; cards = Util.Bitset.create total_cards; hooks = Access.hooks () }

(** [add t card] returns true when the card was newly inserted. *)
let add t card =
  Access.log_with t.hooks Access.Atomic Access.Remset ~key:card ~site:t.name;
  Util.Bitset.set t.cards card

let mem t card = Util.Bitset.get t.cards card

let remove t card =
  Access.log_with t.hooks Access.Atomic Access.Remset ~key:card ~site:t.name;
  Util.Bitset.clear t.cards card
let cardinal t = Util.Bitset.cardinal t.cards
let clear t = Util.Bitset.clear_all t.cards
let iter f t = Util.Bitset.iter_set f t.cards
let snapshot_desc t buf = Util.Bitset.snapshot_desc t.cards buf

(** Memory footprint, for overhead reporting. *)
let byte_size t = Util.Bitset.byte_size t.cards
