(** Cross-region discover table (§3.3, "piggyback with marking").

    One global table mapping each 512-byte card to a 4-byte integer that
    records which *other* regions the card's references point to.  Up to
    two distinct region ids are stored (the paper measured that 83 % of
    dirty cards reference at most two foreign regions); a third distinct
    region overflows the entry to a sentinel, meaning the card must be
    rescanned during remembered-set building.

    Encoding of an entry (per the paper: two region numbers in 4 bytes):
      0            empty
      overflow     the card references 3+ distinct regions
      otherwise    low 16 bits = rid1 + 1, next 16 bits = rid2 + 1 (0 if none)

    The entry array is allocated by the first {!record}: until then every
    card reads [Empty], and a heap whose run never marks (or whose marks
    find no cross-region reference) never pays for the table.
*)

type t = {
  cards : int;
  mutable entries : int array;  (** [[||]] until the first {!record} *)
  mutable overflowed : int;
  mutable recorded : int;
}

type entry = Empty | One of int | Two of int * int | Overflow

let overflow_sentinel = -1
let max_region_id = 0xFFFE

let create ~total_cards =
  if total_cards < 0 then invalid_arg "Crdt.create: total_cards";
  { cards = total_cards; entries = [||]; overflowed = 0; recorded = 0 }

let total_cards t = t.cards

(** Memory footprint in bytes: 4 bytes per card, as in the paper (0.78 %
    of the heap). *)
let byte_size t = 4 * t.cards

let code_empty = 0
let code_overflow = overflow_sentinel
let code_first v = (v land 0xFFFF) - 1
let code_second v = ((v lsr 16) land 0xFFFF) - 1

let code t card =
  if card < 0 || card >= t.cards then invalid_arg "Crdt.get: card";
  if Array.length t.entries = 0 then code_empty else t.entries.(card)

let decode v =
  if v = overflow_sentinel then Overflow
  else if v = 0 then Empty
  else
    let r2 = code_second v in
    if r2 < 0 then One (code_first v) else Two (code_first v, r2)

let get t card = decode (code t card)

(** Record that [card] holds a reference into region [rid].  Duplicate
    regions are stored once; a third distinct region overflows. *)
let record t ~card ~rid =
  if rid < 0 || rid > max_region_id then invalid_arg "Crdt.record: rid";
  if Array.length t.entries = 0 then t.entries <- Array.make t.cards 0;
  let v = t.entries.(card) in
  if v = overflow_sentinel then ()
  else begin
    let enc = rid + 1 in
    if v = 0 then begin
      t.entries.(card) <- enc;
      t.recorded <- t.recorded + 1
    end
    else begin
      let r1 = v land 0xFFFF in
      let r2 = (v lsr 16) land 0xFFFF in
      if r1 = enc || r2 = enc then ()
      else if r2 = 0 then t.entries.(card) <- v lor (enc lsl 16)
      else begin
        t.entries.(card) <- overflow_sentinel;
        t.overflowed <- t.overflowed + 1
      end
    end
  end

let reset t =
  Array.fill t.entries 0 (Array.length t.entries) 0;
  t.overflowed <- 0;
  t.recorded <- 0

(** Cards that recorded at least one cross-region reference. *)
let iter_nonempty f t =
  Array.iteri (fun card v -> if v <> 0 then f card (decode v)) t.entries

let push_nonempty t buf =
  let entries = t.entries in
  for card = 0 to Array.length entries - 1 do
    if Array.unsafe_get entries card <> 0 then Util.Vec.push buf card
  done

let stats t =
  let nonempty = ref 0 in
  Array.iter (fun v -> if v <> 0 then incr nonempty) t.entries;
  (!nonempty, t.overflowed)
