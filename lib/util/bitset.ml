(** Dense bitset backed by an [int array] of 63-bit words.

    Backs the card table, remembered sets and the old-to-young
    remembered set (one bit per 512-byte card), mirroring the
    memory-overhead arithmetic the paper reports (1/4096 of heap per group
    remembered set) — {!byte_size} stays defined as [ceil(nbits/8)]
    regardless of the backing representation so the accounting is
    unchanged.

    Scans dominate the simulator's dirty-card walks and remembered-set
    scans, so iteration works a word at a time: zero
    words cost one load, and set bits are extracted with lowest-set-bit
    arithmetic ([v land (-v)]) instead of testing all 63 positions.

    Invariant: bits at positions [>= nbits] in the trailing word are
    never set — [create] zeroes the array and {!set} is bounds-checked —
    so iteration needs no per-bit bounds test. *)

type t = { words : int array; nbits : int; mutable cardinal : int }

(* OCaml ints hold 63 usable bits on 64-bit platforms; bit 62 is the
   sign bit, which the bitwise operators below treat uniformly. *)
let bits_per_word = 63

let create nbits =
  if nbits < 0 then invalid_arg "Bitset.create";
  {
    words = Array.make ((nbits + bits_per_word - 1) / bits_per_word) 0;
    nbits;
    cardinal = 0;
  }

let length t = t.nbits
let cardinal t = t.cardinal

(** Memory footprint in bytes, for overhead accounting (the logical
    bit-per-byte arithmetic of the paper, not the physical word array). *)
let byte_size t = (t.nbits + 7) / 8

let check t i =
  if i < 0 || i >= t.nbits then invalid_arg "Bitset: index out of bounds"

let get t i =
  check t i;
  Array.unsafe_get t.words (i / bits_per_word)
  land (1 lsl (i mod bits_per_word))
  <> 0

(** [set t i] returns [true] when the bit was newly set (was clear). *)
let set t i =
  check t i;
  let w = i / bits_per_word and mask = 1 lsl (i mod bits_per_word) in
  let old = Array.unsafe_get t.words w in
  if old land mask = 0 then begin
    Array.unsafe_set t.words w (old lor mask);
    t.cardinal <- t.cardinal + 1;
    true
  end
  else false

let clear t i =
  check t i;
  let w = i / bits_per_word and mask = 1 lsl (i mod bits_per_word) in
  let old = Array.unsafe_get t.words w in
  if old land mask <> 0 then begin
    Array.unsafe_set t.words w (old land lnot mask);
    t.cardinal <- t.cardinal - 1
  end

let clear_all t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.cardinal <- 0

(* Population count, Kernighan-style: one iteration per set bit, so
   counting the sparse masks the batch operations produce costs what the
   answer is worth, not 63 tests. *)
let popcount v =
  let v = ref v and n = ref 0 in
  while !v <> 0 do
    incr n;
    v := !v land (!v - 1)
  done;
  !n

(* All-ones mask covering bit positions [lo, hi) of the word holding
   global bit indices [w*63, (w+1)*63); used by every range operation. *)
let word_mask ~w ~lo ~hi =
  let base = w * bits_per_word in
  let head = if lo > base then (-1) lsl (lo - base) else -1 in
  let top = hi - base in
  let tail = if top >= bits_per_word then -1 else (1 lsl top) - 1 in
  head land tail

(** Clear every bit in [lo, hi) word-wise: interior words are zeroed with
    one store, boundary words are masked.  One pass, cardinal maintained
    exactly — the batched replacement for per-bit {!clear} loops
    (region release cleaning its cards, remset rebuilds). *)
let clear_range t ~lo ~hi =
  let lo = Int.max 0 lo and hi = Int.min t.nbits hi in
  if lo < hi then begin
    let w0 = lo / bits_per_word and w1 = (hi - 1) / bits_per_word in
    for w = w0 to w1 do
      let v = Array.unsafe_get t.words w in
      if v <> 0 then begin
        let kill = v land word_mask ~w ~lo ~hi in
        if kill <> 0 then begin
          Array.unsafe_set t.words w (v land lnot kill);
          t.cardinal <- t.cardinal - popcount kill
        end
      end
    done
  end

(* Number of trailing zeros of [b], a value with exactly one bit set
   (possibly the sign bit).  Branchy binary search — six tests. *)
let ntz b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    n := 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr n;
  !n

(* Apply [f] to the index of every set bit of word value [v] at word
   base index [base], lowest first. *)
let iter_word f base v =
  let v = ref v in
  while !v <> 0 do
    let b = !v land (- !v) in
    f (base + ntz b);
    v := !v land (!v - 1)
  done

(** Iterate set bits in increasing order; zero words cost one load. *)
let iter_set f t =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let v = Array.unsafe_get words w in
    if v <> 0 then iter_word f (w * bits_per_word) v
  done

let to_list t =
  let acc = ref [] in
  iter_set (fun i -> acc := i :: !acc) t;
  List.rev !acc

(* Index of the highest set bit of [v <> 0] (62 for the sign bit).
   Branchy binary search, as {!ntz}. *)
let msb v =
  if v < 0 then bits_per_word - 1
  else begin
    let n = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then begin
      n := 32;
      v := !v lsr 32
    end;
    if !v lsr 16 <> 0 then begin
      n := !n + 16;
      v := !v lsr 16
    end;
    if !v lsr 8 <> 0 then begin
      n := !n + 8;
      v := !v lsr 8
    end;
    if !v lsr 4 <> 0 then begin
      n := !n + 4;
      v := !v lsr 4
    end;
    if !v lsr 2 <> 0 then begin
      n := !n + 2;
      v := !v lsr 2
    end;
    if !v lsr 1 <> 0 then incr n;
    !n
  end

let snapshot_desc t buf =
  Vec.clear buf;
  let words = t.words in
  for w = Array.length words - 1 downto 0 do
    let v = ref (Array.unsafe_get words w) in
    while !v <> 0 do
      let b = msb !v in
      Vec.push buf ((w * bits_per_word) + b);
      v := !v land lnot (1 lsl b)
    done
  done
