(** Growable array (OCaml 5.1 predates [Dynarray] in the stdlib).

    Used pervasively: region object lists, GC mark stacks, SATB buffers,
    root sets.  Amortized O(1) push; indices are stable until [remove] or
    [clear].  Only a vector emptied with [forget] keeps values past its
    length. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a; (* fills unused slots so we never hold on to dead values *)
}

let create ?(capacity = 8) dummy =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

(* Exactly [n], not the next doubling: a reservation names what it
   needs. *)
let reserve t n =
  if n > Array.length t.data then begin
    let data = Array.make n t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

(* Values kept past the length.  Nothing else reads a slot at or past
   [len], and [push] grows a vector only when every slot is below its
   length, so a kept value stays where it is until a push lands on its
   slot.  [reserve] and the shortening operations are not used on such a
   vector. *)
let forget t = t.len <- 0
let kept t i = t.data.(i)

let push_kept t x =
  ensure_capacity t (t.len + 1);
  if t.data.(t.len) != x then t.data.(t.len) <- x;
  t.len <- t.len + 1

(* No option-returning pop: callers test [is_empty] first, and an option
   result would box one cell per element in the hot drain loops. *)
let pop_last t =
  if t.len = 0 then invalid_arg "Vec.pop_last: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let truncate t n =
  if n < 0 then invalid_arg "Vec.truncate: negative length";
  if n < t.len then begin
    Array.fill t.data n (t.len - n) t.dummy;
    t.len <- n
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x


let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.init t.len (fun i -> t.data.(i))

let of_list dummy xs =
  let t = create ~capacity:(max 1 (List.length xs)) dummy in
  List.iter (push t) xs;
  t

(** In-place stable sort of the live prefix. *)
let sort cmp t =
  let sub = Array.sub t.data 0 t.len in
  Array.stable_sort cmp sub;
  Array.blit sub 0 t.data 0 t.len

(** [find_first_geq t ~key ~of_elt] binary-searches a vector sorted by
    [of_elt] for the first index whose key is >= [key]; returns [length t]
    when all keys are smaller.  Used to locate the first object overlapping
    a card during remembered-set scans. *)
let find_first_geq t ~key ~of_elt =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if of_elt t.data.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo
