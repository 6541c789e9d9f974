(** Deterministic binary min-heap with integer keys and an integer
    tie-breaker.

    Backs the simulation engine's sleeper queue: elements are ordered by
    [(key, tie)] lexicographically, so two elements with the same key
    (threads waking at the same virtual instant) pop in a fixed,
    seed-independent order — the engine passes the thread id as [tie].

    The heap is array-backed (three parallel arrays, no per-element
    boxing) and grows by doubling; [push] is O(log n), [pop] is
    O(log n), and the min accessors are O(1) and allocation-free, which
    is what lets the engine ask "when is the next event?" every
    scheduling round for free. *)

type 'a t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable elts : 'a array;
  mutable len : int;
  dummy : 'a;  (** fills vacated slots so they don't retain elements *)
}

let create ?(capacity = 16) dummy =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    ties = Array.make capacity 0;
    elts = Array.make capacity dummy;
    len = 0;
    dummy;
  }

let length t = t.len
let is_empty t = t.len = 0

let clear t =
  Array.fill t.elts 0 t.len t.dummy;
  t.len <- 0

(* (keys.(i), ties.(i)) < (keys.(j), ties.(j)) lexicographically. *)
let less t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.ties.(i) < t.ties.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let x = t.ties.(i) in
  t.ties.(i) <- t.ties.(j);
  t.ties.(j) <- x;
  let e = t.elts.(i) in
  t.elts.(i) <- t.elts.(j);
  t.elts.(j) <- e

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.len then begin
    let r = l + 1 in
    let smallest = if r < t.len && less t r l then r else l in
    if less t smallest i then begin
      swap t i smallest;
      sift_down t smallest
    end
  end

let grow t =
  let cap = Array.length t.keys in
  let cap' = 2 * cap in
  let keys = Array.make cap' 0 in
  Array.blit t.keys 0 keys 0 t.len;
  t.keys <- keys;
  let ties = Array.make cap' 0 in
  Array.blit t.ties 0 ties 0 t.len;
  t.ties <- ties;
  let elts = Array.make cap' t.dummy in
  Array.blit t.elts 0 elts 0 t.len;
  t.elts <- elts

let push t ~key ~tie elt =
  if t.len = Array.length t.keys then grow t;
  let i = t.len in
  t.keys.(i) <- key;
  t.ties.(i) <- tie;
  t.elts.(i) <- elt;
  t.len <- t.len + 1;
  sift_up t i

let min_key_exn t =
  if t.len = 0 then invalid_arg "Pqueue.min_key_exn: empty";
  t.keys.(0)

let min_elt_exn t =
  if t.len = 0 then invalid_arg "Pqueue.min_elt_exn: empty";
  t.elts.(0)

(* The engine pops a sleeper per wake, so the primitive returns the
   element unboxed and [pop] wraps it. *)
let pop_exn t =
  if t.len = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let e = t.elts.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    t.keys.(0) <- t.keys.(last);
    t.ties.(0) <- t.ties.(last);
    t.elts.(0) <- t.elts.(last)
  end;
  t.elts.(last) <- t.dummy;
  if last > 0 then sift_down t 0;
  e

let pop t = if t.len = 0 then None else Some (pop_exn t)
