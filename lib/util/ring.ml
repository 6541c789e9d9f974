(** Growable FIFO ring buffer: the elements occupy [len] consecutive
    slots of [buf] starting at [head], wrapping past the end. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  dummy : 'a;  (** fills vacated slots so they don't retain elements *)
}

let create dummy = { buf = [||]; head = 0; len = 0; dummy }
let length t = t.len
let is_empty t = t.len = 0

(* Copy the elements to the front of an array twice the size: the run
   from the head to the array's end, then the part that wrapped. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 8 (2 * cap)) t.dummy in
  let first = Int.min t.len (cap - t.head) in
  Array.blit t.buf t.head buf 0 first;
  Array.blit t.buf 0 buf first (t.len - first);
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  let i = t.head + t.len in
  t.buf.(if i >= cap then i - cap else i) <- x;
  t.len <- t.len + 1

let pop_exn t =
  if t.len = 0 then invalid_arg "Ring.pop_exn: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  let h = t.head + 1 in
  t.head <- (if h = Array.length t.buf then 0 else h);
  t.len <- t.len - 1;
  x

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.dummy;
  t.head <- 0;
  t.len <- 0

let iter f t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    let j = t.head + i in
    f t.buf.(if j >= cap then j - cap else j)
  done

(* An empty [dst] takes [src]'s array whole and gives [src] its own,
   already all [dummy]: no element is copied and nothing is allocated,
   however long [src] is. *)
let transfer ~src ~dst =
  if dst.len = 0 then begin
    let buf = dst.buf in
    dst.buf <- src.buf;
    dst.head <- src.head;
    dst.len <- src.len;
    src.buf <- buf;
    src.head <- 0;
    src.len <- 0
  end
  else
    while src.len > 0 do
      push dst (pop_exn src)
    done
