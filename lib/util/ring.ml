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

(* Copy the elements to the front of an array twice the size. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 8 (2 * cap)) t.dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) mod cap)
  done;
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
