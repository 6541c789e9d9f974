(** Vector clocks over simulated thread ids.

    Clocks are growable integer arrays indexed by [tid + 1] so the
    engine's host/scheduler context (tid [-1], see
    [Sim.Engine.current_tid]) gets a slot of its own.  Thread ids are
    small and dense (the engine mints them from a counter), so a flat
    array beats a map both in speed and in how readable the clocks are
    in a debugger. *)

type t = { mutable stamps : int array }

let slot tid = tid + 1

let create () = { stamps = Array.make 8 0 }

let ensure t s =
  let n = Array.length t.stamps in
  if s >= n then begin
    let n' = ref (n * 2) in
    while s >= !n' do
      n' := !n' * 2
    done;
    let a = Array.make !n' 0 in
    Array.blit t.stamps 0 a 0 n;
    t.stamps <- a
  end

(** Component for [tid]; unobserved threads are at 0. *)
let get t ~tid =
  let s = slot tid in
  if s < Array.length t.stamps then t.stamps.(s) else 0

let set t ~tid v =
  let s = slot tid in
  ensure t s;
  t.stamps.(s) <- v

(** Advance [tid]'s own component; returns the new value. *)
let tick t ~tid =
  let s = slot tid in
  ensure t s;
  let v = t.stamps.(s) + 1 in
  t.stamps.(s) <- v;
  v

let copy t = { stamps = Array.copy t.stamps }

(** [merge dst src] joins [src] into [dst] (pointwise max). *)
let merge dst src =
  let n = Array.length src.stamps in
  ensure dst (n - 1);
  let d = dst.stamps and s = src.stamps in
  for i = 0 to n - 1 do
    if s.(i) > d.(i) then d.(i) <- s.(i)
  done

(** Pointwise [a <= b]: everything [a] has seen, [b] has seen too. *)
let leq a b =
  let n = Array.length a.stamps in
  let rec go i = i >= n || (a.stamps.(i) <= get b ~tid:(i - 1) && go (i + 1)) in
  go 0

let to_string t =
  let parts = ref [] in
  Array.iteri
    (fun i v -> if v > 0 then parts := Printf.sprintf "%d:%d" (i - 1) v :: !parts)
    t.stamps;
  "{" ^ String.concat " " (List.rev !parts) ^ "}"
