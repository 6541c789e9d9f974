(** Grace periods for released records: quiescent-state-based
    reclamation over the run's mutators and collector controllers.

    A participant is online while it may hold a heap reference outside
    the roots and the heap slots: a mutator inside a request (set-up is
    one long request), a controller inside a collection cycle.  It
    declares a quiescent point where it holds none.  A grace period
    waits on every participant online when it opens, except the one
    opening it, and ends once each of them has passed a quiescent point
    or gone offline.  What a release put in limbo before a period opens
    ({!release}: stubs, and dead residents a running mark kept back)
    goes to the pool when it ends.  Periods open and end only inside
    {!quiescent} and {!offline}, never inside a region release. *)

(* Participant states. *)
let offline_ = 0
let online_ = 1
let awaited_ = 2 (* online, and the running period waits on it *)

type t = {
  pool : Gobj.Pool.t;
  mutable state : int array;  (** per participant, by registration index *)
  mutable participants : int;
  mutable awaited : int;  (** participants the running period waits on *)
  mutable running : bool;
  mutable released : Gobj.t Util.Ring.t;
      (** stubs released since the running period opened *)
  mutable held : Gobj.t Util.Vec.t;
      (** dead residents a running mark kept back, released since the
          running period opened *)
  mutable due : Gobj.t Util.Ring.t;  (** stubs the running period frees *)
  mutable held_due : Gobj.t Util.Vec.t;
      (** held records the running period frees *)
  mutable check :
    (stubs:Gobj.t Util.Ring.t -> held:Gobj.t Util.Vec.t -> unit) option;
}

let create pool =
  {
    pool;
    state = [||];
    participants = 0;
    awaited = 0;
    running = false;
    released = Util.Ring.create Gobj.null;
    held = Util.Vec.create Gobj.null;
    due = Util.Ring.create Gobj.null;
    held_due = Util.Vec.create Gobj.null;
    check = None;
  }

let register t =
  let p = t.participants in
  if p = Array.length t.state then begin
    let s = Array.make (Int.max 8 (2 * p)) offline_ in
    Array.blit t.state 0 s 0 p;
    t.state <- s
  end;
  t.state.(p) <- online_;
  t.participants <- p + 1;
  p

let release t ~floor objs =
  Gobj.release_residents t.pool ~floor ~stubs:t.released ~held:t.held objs

let set_check t f = t.check <- f

let in_limbo t =
  Util.Ring.length t.released + Util.Vec.length t.held + Util.Ring.length t.due
  + Util.Vec.length t.held_due

(* Open a period over every record released so far.  [self] is at a
   quiescent point, so the period does not wait on it. *)
let open_period t ~self =
  let r = t.released and h = t.held in
  t.released <- t.due;
  t.due <- r;
  t.held <- t.held_due;
  t.held_due <- h;
  t.running <- true;
  t.awaited <- 0;
  for q = 0 to t.participants - 1 do
    if q <> self && t.state.(q) <> offline_ then begin
      t.state.(q) <- awaited_;
      t.awaited <- t.awaited + 1
    end
  done

(* Every mark runs inside one controller step, so a mark that was
   running at a held record's release has ended by now, its final pause
   having drained every gray stack and SATB queue: the held records go
   through the harvest of a release outside marking.  Nothing relocates
   a freed record, so none is forwarded and [released] gets none. *)
let close_period t =
  (match t.check with Some f -> f ~stubs:t.due ~held:t.held_due | None -> ());
  Gobj.Pool.put_stubs t.pool t.due;
  Gobj.release_residents t.pool ~floor:Gobj.harvest_all ~stubs:t.released
    ~held:t.held t.held_due;
  Util.Vec.clear t.held_due;
  t.running <- false

let rec advance t ~self =
  if t.running then begin
    if t.awaited = 0 then begin
      close_period t;
      advance t ~self
    end
  end
  else if not (Util.Ring.is_empty t.released && Util.Vec.is_empty t.held)
  then begin
    open_period t ~self;
    advance t ~self
  end

let pass t p =
  if t.state.(p) = awaited_ then begin
    t.state.(p) <- online_;
    t.awaited <- t.awaited - 1
  end

let quiescent t p =
  pass t p;
  advance t ~self:p

let offline t p =
  pass t p;
  t.state.(p) <- offline_;
  advance t ~self:p

let online t p = if t.state.(p) = offline_ then t.state.(p) <- online_
