(* Unit and property tests for the util library. *)

open Util

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 50 (fun _ -> Prng.bits a) in
  let ys = List.init 50 (fun _ -> Prng.bits b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let p = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in p 5 9 in
    Alcotest.(check bool) "in closed range" true (v >= 5 && v <= 9)
  done

let test_prng_exponential_mean () =
  let p = Prng.create 3 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:100.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f close to 100" mean)
    true
    (mean > 95. && mean < 105.)

let test_prng_float_range () =
  let p = Prng.create 5 in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

(* The first draws of each stream, recorded from the boxed-[int64]
   implementation: any change to the state layout or the step must keep
   every stream bit-identical.  Floats compare by their bit patterns. *)
let test_prng_pinned () =
  let pinned =
    [
      ( 0,
        (4073552104164651883, 1990071630548588925, 419),
        (0x1.f1177150e499p-1, 0x1.c035cda88531ap+7),
        (357185052570730571, 801824006500076728, false) );
      ( 42,
        (3419864383188818853, 737456523031723072, 964),
        (0x1.607387fc392b8p-2, 0x1.46f00371466fcp+8),
        (305313939292111114, 1007216178194406231, false) );
      ( -1,
        (4122584066742110984, 4208611764272472242, 250),
        (0x1.b476cdb32ea6p-2, 0x1.16ffaaaafe05dp+5),
        (24341702233245981, 4347041532499595241, true) );
    ]
  in
  let float_bits = Alcotest.testable (Fmt.of_to_string (Printf.sprintf "%h")) (fun a b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  List.iter
    (fun (seed, (b1, b2, i), (f, e), (child, parent, ch)) ->
      let p = Prng.create seed in
      let name what = Printf.sprintf "seed %d %s" seed what in
      check Alcotest.int (name "bits 1") b1 (Prng.bits p);
      check Alcotest.int (name "bits 2") b2 (Prng.bits p);
      check Alcotest.int (name "int 1000") i (Prng.int p 1000);
      check float_bits (name "float") f (Prng.float p);
      check float_bits (name "exponential") e (Prng.exponential p ~mean:100.);
      let c = Prng.split p in
      check Alcotest.int (name "split child bits") child (Prng.bits c);
      check Alcotest.int (name "parent after split") parent (Prng.bits p);
      check Alcotest.bool (name "chance 0.5") ch (Prng.chance p 0.5))
    pinned

(* Host minor words allocated by [f ()]; [Gc.minor_words] returns its
   float unboxed, so the probe itself adds nothing inside the window. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_no_alloc what f =
  f ();
  (* warm-up: first-call effects stay outside the window *)
  check (Alcotest.float 0.) (what ^ ": minor words") 0. (minor_words_of f)

let test_hot_path_no_alloc () =
  let p = Prng.create 42 in
  let n = 10_000 in
  let sink = ref 0 in
  check_no_alloc "Prng.bits" (fun () ->
      for _ = 1 to n do
        sink := !sink lxor Prng.bits p
      done);
  check_no_alloc "Prng.int / int_in" (fun () ->
      for _ = 1 to n do
        sink := !sink + Prng.int p 1000 + Prng.int_in p 5 9
      done);
  check_no_alloc "Prng.chance / bool" (fun () ->
      for _ = 1 to n do
        if Prng.chance p 0.25 || Prng.bool p then incr sink
      done);
  (* A float crossing a module boundary is returned boxed unless the
     call is inlined.  dune-workspace builds without [-opaque], so
     [Prng.float] inlines here and its result stays unboxed.  This check
     therefore also fences the build: under [dune build --profile dev]
     each draw allocates its 2-word result box and the check fails. *)
  check_no_alloc "Prng.float" (fun () ->
      for _ = 1 to n do
        if Prng.float p < 0.5 then incr sink
      done);
  let h = Histogram.create () in
  check_no_alloc "Histogram.record" (fun () ->
      for i = 1 to n do
        Histogram.record h (i * 977)
      done);
  let v = Vec.create 0 in
  check_no_alloc "Vec.push / truncate" (fun () ->
      for i = 1 to n do
        Vec.push v i;
        if i land 15 = 0 then Vec.truncate v 0
      done);
  let r = Ring.create 0 in
  check_no_alloc "Ring.push / pop_exn" (fun () ->
      for i = 1 to n do
        Ring.push r i;
        if i land 15 = 0 then
          while not (Ring.is_empty r) do
            sink := !sink + Ring.pop_exn r
          done
      done);
  Alcotest.(check bool) "sink used" true (!sink <> min_int)

(* A card snapshot into a buffer kept across cycles allocates nothing
   once the buffer holds the set, and hands out the same cards, highest
   first, as sorting the set in decreasing order does.  The set spans
   many words and uses each word's top bit (the sign bit), bit 0 and a
   partial last word. *)
let test_snapshot_desc_no_alloc () =
  let nbits = 5_000 in
  let b = Bitset.create nbits in
  let members = ref [] in
  for i = 0 to nbits - 1 do
    if i mod 63 = 62 || i mod 63 = 0 || i mod 17 = 5 || i = nbits - 1 then begin
      ignore (Bitset.set b i);
      members := i :: !members
    end
  done;
  let buf = Vec.create 0 in
  Bitset.snapshot_desc b buf;
  Alcotest.(check (list int)) "highest first" !members (Vec.to_list buf);
  check_no_alloc "Bitset.snapshot_desc" (fun () ->
      for _ = 1 to 100 do
        Bitset.snapshot_desc b buf
      done);
  Alcotest.(check (list int)) "same cards again" !members (Vec.to_list buf)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_pop () =
  let v = Vec.create 0 in
  for i = 1 to 100 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  for i = 100 downto 1 do
    check Alcotest.int "pop order" i (Vec.pop_last v)
  done;
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop_last: empty")
    (fun () -> ignore (Vec.pop_last v))

(* The models below pop through the emptiness test the drain loops use. *)
let pop v = if Vec.is_empty v then None else Some (Vec.pop_last v)

let test_vec_get_set () =
  let v = Vec.of_list 0 [ 1; 2; 3 ] in
  Vec.set v 1 42;
  check Alcotest.int "set/get" 42 (Vec.get v 1);
  Alcotest.check_raises "oob get" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 3))

let test_vec_sort_and_search () =
  let v = Vec.of_list 0 [ 5; 1; 9; 3; 7 ] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] (Vec.to_list v);
  check Alcotest.int "geq 4 -> index of 5" 2
    (Vec.find_first_geq v ~key:4 ~of_elt:Fun.id);
  check Alcotest.int "geq 10 -> length" 5
    (Vec.find_first_geq v ~key:10 ~of_elt:Fun.id);
  check Alcotest.int "geq 0 -> 0" 0 (Vec.find_first_geq v ~key:0 ~of_elt:Fun.id)

let vec_model =
  qtest "vec behaves like a list stack"
    QCheck2.Gen.(list (int_range 0 2))
    (fun ops ->
      let v = Vec.create (-1) in
      let model = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | 0 | 1 ->
              Vec.push v i;
              model := i :: !model
          | _ -> (
              match (pop v, !model) with
              | Some x, m :: rest ->
                  model := rest;
                  if x <> m then failwith "pop mismatch"
              | None, [] -> ()
              | _ -> failwith "emptiness mismatch"))
        ops;
      List.length !model = Vec.length v
      && List.rev !model = Vec.to_list v)

let vec_reference_model =
  (* Full op-set model: every mutation mirrored on a naive list, full
     contents compared after every step (not just at the end). *)
  qtest ~count:300 "vec matches a naive list under all ops"
    QCheck2.Gen.(list (pair (int_range 0 5) (int_range 0 99)))
    (fun ops ->
      let v = Vec.create (-1) in
      let model = ref [] in
      List.for_all
        (fun (op, x) ->
          (match op with
          | 0 | 1 ->
              Vec.push v x;
              model := !model @ [ x ]
          | 2 -> (
              match (pop v, List.rev !model) with
              | Some a, b :: rest ->
                  if a <> b then failwith "pop mismatch";
                  model := List.rev rest
              | None, [] -> ()
              | _ -> failwith "emptiness mismatch")
          | 3 ->
              if !model <> [] then begin
                let i = x mod List.length !model in
                Vec.set v i x;
                model := List.mapi (fun j y -> if j = i then x else y) !model
              end
          | 4 ->
              (* Lengths past the end are no-ops. *)
              let n = x mod (List.length !model + 2) in
              Vec.truncate v n;
              model := List.filteri (fun j _ -> j < n) !model
          | _ ->
              Vec.sort compare v;
              model := List.sort compare !model);
          Vec.length v = List.length !model && Vec.to_list v = !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "newly set" true (Bitset.set b 13);
  Alcotest.(check bool) "already set" false (Bitset.set b 13);
  Alcotest.(check bool) "get" true (Bitset.get b 13);
  check Alcotest.int "cardinal" 1 (Bitset.cardinal b);
  Bitset.clear b 13;
  Alcotest.(check bool) "cleared" false (Bitset.get b 13);
  check Alcotest.int "cardinal 0" 0 (Bitset.cardinal b)

let test_bitset_iter_range () =
  let b = Bitset.create 64 in
  List.iter (fun i -> ignore (Bitset.set b i)) [ 3; 17; 18; 40; 63 ];
  Alcotest.(check (list int)) "iter_set" [ 3; 17; 18; 40; 63 ] (Bitset.to_list b);
  let buf = Vec.of_list 0 [ 7; 7; 7; 7; 7; 7; 7 ] in
  Bitset.snapshot_desc b buf;
  Alcotest.(check (list int)) "descending snapshot" [ 63; 40; 18; 17; 3 ]
    (Vec.to_list buf);
  Bitset.clear_range b ~lo:17 ~hi:41;
  Alcotest.(check (list int)) "range cleared" [ 3; 63 ] (Bitset.to_list b);
  check Alcotest.int "cardinal" 2 (Bitset.cardinal b)

let bitset_model =
  qtest "bitset matches an int-set model"
    QCheck2.Gen.(list (pair bool (int_range 0 255)))
    (fun ops ->
      let b = Bitset.create 256 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (set, i) ->
          if set then begin
            ignore (Bitset.set b i);
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove model i
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun i -> Hashtbl.mem model i) (Bitset.to_list b))

(* A naive reference bitset: a bool array plus recount-from-scratch
   cardinal.  Exercises the trailing partial word by drawing sizes that
   are not multiples of the 63-bit word width. *)
let bitset_reference_model =
  qtest ~count:300 "bitset matches naive reference (mixed ops, odd sizes)"
    QCheck2.Gen.(
      let size = oneofl [ 1; 7; 62; 63; 64; 125; 126; 200; 255 ] in
      pair size (list (pair (int_range 0 2) (int_range 0 10_000))))
    (fun (nbits, ops) ->
      let b = Bitset.create nbits in
      let ref_bits = Array.make nbits false in
      List.iter
        (fun (op, r) ->
          let i = r mod nbits in
          match op with
          | 0 ->
              let newly = Bitset.set b i in
              if newly = ref_bits.(i) then failwith "set return mismatch";
              ref_bits.(i) <- true
          | 1 ->
              Bitset.clear b i;
              ref_bits.(i) <- false
          | _ ->
              Bitset.clear_all b;
              Array.fill ref_bits 0 nbits false)
        ops;
      let ref_card = Array.fold_left (fun n v -> if v then n + 1 else n) 0 ref_bits in
      let ref_list =
        List.filter (fun i -> ref_bits.(i)) (List.init nbits Fun.id)
      in
      (* get / cardinal / iter_set must all agree with the reference. *)
      Bitset.cardinal b = ref_card
      && Bitset.to_list b = ref_list
      && List.for_all (fun i -> Bitset.get b i = ref_bits.(i))
           (List.init nbits Fun.id))

(* The batched clear must agree bit-for-bit with per-bit loops over a
   bool-array model: clear_range, including cardinal maintenance, empty
   windows, out-of-range clamping and word-boundary straddles. *)
let bitset_range_ops_model =
  qtest ~count:300 "bitset clear_range matches naive bit loops"
    QCheck2.Gen.(
      let size = oneofl [ 1; 7; 62; 63; 64; 125; 126; 189; 200; 255 ] in
      pair size
        (pair
           (list (int_range 0 10_000)) (* initial set bits, mod nbits *)
           (list (pair (int_range 0 2) (pair (int_range (-10) 300) (int_range (-10) 300))))))
    (fun (nbits, (seeds, ops)) ->
      let b = Bitset.create nbits in
      let ref_bits = Array.make nbits false in
      List.iter
        (fun r ->
          let i = r mod nbits in
          ignore (Bitset.set b i);
          ref_bits.(i) <- true)
        seeds;
      List.iter
        (fun (op, (lo, hi)) ->
          match op with
          | 0 ->
              Bitset.clear_range b ~lo ~hi;
              let l = max 0 lo and h = min nbits hi in
              if l < h then Array.fill ref_bits l (h - l) false
          | 1 ->
              let i = abs lo mod nbits in
              ignore (Bitset.set b i);
              ref_bits.(i) <- true
          | _ ->
              let i = abs hi mod nbits in
              Bitset.clear b i;
              ref_bits.(i) <- false)
        ops;
      let ref_card =
        Array.fold_left (fun n v -> if v then n + 1 else n) 0 ref_bits
      in
      Bitset.cardinal b = ref_card
      && Bitset.to_list b
         = List.filter (fun i -> ref_bits.(i)) (List.init nbits Fun.id))

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_basic () =
  let q = Pqueue.create 0 in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.push q ~key:5 ~tie:0 50;
  Pqueue.push q ~key:1 ~tie:0 10;
  Pqueue.push q ~key:3 ~tie:0 30;
  check Alcotest.int "length" 3 (Pqueue.length q);
  check Alcotest.int "min_key" 1 (Pqueue.min_key_exn q);
  check Alcotest.int "min_elt" 10 (Pqueue.min_elt_exn q);
  Alcotest.(check (list int)) "sorted pops" [ 10; 30; 50 ]
    (List.init 3 (fun _ -> Pqueue.pop_exn q));
  Alcotest.(check (option int)) "pop empty" None (Pqueue.pop q)

let test_pqueue_tie_break () =
  (* Equal keys pop in tie order regardless of insertion order. *)
  let q = Pqueue.create (-1) in
  List.iter
    (fun tie -> Pqueue.push q ~key:7 ~tie tie)
    [ 3; 1; 4; 0; 2 ];
  Alcotest.(check (list int)) "tie order" [ 0; 1; 2; 3; 4 ]
    (List.init 5 (fun _ -> Pqueue.pop_exn q))

let pqueue_model =
  qtest ~count:300 "pqueue drains in (key, tie) order"
    QCheck2.Gen.(list (pair (int_range 0 50) (int_range 0 10)))
    (fun pairs ->
      let q = Pqueue.create (0, 0) in
      List.iter (fun (k, t) -> Pqueue.push q ~key:k ~tie:t (k, t)) pairs;
      let drained = List.init (List.length pairs) (fun _ -> Pqueue.pop_exn q) in
      drained = List.stable_sort compare pairs && Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Ring *)

(* Reference model: every operation sequence leaves [Ring] and
   [Stdlib.Queue] with the same length, the same popped values and the
   same failures on empty.  Pushes outnumber pops two to one, so runs
   grow the ring past its first capacities, and interleaved pops move
   the head so later pushes wrap around the array's end. *)
let ring_reference_model =
  qtest ~count:500 "ring matches Stdlib.Queue"
    QCheck2.Gen.(
      list_size (int_range 0 200)
        (frequency [ (2, map Option.some (int_range 0 99)); (1, pure None) ]))
    (fun ops ->
      let r = Ring.create (-1) and q = Queue.create () in
      let same_pop () =
        match Ring.pop_exn r with
        | x -> (not (Queue.is_empty q)) && x = Queue.pop q
        | exception Invalid_argument _ -> Queue.is_empty q
      in
      List.for_all
        (fun op ->
          (match op with
            | Some x ->
                Ring.push r x;
                Queue.push x q;
                true
            | None -> same_pop ())
          && Ring.length r = Queue.length q
          && Ring.is_empty r = Queue.is_empty q)
        ops
      && List.for_all (fun _ -> same_pop ()) (List.init (Queue.length q) Fun.id)
      && Ring.is_empty r)

let test_ring_wrap_then_grow () =
  let r = Ring.create 0 in
  for i = 1 to 6 do
    Ring.push r i
  done;
  for i = 1 to 4 do
    check Alcotest.int "front" i (Ring.pop_exn r)
  done;
  (* The head now sits mid-array: these pushes wrap past its end, then
     grow it while wrapped. *)
  for i = 7 to 30 do
    Ring.push r i
  done;
  check Alcotest.int "length" 26 (Ring.length r);
  for i = 5 to 30 do
    check Alcotest.int "FIFO across wrap and growth" i (Ring.pop_exn r)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Ring.pop_exn: empty")
    (fun () -> ignore (Ring.pop_exn r))

(* [transfer] keeps release order on both of its paths: into an empty
   ring it exchanges arrays, into a non-empty one it moves element by
   element, here from a source whose head has wrapped.  The source is
   left empty and usable, and [iter] walks front to back. *)
let test_ring_transfer () =
  let contents r =
    let acc = ref [] in
    Ring.iter (fun x -> acc := x :: !acc) r;
    List.rev !acc
  in
  let src = Ring.create 0 and dst = Ring.create 0 in
  List.iter (Ring.push src) [ 1; 2; 3 ];
  Ring.transfer ~src ~dst;
  check Alcotest.(list int) "empty destination takes all" [ 1; 2; 3 ]
    (contents dst);
  check Alcotest.int "source emptied" 0 (Ring.length src);
  for i = 4 to 9 do
    Ring.push src i
  done;
  check Alcotest.int "source refilled" 4 (Ring.pop_exn src);
  check Alcotest.int "source refilled" 5 (Ring.pop_exn src);
  for i = 10 to 12 do
    Ring.push src i
  done;
  Ring.transfer ~src ~dst;
  check Alcotest.(list int) "appended behind, in order"
    [ 1; 2; 3; 6; 7; 8; 9; 10; 11; 12 ]
    (contents dst);
  check Alcotest.int "source emptied again" 0 (Ring.length src);
  Ring.push src 13;
  check Alcotest.int "source still usable" 13 (Ring.pop_exn src);
  List.iter
    (fun x -> check Alcotest.int "FIFO after transfers" x (Ring.pop_exn dst))
    [ 1; 2; 3; 6; 7; 8; 9; 10; 11; 12 ];
  check Alcotest.bool "drained" true (Ring.is_empty dst)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_small_exact () =
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.record h v) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check Alcotest.int "p50" 5 (Histogram.percentile h 50.);
  check Alcotest.int "p100" 10 (Histogram.percentile h 100.);
  check Alcotest.int "max" 10 (Histogram.max_value h);
  check Alcotest.int "min" 1 (Histogram.min_value h);
  Alcotest.(check (float 0.01)) "mean" 5.5 (Histogram.mean h)

let test_histogram_relative_error () =
  let h = Histogram.create () in
  let values = List.init 1000 (fun i -> (i + 1) * 7919) in
  List.iter (Histogram.record h) values;
  (* p99 of 1000 ascending values is the 990th: 990*7919. *)
  let expected = 990 * 7919 in
  let got = Histogram.percentile h 99. in
  let err = abs_float (float_of_int (got - expected) /. float_of_int expected) in
  Alcotest.(check bool)
    (Printf.sprintf "p99 rel err %.4f < 1%%" err)
    true (err < 0.01)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100;
  Histogram.record b 200;
  Histogram.merge ~into:a b;
  check Alcotest.int "total" 2 (Histogram.total a);
  check Alcotest.int "max" 200 (Histogram.max_value a)

let histogram_quantization =
  qtest "bucket midpoint within 1% of any value"
    QCheck2.Gen.(int_range 1 1_000_000_000)
    (fun v ->
      let h = Histogram.create () in
      Histogram.record h v;
      let p = Histogram.percentile h 100. in
      abs_float (float_of_int (p - v)) <= 0.01 *. float_of_int v +. 1.)

let histogram_reference_model =
  (* Compare against a naive sorted-list implementation: counts and sum
     are exact, percentiles within the documented quantization bound
     (exact below 2^sub_bits, else <= 2^-sub_bits relative). *)
  qtest ~count:300 "histogram matches a naive reference"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 5_000_000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let naive_pct p =
        (* nearest-rank percentile on the raw values *)
        let rank =
          max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
        in
        List.nth sorted rank
      in
      let close a b =
        let a = float_of_int a and b = float_of_int b in
        abs_float (a -. b) <= (2. ** -7.) *. Float.max a b +. 1.
      in
      Histogram.total h = n
      && Histogram.max_value h = List.fold_left max 0 sorted
      && Histogram.min_value h = List.fold_left min max_int sorted
      && abs_float (Histogram.sum h -. float_of_int (List.fold_left ( + ) 0 sorted))
         < 0.5
      && List.for_all
           (fun p -> close (Histogram.percentile h p) (naive_pct p))
           [ 50.; 90.; 99.; 100. ])

let histogram_merge_model =
  qtest ~count:200 "merge equals recording the concatenation"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 100) (int_range 0 1_000_000))
        (list_size (int_range 0 100) (int_range 0 1_000_000)))
    (fun (xs, ys) ->
      let a = Histogram.create () and b = Histogram.create () in
      List.iter (Histogram.record a) xs;
      List.iter (Histogram.record b) ys;
      Histogram.merge ~into:a b;
      let c = Histogram.create () in
      List.iter (Histogram.record c) (xs @ ys);
      Histogram.total a = Histogram.total c
      && Histogram.max_value a = Histogram.max_value c
      && Histogram.min_value a = Histogram.min_value c
      && List.for_all
           (fun p -> Histogram.percentile a p = Histogram.percentile c p)
           [ 50.; 90.; 99.; 99.9; 100. ])

(* Buckets are allocated by the first record.  Merges between
   histograms that own buckets and ones that do not yet, in either
   direction, must read exactly like one histogram that recorded every
   value. *)
let histogram_first_use_model =
  qtest ~count:300 "first-use merges read as one histogram"
    QCheck2.Gen.(
      let values =
        oneof
          [
            pure [];
            list_size (int_range 1 60)
              (oneof [ int_range 0 2_000; int_range 0 1_000_000_000 ]);
          ]
      in
      pair values values)
    (fun (xs, ys) ->
      let filled values =
        let h = Histogram.create () in
        List.iter (Histogram.record h) values;
        h
      in
      let whole = filled (xs @ ys) in
      let merged a b =
        let into = filled a in
        Histogram.merge ~into (filled b);
        into
      in
      let same h =
        Histogram.total h = Histogram.total whole
        && Histogram.max_value h = Histogram.max_value whole
        && Histogram.min_value h = Histogram.min_value whole
        && List.for_all
             (fun p -> Histogram.percentile h p = Histogram.percentile whole p)
             [ 0.; 1.; 10.; 50.; 90.; 99.; 99.9; 100. ]
      in
      same (merged xs ys) && same (merged ys xs)
      && same (merged [] (xs @ ys))
      && same (merged (xs @ ys) []))

let test_histogram_first_use () =
  let words h = Obj.reachable_words (Obj.repr h) in
  let h = Histogram.create () in
  Alcotest.(check bool) "a fresh histogram owns no buckets" true (words h < 16);
  Histogram.merge ~into:h (Histogram.create ());
  Alcotest.(check bool) "merging an idle one allocates none" true (words h < 16);
  Histogram.record h 5;
  Alcotest.(check bool) "the first record owns the full layout" true
    (words h > (63 - 7) * 128);
  Alcotest.(check int) "p50 still exact" 5 (Histogram.percentile h 50.)

(* ------------------------------------------------------------------ *)
(* Units and Table *)

let test_units_format () =
  check Alcotest.string "ns" "500ns" (Units.pp_time_ns 500);
  check Alcotest.string "us" "1.50us" (Units.pp_time_ns 1500);
  check Alcotest.string "ms" "2.50ms" (Units.pp_time_ns 2_500_000);
  check Alcotest.string "s" "1.25s" (Units.pp_time_ns 1_250_000_000);
  check Alcotest.string "bytes" "512B" (Units.pp_bytes 512);
  check Alcotest.string "kib" "2.0KiB" (Units.pp_bytes 2048)

(* The title line, separators sized to the widest cell, the first
   column left-aligned and the rest right-aligned, rows in order. *)
let test_table_render () =
  Alcotest.(check string) "rendered table"
    "== demo ==\n\
     +------+----+\n\
     | a    | bb |\n\
     +------+----+\n\
     | x    |  1 |\n\
     | long | 22 |\n\
     +------+----+\n"
    (Table.render ~title:"demo" ~headers:[ "a"; "bb" ]
       [ [ "x"; "1" ]; [ "long"; "22" ] ])

(* A row whose cell count differs from the headers is a caller bug: it
   would print an unlabeled column, or a short row. *)
let test_table_ragged () =
  let render rows =
    ignore (Table.render ~title:"demo" ~headers:[ "a"; "bb" ] rows)
  in
  Alcotest.check_raises "extra cell"
    (Invalid_argument "Table.render \"demo\": a row has 3 cells under 2 headers")
    (fun () -> render [ [ "x"; "1" ]; [ "y"; "2"; "3" ] ]);
  Alcotest.check_raises "missing cell"
    (Invalid_argument "Table.render \"demo\": a row has 1 cells under 2 headers")
    (fun () -> render [ [ "x" ] ])

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "pinned streams" `Quick test_prng_pinned;
          Alcotest.test_case "hot path allocates nothing" `Quick test_hot_path_no_alloc;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "get/set" `Quick test_vec_get_set;
          Alcotest.test_case "sort/search" `Quick test_vec_sort_and_search;
          vec_model;
          vec_reference_model;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "iter/range" `Quick test_bitset_iter_range;
          Alcotest.test_case "card snapshot allocates nothing" `Quick
            test_snapshot_desc_no_alloc;
          bitset_model;
          bitset_reference_model;
          bitset_range_ops_model;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic" `Quick test_pqueue_basic;
          Alcotest.test_case "tie-break" `Quick test_pqueue_tie_break;
          pqueue_model;
        ] );
      ( "ring",
        [
          ring_reference_model;
          Alcotest.test_case "wrap then grow" `Quick test_ring_wrap_then_grow;
          Alcotest.test_case "transfer keeps order" `Quick test_ring_transfer;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "small exact" `Quick test_histogram_small_exact;
          Alcotest.test_case "relative error" `Quick test_histogram_relative_error;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          histogram_quantization;
          histogram_reference_model;
          histogram_merge_model;
          histogram_first_use_model;
          Alcotest.test_case "buckets on first use" `Quick
            test_histogram_first_use;
        ] );
      ( "units+table",
        [
          Alcotest.test_case "units format" `Quick test_units_format;
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "ragged table rejected" `Quick test_table_ragged;
        ] );
    ]
