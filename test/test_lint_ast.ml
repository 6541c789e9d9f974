(* The AST lint is itself part of the determinism story: it is what keeps
   toplevel mutable cells, ambient randomness and smuggled host effects
   out of the simulator core now that exploration fans out over domains.
   These tests drive [Lint_core] in-process (no child dune invocation —
   nested [dune exec] under [dune runtest] deadlocks on the build lock):

   - each rule R1, R2 and R4-R6 fires on a minimal synthetic source (R3
     is retired);
   - the tricky negatives (aliased modules, shadowed [Random], DLS-wrapped
     cells, allow attributes) stay silent;
   - the planted-violation fixture tree under tools/gcsim_lint passes the
     analyzer's own self-test;
   - and the real lib/{sim,core,heap,collectors,obs,util,runtime,
     experiments,workload} trees lint clean — the fence that keeps
     future changes honest. *)

let src ?(file = "synth/sim/probe.ml") ?(modpath = [ "Sim"; "Probe" ])
    ?(r5 = false) ?(r6 = false) text =
  Lint_core.{ src_file = file; src_text = text; src_modpath = modpath;
              src_r5 = r5; src_r6 = r6 }

let rules diags =
  List.map (fun d -> Lint_core.rule_to_string d.Lint_core.rule) diags
  |> List.sort_uniq compare

let check_rules name expected text =
  Alcotest.(check (list string)) name expected (rules (Lint_core.run [ src text ]))

(* ------------------------------------------------------------------ *)
(* R1: forbidden host-effect primitives, through every disguise. *)

let test_r1_direct () =
  check_rules "direct Random.int" [ "R1" ] "let f () = Random.int 3\n"

let test_r1_alias () =
  (* The acceptance-criteria probe: an aliased module must not hide the
     primitive from the lint. *)
  check_rules "module alias" [ "R1" ]
    "module R = Random\nlet x = R.int 3\n"

let test_r1_open () =
  check_rules "open Unix" [ "R1" ]
    "open Unix\nlet f () = gettimeofday ()\n"

let test_r1_forbidden_value () =
  check_rules "Sys.getenv" [ "R1" ] "let f () = Sys.getenv \"HOME\"\n";
  check_rules "Hashtbl.hash" [ "R1" ] "let f x = Hashtbl.hash x\n";
  check_rules "print_endline" [ "R1" ] "let f () = print_endline \"hi\"\n"

let test_r1_stdlib_prefix () =
  check_rules "Stdlib.Random" [ "R1" ] "let f () = Stdlib.Random.bits ()\n"

(* Negatives: a locally-defined [Random] shadows the forbidden one, and
   sprintf is pure. *)
let test_r1_shadowed () =
  check_rules "shadowed Random" []
    "module Random = struct let int _ = 0 end\nlet x = Random.int 3\n";
  check_rules "Printf.sprintf is pure" []
    "let f n = Printf.sprintf \"%d\" n\n"

let test_r1_allow () =
  check_rules "allow suppresses" []
    "let f () = (print_endline \"hi\") [@gcsim.allow \"test exemption\"]\n"

let test_stale_allow () =
  check_rules "stale allow reported" [ "allow" ]
    "let f x = (x + 1) [@gcsim.allow \"nothing here\"]\n"

(* ------------------------------------------------------------------ *)
(* R2: toplevel mutable cells. *)

let test_r2_ref () =
  check_rules "toplevel ref" [ "R2" ] "let cell = ref 0\n"

let test_r2_creators () =
  check_rules "toplevel Hashtbl" [ "R2" ] "let h = Hashtbl.create 16\n";
  check_rules "toplevel Atomic" [ "R2" ] "let a = Atomic.make 0\n";
  check_rules "toplevel Buffer" [ "R2" ] "let b = Buffer.create 64\n"

let test_r2_let_unit () =
  (* Cells born inside toplevel [let () = ...] initializers still
     evaluate at module init. *)
  check_rules "cell in let ()" [ "R2" ]
    "let tbl = [||]\nlet () = ignore tbl; ignore (ref 1)\n"

let test_r2_lazy () =
  (* [lazy] delays evaluation but the cell still outlives any run once
     forced; the lint treats lazy blocks as toplevel. *)
  check_rules "cell under lazy" [ "R2" ] "let l = lazy (ref 0)\n"

let test_r2_negatives () =
  check_rules "DLS-wrapped cell" []
    "let k = Domain.DLS.new_key (fun () -> ref 0)\n";
  check_rules "cell inside function" [] "let f () = ref 0\n";
  check_rules "immutable toplevel" [] "let x = 42\nlet l = [ 1; 2 ]\n"

(* ------------------------------------------------------------------ *)
(* Laundering: a helper tree is linted like the core, so a host effect
   hidden in a helper is an R1 error where it touches the primitive, and
   the helper's callers need no diagnostic of their own. *)

let test_laundering_chain () =
  let util =
    src ~file:"synth/util/leak.ml" ~modpath:[ "Util"; "Leak" ]
      "let entropy () = Random.bits ()\n"
  in
  let caller =
    src ~file:"synth/sim/uses.ml" ~modpath:[ "Sim"; "Uses" ]
      "let jitter () = Util.Leak.entropy () land 7\n"
  in
  let where d = (d.Lint_core.file, Lint_core.rule_to_string d.Lint_core.rule) in
  Alcotest.(check (list (pair string string)))
    "one R1, in the helper" [ ("synth/util/leak.ml", "R1") ]
    (List.map where (Lint_core.run [ util; caller ]))

let test_laundering_clean_helper () =
  let util =
    src ~file:"synth/util/pure.ml" ~modpath:[ "Util"; "Pure" ]
      "let double x = x * 2\n"
  in
  let caller =
    src ~file:"synth/sim/uses.ml" ~modpath:[ "Sim"; "Uses" ]
      "let f x = Util.Pure.double x\n"
  in
  Alcotest.(check (list string)) "pure helper stays clean" []
    (rules (Lint_core.run [ util; caller ]))

(* ------------------------------------------------------------------ *)
(* R4: DLS handle caching discipline. *)

let test_r4_toplevel_handle () =
  check_rules "toplevel Access.hooks ()" [ "R4" ]
    "let h = Access.hooks ()\n";
  check_rules "toplevel Gobj.uid_source ()" [ "R4" ]
    "let u = Gobj.uid_source ()\n"

let test_r4_negatives () =
  check_rules "handle resolved inside function" []
    "let make () = Access.hooks ()\n";
  check_rules "handle bound in record build" []
    "type t = { h : int }\nlet create () = { h = 0 }\n"

(* ------------------------------------------------------------------ *)
(* R5: Gobj.t option banned from the sentinel-only trees. *)

let check_r5 name expected text =
  Alcotest.(check (list string))
    name expected
    (rules
       (Lint_core.run
          [ src ~file:"synth/heap/probe.ml" ~modpath:[ "Heap"; "Probe" ] ~r5:true text ]))

let test_r5_option_slot () =
  check_r5 "record field" [ "R5" ]
    "type cell = { mutable slot : Gobj.t option }\n";
  check_r5 "annotation" [ "R5" ]
    "let f (x : Gobj.t option) = x\n";
  check_r5 "Option.t spelling" [ "R5" ] "let g : Gobj.t Option.t = None\n";
  check_r5 "aliased Option" [ "R5" ]
    "module O = Option\nlet h : Gobj.t O.t = None\n"

let test_r5_bare_t_inside_gobj () =
  (* Inside gobj.ml itself the type is spelled bare [t]. *)
  Alcotest.(check (list string))
    "bare t option inside Gobj" [ "R5" ]
    (rules
       (Lint_core.run
          [
            src ~file:"synth/heap/gobj.ml" ~modpath:[ "Heap"; "Gobj" ]
              ~r5:true "type t = { id : int }\nlet peek : t option = None\n";
          ]))

let test_r5_negatives () =
  (* Options over other types stay legal, and the same text outside the
     sentinel-only trees is not R5's business. *)
  check_r5 "option of int" [] "let f (x : int option) = x\n";
  check_r5 "bare slot" [] "type cell = { mutable slot : Gobj.t }\n";
  Alcotest.(check (list string))
    "Gobj.t option outside r5 dirs" []
    (rules
       (Lint_core.run
          [
            src ~file:"synth/analysis/verifier.ml"
              ~modpath:[ "Analysis"; "Verifier" ]
              "let chase (o : Gobj.t option) = o\n";
          ]));
  check_r5 "allow suppresses R5" []
    "let f (x : (Gobj.t option[@gcsim.allow \"test exemption\"])) = x\n"

(* ------------------------------------------------------------------ *)
(* R6: Stdlib's polymorphic min/max/compare banned from the hot paths. *)

let check_r6 ?(file = "synth/runtime/probe.ml")
    ?(modpath = [ "Runtime"; "Probe" ]) name expected text =
  Alcotest.(check (list string))
    name expected
    (rules (Lint_core.run [ src ~file ~modpath ~r6:true text ]))

let test_r6_poly_compare () =
  check_r6 "bare max" [ "R6" ] "let f a b = max a b
";
  check_r6 "Stdlib.min" [ "R6" ] "let f a b = Stdlib.min a b
";
  check_r6 "compare as a value" [ "R6" ] "let f xs = List.sort compare xs
";
  check_r6 ~file:"synth/workload/probe.ml" ~modpath:[ "Workload"; "Probe" ]
    "workload file" [ "R6" ] "let f n = max n 0
"

let test_r6_negatives () =
  check_r6 "Int and Float versions" []
    "let f a b = Int.max a b
let g x = Float.min x 1.
     let h xs = List.sort Int.compare xs
";
  check_r6 "labelled parameter" [] "let f v ~max = v <= max
";
  check_r6 "local binding" []
    "let f xs = let min = List.hd xs in List.map (fun x -> x - min) xs
";
  check_r6 "pattern variable" []
    "let f = function (max, _) :: _ -> max | [] -> 0
";
  check_r6 "toplevel shadow" [] "let max a b = a + b
let f x = max x 1
";
  check_r6 "local open of Int" [] "let f a b = Int.(max a b)
";
  (* The binding's own right-hand side still sees Stdlib's [max]. *)
  check_r6 "non-recursive let" [ "R6" ] "let f a = let max = max a 0 in max
";
  check_r6 "allow suppresses R6" []
    "let f a b = (max [@gcsim.allow \"test exemption\"]) a b
";
  Alcotest.(check (list string))
    "outside r6 dirs" []
    (rules
       (Lint_core.run
          [
            src ~file:"synth/analysis/race.ml" ~modpath:[ "Analysis"; "Race" ]
              "let f a b = max a b
";
          ]))

(* ------------------------------------------------------------------ *)
(* The fixture tree's own self-test (same entry CI uses). *)

(* Under [dune runtest] the cwd is [_build/default/test]; under a direct
   [dune exec] it is the repo root.  Probe rather than assume. *)
let root = if Sys.file_exists "tools/gcsim_lint" then "." else ".."

let fixtures_dir =
  Filename.concat
    (Filename.concat (Filename.concat root "tools") "gcsim_lint")
    "fixtures"

let test_fixture_self_test () =
  match Lint_core.self_test ~fixtures_dir with
  | Ok n ->
      Alcotest.(check bool)
        "fixture tree is non-trivial (>= 20 files)" true (n >= 20)
  | Error reasons ->
      Alcotest.fail (String.concat "\n" reasons)

(* ------------------------------------------------------------------ *)
(* Fence: every simulator tree lints clean. *)

let test_real_tree_clean () =
  let lib d = Filename.concat root (Filename.concat "lib" d) in
  let diags, nfiles =
    Lint_core.run_dirs
      (List.map lib
         [ "sim"; "core"; "heap"; "collectors"; "obs"; "util"; "runtime";
           "experiments"; "workload" ])
  in
  Alcotest.(check bool) "saw the whole tree (>= 45 files)" true (nfiles >= 45);
  match diags with
  | [] -> ()
  | ds ->
      Alcotest.fail
        (Printf.sprintf "real tree has %d lint diagnostics:\n%s"
           (List.length ds)
           (String.concat "\n" (List.map Lint_core.diag_to_string ds)))

let () =
  Alcotest.run "lint-ast"
    [
      ( "r1-forbidden-primitives",
        [
          Alcotest.test_case "direct call" `Quick test_r1_direct;
          Alcotest.test_case "module alias" `Quick test_r1_alias;
          Alcotest.test_case "open" `Quick test_r1_open;
          Alcotest.test_case "forbidden values" `Quick test_r1_forbidden_value;
          Alcotest.test_case "Stdlib prefix" `Quick test_r1_stdlib_prefix;
          Alcotest.test_case "shadowing is respected" `Quick test_r1_shadowed;
          Alcotest.test_case "allow suppresses" `Quick test_r1_allow;
          Alcotest.test_case "stale allow reported" `Quick test_stale_allow;
        ] );
      ( "r2-toplevel-cells",
        [
          Alcotest.test_case "ref" `Quick test_r2_ref;
          Alcotest.test_case "other creators" `Quick test_r2_creators;
          Alcotest.test_case "let () initializer" `Quick test_r2_let_unit;
          Alcotest.test_case "lazy" `Quick test_r2_lazy;
          Alcotest.test_case "negatives" `Quick test_r2_negatives;
        ] );
      ( "laundering",
        [
          Alcotest.test_case "cross-file chain" `Quick test_laundering_chain;
          Alcotest.test_case "pure helper clean" `Quick
            test_laundering_clean_helper;
        ] );
      ( "r5-option-free-graph",
        [
          Alcotest.test_case "boxed slots flagged" `Quick test_r5_option_slot;
          Alcotest.test_case "bare t inside Gobj" `Quick
            test_r5_bare_t_inside_gobj;
          Alcotest.test_case "negatives" `Quick test_r5_negatives;
        ] );
      ( "r6-monomorphic-compare",
        [
          Alcotest.test_case "polymorphic uses flagged" `Quick
            test_r6_poly_compare;
          Alcotest.test_case "negatives" `Quick test_r6_negatives;
        ] );
      ( "r4-dls-handles",
        [
          Alcotest.test_case "toplevel handle" `Quick test_r4_toplevel_handle;
          Alcotest.test_case "negatives" `Quick test_r4_negatives;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "fixture self-test" `Quick test_fixture_self_test;
        ] );
      ( "fence",
        [ Alcotest.test_case "real tree clean" `Quick test_real_tree_clean ] );
    ]
