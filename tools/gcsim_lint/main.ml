(* gcsim-lint command-line driver.

   Usage:
     gcsim_lint DIR...
     gcsim_lint --self-test [--fixtures DIR]

   Every positional directory is linted (R1, R2 and R4 everywhere; R5
   and R6 by directory name).  Exit status: 0 clean, 1 diagnostics, 2
   usage error. *)

let () =
  let dirs = ref [] in
  let self_test = ref false in
  let fixtures = ref "tools/gcsim_lint/fixtures" in
  let usage = "gcsim_lint DIR...\ngcsim_lint --self-test [--fixtures DIR]" in
  let spec =
    [
      ("--self-test", Arg.Set self_test,
       " run the analyzer against the planted-violation fixture tree");
      ("--fixtures", Arg.Set_string fixtures,
       "DIR fixture tree for --self-test (default tools/gcsim_lint/fixtures)");
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  if !self_test then begin
    match Lint_core.self_test ~fixtures_dir:!fixtures with
    | Ok n ->
        Printf.printf "gcsim-lint self-test OK (%d fixture files)\n" n;
        exit 0
    | Error reasons ->
        List.iter (Printf.eprintf "gcsim-lint self-test FAILED: %s\n") reasons;
        exit 1
  end
  else begin
    if !dirs = [] then begin
      prerr_endline usage;
      exit 2
    end;
    match Lint_core.run_dirs (List.rev !dirs) with
    | exception Failure msg ->
        prerr_endline msg;
        exit 2
    | diags, nfiles ->
        List.iter (fun d -> print_endline (Lint_core.diag_to_string d)) diags;
        if diags = [] then
          Printf.printf "gcsim-lint OK (%d files, %d linted dirs)\n" nfiles
            (List.length !dirs);
        exit (if diags = [] then 0 else 1)
  end
