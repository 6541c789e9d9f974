(* gcsim-lint command-line driver.

   Usage:
     gcsim_lint [--aux DIR]... DIR...
     gcsim_lint --self-test [--fixtures DIR]

   Positional directories are linted (R1-R4 enforced); --aux directories
   are parsed only so the R3 taint pass can see through helpers the core
   calls into, and R6 checks both by directory name.  Exit status: 0
   clean, 1 diagnostics, 2 usage error. *)

let () =
  let linted = ref [] in
  let aux = ref [] in
  let self_test = ref false in
  let fixtures = ref "tools/gcsim_lint/fixtures" in
  let usage =
    "gcsim_lint [--aux DIR]... DIR...\n\
     gcsim_lint --self-test [--fixtures DIR]"
  in
  let spec =
    [
      ("--aux", Arg.String (fun d -> aux := d :: !aux),
       "DIR parse DIR for the taint pass without linting it");
      ("--self-test", Arg.Set self_test,
       " run the analyzer against the planted-violation fixture tree");
      ("--fixtures", Arg.Set_string fixtures,
       "DIR fixture tree for --self-test (default tools/gcsim_lint/fixtures)");
    ]
  in
  Arg.parse spec (fun d -> linted := d :: !linted) usage;
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
    if !linted = [] then begin
      prerr_endline usage;
      exit 2
    end;
    match
      Lint_core.run_dirs ~linted_dirs:(List.rev !linted)
        ~aux_dirs:(List.rev !aux)
    with
    | exception Failure msg ->
        prerr_endline msg;
        exit 2
    | diags, nfiles ->
        List.iter (fun d -> print_endline (Lint_core.diag_to_string d)) diags;
        if diags = [] then
          Printf.printf "gcsim-lint OK (%d files, %d linted dirs, %d aux dirs)\n"
            nfiles (List.length !linted) (List.length !aux);
        exit (if diags = [] then 0 else 1)
  end
