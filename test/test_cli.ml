(* The CLI boundary: an out-of-range or unknown input is a usage error
   (cmdliner's exit 124) that names the flag, never an exception from
   inside the simulator.  Each case runs the built gcsim.exe once. *)

(* Next to this test in the build tree: _build/default/{test,bin}. *)
let gcsim =
  Filename.quote
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin/gcsim.exe")

let run args =
  let out = Filename.temp_file "gcsim_cli" ".txt" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2>&1" gcsim args (Filename.quote out))
  in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [args] must fail with exit 124 and an error that mentions [flag]. *)
let check_rejected args flag =
  let code, text = run args in
  Alcotest.(check int) ("exit code of gcsim " ^ args) 124 code;
  if not (contains text flag) then
    Alcotest.failf "gcsim %s: error does not name %s:\n%s" args flag text

let rejects args flag =
  Alcotest.test_case args `Quick (fun () -> check_rejected args flag)

(* A replay file whose metadata holds one bad value must be rejected
   the way the flag of the same name is. *)
let rejects_replay key value =
  Alcotest.test_case (Printf.sprintf "replay %s=%s" key value) `Quick (fun () ->
      let path = Filename.temp_file "gcsim_cli" ".sched" in
      Analysis.Schedule.save path
        { Analysis.Schedule.meta = [ (key, value) ]; choices = [] };
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () -> check_rejected ("check --replay " ^ Filename.quote path) ("--" ^ key)))

let () =
  Alcotest.run "cli"
    [
      ( "run",
        [
          rejects "run --cores=0" "'--cores'";
          rejects "run --region-kib=0" "'--region-kib'";
          rejects "run -c jade,nope" "'-c'";
          rejects "run -c ," "'-c'";
          rejects "run --qps=0" "'--qps'";
          rejects "run --qps=-5" "'--qps'";
          rejects "run -m 0" "'-m'";
          rejects "run --heap-mult=-1" "'--heap-mult'";
          rejects "run -w nope" "'-w'";
          rejects "run --jobs=-1" "'--jobs'";
          rejects "run --verify=bogus" "'--verify'";
        ] );
      ( "trace",
        [
          rejects "trace --cores=0" "'--cores'";
          rejects "trace -c jade,nope" "'-c'";
          rejects "trace -m 0" "'-m'";
          rejects "trace --requests=0" "'--requests'";
        ] );
      ( "check",
        [
          rejects "check --cores=0" "'--cores'";
          rejects "check --region-kib=0" "'--region-kib'";
          rejects "check -c jade,g1" "'-c'";
          rejects "check -m 0" "'-m'";
          rejects "check --strategy=x" "'--strategy'";
          rejects "check --bug=skip-remset -c g1" "--bug";
          rejects "check --replay=no-such-file" "'--replay'";
        ] );
      ( "replay",
        List.map
          (fun (key, value) -> rejects_replay key value)
          [
            ("cores", "0");
            ("region-kib", "0");
            ("heap-mult", "0");
            ("collector", "nope");
            ("workload", "nope");
            ("bug", "nope");
          ] );
      ( "accepted",
        [
          Alcotest.test_case "list" `Quick (fun () ->
              Alcotest.(check int) "exit code of gcsim list" 0 (fst (run "list")));
        ] );
    ]
