(* The CLI boundary: an out-of-range or unknown input is a usage error
   (cmdliner's exit 124) that names the flag, never an exception from
   inside the simulator, and a broken invariant is a report with exit
   1.  Each case runs the built gcsim.exe once. *)

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

(* [args] must fail with exit 124 and an error that mentions [flag] and
   every string in [also]. *)
let check_rejected ?(also = []) args flag =
  let code, text = run args in
  Alcotest.(check int) ("exit code of gcsim " ^ args) 124 code;
  List.iter
    (fun s ->
      if not (contains text s) then
        Alcotest.failf "gcsim %s: error does not name %s:\n%s" args s text)
    (flag :: also)

let rejects ?also args flag =
  Alcotest.test_case args `Quick (fun () -> check_rejected ?also args flag)

(* A heap multiple that leaves less than the workload's live set is a
   usage error naming the flag and giving both sizes. *)
let rejects_small_heap args ~heap ~live =
  Alcotest.test_case args `Quick (fun () ->
      check_rejected ~also:[ heap; live ] args "'--heap-mult'")

(* A replay file holding [contents] must be rejected naming the file
   and [flag]. *)
let rejects_replay_file name contents flag =
  Alcotest.test_case ("replay " ^ name) `Quick (fun () ->
      let path = Filename.temp_file "gcsim_cli" ".sched" in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          check_rejected ~also:[ path ]
            ("check --replay " ^ Filename.quote path)
            flag))

(* A replay file whose metadata holds one bad value must be rejected
   the way the flag of the same name is. *)
let rejects_replay key value =
  rejects_replay_file (key ^ "=" ^ value)
    (Analysis.Schedule.to_string
       { Analysis.Schedule.meta = [ (key, value) ]; choices = [] })
    ("--" ^ key)

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
          rejects "run -d 0" "'-d'";
          rejects "run --duration=-1" "'--duration'";
          rejects "run --duration=nan" "'--duration'";
          rejects "run --duration=inf" "'--duration'";
          rejects "run --warmup=-0.1" "'--warmup'";
          rejects "run --warmup=inf" "'--warmup'";
          rejects "run --warmup=x" "'--warmup'";
          rejects_small_heap "run -m 0.5" ~heap:"22.2MiB" ~live:"32.0MiB";
          (* Heap layouts the run cannot build. *)
          rejects ~also:[ "CRDT encoding" ] "run -m 2000 -d 0.01 --warmup 0"
            "'--heap-mult'";
          rejects ~also:[ "CRDT encoding" ] "run -m 1e308" "'--heap-mult'";
          rejects ~also:[ "largest object" ]
            "run --region-kib 3 -d 0.01 --warmup 0" "'--region-kib'";
          rejects ~also:[ "object header" ]
            "run --region-kib 5000000 -d 0.01 --warmup 0" "'--region-kib'";
        ] );
      ( "trace",
        [
          rejects "trace --cores=0" "'--cores'";
          rejects "trace -c jade,nope" "'-c'";
          rejects "trace -m 0" "'-m'";
          rejects "trace --requests=0" "'--requests'";
          rejects_small_heap "trace -w h2-tpcc -m 0.5" ~heap:"22.2MiB"
            ~live:"32.0MiB";
          rejects ~also:[ "CRDT encoding" ] "trace -c jade --requests 1 -m 1e308"
            "'--heap-mult'";
          (* Output paths are checked before the simulation. *)
          rejects ~also:[ "/nonexistent/dir/x.json" ]
            "trace -c jade --requests 1 -o /nonexistent/dir/x.json" "'--out'";
          rejects ~also:[ "/nonexistent/g" ]
            "trace -c jade --requests 1 --golden /nonexistent/g" "'--golden'";
          rejects ~also:[ "is a directory" ] "trace -c jade --requests 1 -o ."
            "'--out'";
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
          rejects "check --schedules=0" "'--schedules'";
          rejects "check --schedules=1.5" "'--schedules'";
          rejects "check --depth=-1" "'--depth'";
          rejects "check --depth=0" "'--depth'";
          rejects "check --depth=x" "'--depth'";
          rejects_small_heap "check -w h2 -m 0.5" ~heap:"11.1MiB"
            ~live:"16.0MiB";
          rejects ~also:[ "CRDT encoding" ]
            "check -m 2000 --requests 1 --schedules 1" "'--heap-mult'";
          rejects ~also:[ "largest object" ]
            "check --region-kib 3 --requests 1 --schedules 1" "'--region-kib'";
          rejects ~also:[ "/nonexistent/x.sched" ]
            "check --bug skip-remset --requests 1 --schedules 1 --replay-out \
             /nonexistent/x.sched"
            "'--replay-out'";
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
            ("strategy", "nope");
            ("schedules", "0");
            ("depth", "-1");
            ("depth", "0");
            ("heap-mult", "2000");
            ("region-kib", "3");
          ]
        @ [
            (* A file that does not parse. *)
            rejects_replay_file "empty file" "" "--replay";
            rejects_replay_file "bad choice" "gcsim-schedule v1\nchoice 1\n"
              "--replay";
          ] );
      ( "accepted",
        [
          Alcotest.test_case "list" `Quick (fun () ->
              Alcotest.(check int) "exit code of gcsim list" 0 (fst (run "list")));
          Alcotest.test_case "trace to a new file" `Quick (fun () ->
              let path = Filename.temp_file "gcsim_cli" ".json" in
              Sys.remove path;
              let code, _ =
                run ("trace -c g1 --requests 5 -o " ^ Filename.quote path)
              in
              Alcotest.(check int) "exit code of gcsim trace -o" 0 code;
              Alcotest.(check bool) "trace written" true (Sys.file_exists path);
              Sys.remove path);
        ] );
      ( "verify",
        [
          (* A cell whose verifier trips: the run prints the report and
             exits 1, not cmdliner's crash code.  Pinned to the jade
             h2-tpcc 1.3x coverage failure; when ROADMAP item 12 mends
             it, pin another failing cell. *)
          Alcotest.test_case "run --verify=full reports and exits 1" `Quick
            (fun () ->
              let args =
                "run -c jade -w h2-tpcc -m 1.3 --verify=full -d 0.25 \
                 --warmup 0.1"
              in
              let code, text = run args in
              Alcotest.(check int) ("exit code of gcsim " ^ args) 1 code;
              if not (contains text "remset-coverage") then
                Alcotest.failf "gcsim %s: no remset-coverage report:\n%s" args
                  text);
        ] );
    ]
