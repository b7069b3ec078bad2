(** The benchmark program.  See NOTES.md for the workloads and metrics.

    {v
    pb.exe --workload <social-read|social-write|paper-import> --seed N
           --seconds S --trace <0|1> --server-exe PATH --run-dir DIR
    v}

    The last line of standard output is the JSON result; the lines
    before it are the human-readable report.  Exit code 0 only when the
    run completed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/cypher_server.exe" in
  let run_dir = ref "perfbench/_run" in
  let self_test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME social-read | social-write | paper-import");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--server-exe", Arg.Set_string exe, "PATH the cypher_server binary");
      ("--run-dir", Arg.Set_string run_dir, "DIR scratch directory for databases");
      ("--self-test", Arg.Set self_test, " run the benchmark's own tests only");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "pb.exe [options]";
  let failures = Selftest.run () in
  if failures <> [] then begin
    List.iter (Printf.eprintf "self-test failed: %s\n") failures;
    exit 3
  end;
  if !self_test then begin
    print_endline "self-tests passed";
    exit 0
  end;
  let run_dir = Filename.concat !run_dir (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  ignore (Fsutil.fresh_dir run_dir : string);
  let social spec =
    (* the client side allocates response strings at a high rate; a
       larger minor heap keeps collections out of the timed requests *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1024 * 1024 };
    if !trace = 1 then Traced.social spec ~seed:!seed ~seconds:!seconds ~exe:!exe ~run_dir
    else E2e.social spec ~seed:!seed ~seconds:!seconds ~exe:!exe ~run_dir
  in
  let o =
    match !workload with
    | "social-read" -> social Social.social_read
    | "social-write" -> social Social.social_write
    | "paper-import" ->
        if !trace = 1 then Traced.paper ~seed:!seed ~seconds:!seconds ~run_dir
        else E2e.paper ~seed:!seed ~seconds:!seconds
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Fsutil.rm_rf run_dir;
  let unmeasured =
    List.filter_map
      (fun m ->
        if Float.is_finite m.Samples.value then None
        else Some (m.Samples.name ^ " was not measured"))
      o.E2e.metrics
  in
  let o =
    {
      o with
      E2e.correct = o.E2e.correct && unmeasured = [];
      problems = o.E2e.problems @ unmeasured;
    }
  in
  List.iter (Printf.printf "CHECK FAILED: %s\n") o.E2e.problems;
  print_endline
    (Samples.result_line ~correct:o.E2e.correct ~attempted:o.E2e.attempted ~failed:o.E2e.failed
       o.E2e.metrics);
  if not o.E2e.correct then exit 1
