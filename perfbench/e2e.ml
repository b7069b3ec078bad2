(** End-to-end runs: one per workload, untraced.  Each returns the
    result-line fields and prints its human-readable report. *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Samples.metric list;
  problems : string list;
}

let ms_metrics name s =
  if Samples.count s = 0 then []
  else
    [
      Samples.metric (name ^ "_p50_ms") "ms" (Samples.pct s 50.0);
      Samples.metric (name ^ "_p99_ms") "ms" (Samples.pct s 99.0);
    ]

let report_class name s errs =
  if Samples.count s > 0 then
    Printf.printf "  %-8s n=%-7d p50=%8.3f ms  p99=%8.3f ms  err=%d\n" name (Samples.count s)
      (Samples.pct s 50.0) (Samples.pct s 99.0) errs

let print_metrics ms =
  List.iter
    (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.Samples.name m.Samples.value m.Samples.unit_)
    ms

(** One measured round: a fresh set-up, then a window of load. *)
type round = {
  setup_times : float list;
  all : Samples.t;  (** ms, every op started in the window *)
  completed : int;  (** ops completed inside the window *)
  window : float;
  rss : float;
  attempted : int;
  failed : int;
  problems : string list;
}

let pooled rounds =
  let s = Samples.create () in
  List.iter (fun r -> Samples.append s r.all) rounds;
  s

(** The metrics every workload reports in its result line: latency
    percentiles and throughput over the windows of every round pooled,
    the median set-up and the largest peak RSS. *)
let headline rounds =
  let all = pooled rounds in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rounds in
  [
    Samples.metric "setup_s" "s"
      (Samples.median_of (List.concat_map (fun r -> r.setup_times) rounds));
    Samples.metric "throughput_ops_s" "ops/s"
      (sum (fun r -> float_of_int r.completed) /. sum (fun r -> r.window));
    Samples.metric "op_p50_ms" "ms" (Samples.pct all 50.0);
    Samples.metric "peak_rss_mb" "MB"
      (List.fold_left (fun acc r -> Float.max acc r.rss) 0.0 rounds);
  ]

let outcome rounds =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
  let problems = List.concat_map (fun r -> r.problems) rounds in
  {
    correct = problems = [];
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    metrics = headline rounds;
    problems;
  }

let print_round k r =
  Printf.printf "  round %d: setup %.3f s, %.1f ops/s, op p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n"
    k (Samples.median_of r.setup_times)
    (float_of_int r.completed /. r.window)
    (Samples.pct r.all 50.0) (Samples.pct r.all 90.0) (Samples.pct r.all 99.0)

let clients = 2

(** A run is [rounds] fresh set-ups, each followed by a third of the
    run's window. *)
let rounds = 3

let window seconds = float_of_int seconds /. float_of_int rounds
let warmup seconds = Float.min 1.0 (window seconds /. 5.0)

(* ------------------------------------------------------------------ *)
(* Server workloads                                                   *)
(* ------------------------------------------------------------------ *)

let social_round spec g s ~seconds ~exe ~dir ~nodes ~rels =
  Gc.compact ();
  let setup, srv, conns = Load.setup ~exe ~dir ~nodes ~rels ~clients in
  (* the bulk load's garbage must not be collected by this process
     while it shares the cores with the server under measurement *)
  Gc.compact ();
  let m, window = Load.drive s conns ~seconds:(window seconds) ~warmup:(warmup seconds) in
  let rss = Server_proc.peak_rss_mb srv.Server_proc.pid in
  List.iter Proto.close conns;
  let chk = Proto.connect srv.Server_proc.port in
  let inv = Load.check_invariants (Proto.request chk) g m.Load.tally in
  Proto.close chk;
  Server_proc.kill srv;
  (* social-write: a process crash must lose no acknowledged write *)
  let restart =
    if spec.Social.name <> "social-write" then []
    else begin
      let t0 = Fsutil.now () in
      let srv = Server_proc.start ~exe ~dir in
      let chk = Proto.connect srv.Server_proc.port in
      let restart_s = Fsutil.now () -. t0 in
      let inv = Load.check_invariants (Proto.request chk) g m.Load.tally in
      Proto.close chk;
      Server_proc.kill srv;
      Printf.printf "  restart after SIGKILL: %.3f s, %d journal records replayed\n" restart_s
        srv.Server_proc.recovered;
      List.map (fun p -> "after restart: " ^ p) inv
    end
  in
  let checks = List.length (Social.invariants g m.Load.tally) in
  ( m,
    {
      setup_times = [ setup ];
      all = m.Load.all;
      completed = m.Load.in_window;
      window;
      rss;
      attempted =
        (m.Load.attempted + checks + if spec.Social.name = "social-write" then checks else 0);
      failed = m.Load.failed + List.length inv + List.length restart;
      problems = List.rev m.Load.problems @ inv @ restart;
    } )

let social spec ~seed ~seconds ~exe ~run_dir =
  let g = Social.make_graph spec ~seed in
  let nodes, rels = Social.csv g in
  let s = Social.stream spec ~seed g in
  let dir = Filename.concat run_dir "db" in
  Printf.printf "%s: %d persons, %d KNOWS, %d clients, %d rounds of %.1f s\n" spec.Social.name
    g.Social.n (Social.rel_count g) clients rounds (window seconds);
  let results =
    List.init rounds (fun k ->
        let m, r = social_round spec g s ~seconds ~exe ~dir ~nodes ~rels in
        print_round (k + 1) r;
        (m, r))
  in
  (* per-class figures pooled over the rounds, for the report *)
  let m = Load.new_client () in
  List.iter (fun (c, _) -> Load.absorb m c) results;
  List.iter
    (fun c ->
      let i = Load.cls_index c in
      report_class (Social.cls_name c) m.Load.lat.(i) m.Load.errs.(i))
    Social.all_cls;
  if m.Load.tx > 0 then
    Printf.printf "  tx: %d, committed %d, retries/tx %.4f, moved-head share %.4f\n" m.Load.tx
      m.Load.tx_committed
      (float_of_int m.Load.tx_retries /. float_of_int m.Load.tx)
      (float_of_int m.Load.tx_moved /. float_of_int (max 1 m.Load.tx_committed));
  let o = outcome (List.map snd results) in
  print_metrics
    (List.concat_map
       (fun c -> ms_metrics (Social.cls_name c) m.Load.lat.(Load.cls_index c))
       Social.all_cls
    @ [
        Samples.metric "op_p90_ms" "ms" (Samples.pct (pooled (List.map snd results)) 90.0);
        Samples.metric "op_p99_ms" "ms" (Samples.pct (pooled (List.map snd results)) 99.0);
        Samples.metric "error_rate" "ratio"
          (float_of_int o.failed /. float_of_int (max 1 o.attempted));
      ]);
  o

(* ------------------------------------------------------------------ *)
(* paper-import                                                       *)
(* ------------------------------------------------------------------ *)

let fixture_reps = 7
let reference_samples = 2

let paper_round ~seed ~seconds =
  (* only the last fixture stays alive: the others would count in the
     process's peak RSS *)
  let last = ref None in
  let setup_times =
    List.init fixture_reps (fun _ ->
        last := None;
        Gc.compact ();
        let t0 = Fsutil.now () in
        last := Some (Paper.fixture ());
        Fsutil.now () -. t0)
  in
  let fx = Option.get !last in
  let lat = Array.init 3 (fun _ -> Samples.create ()) in
  let all = Samples.create () in
  let attempted = ref 0 and in_window = ref 0 in
  let problems = ref [] and failed = ref 0 in
  let samples = ref [] in
  let fail m =
    incr failed;
    if List.length !problems < 5 then problems := m :: !problems
  in
  let start = Fsutil.now () in
  let w0 = start +. warmup seconds in
  let w1 = w0 +. window seconds in
  let rec loop index =
    let t0 = Fsutil.now () in
    if t0 < w1 then begin
      let kind = Paper.kind_of_index index in
      let rows = Paper.batch ~seed ~index in
      incr attempted;
      let r = Paper.execute fx kind rows in
      let t1 = Fsutil.now () in
      (match r with
      | Error e -> fail (Paper.kind_name kind ^ ": " ^ Cypher_core.Errors.to_string e)
      | Ok r -> (
          match Paper.check_counters kind rows r.Cypher_core.Api.r_stats with
          | Some m -> fail m
          | None ->
              if (kind = Paper.Merge_all || kind = Paper.Merge_same)
                 && List.length !samples < reference_samples
              then samples := (kind, rows, r.Cypher_core.Api.r_graph) :: !samples));
      if t0 >= w0 then begin
        let ms = (t1 -. t0) *. 1000.0 in
        Samples.add lat.(Paper.cls_index (Paper.cls_of kind)) ms;
        Samples.add all ms
      end;
      if t1 >= w0 && t1 < w1 then incr in_window;
      loop (index + 1)
    end
  in
  loop 0;
  ( lat,
    {
      setup_times;
      all;
      completed = !in_window;
      window = window seconds;
      rss = Float.nan;
      attempted = !attempted;
      failed = !failed;
      problems = List.rev !problems;
    },
    List.map (fun (kind, rows, graph) -> (kind, fx.Paper.base, rows, graph)) !samples )

let paper ~seed ~seconds =
  Printf.printf "paper-import: marketplace base %d/%d/%d/%d, %d-row batches, %d rounds of %.1f s\n"
    Paper.vendors Paper.products Paper.users Paper.orders_per_user Paper.batch_rows rounds
    (window seconds);
  let results =
    List.init rounds (fun k ->
        let lat, r, sampled = paper_round ~seed ~seconds in
        print_round (k + 1) r;
        (lat, r, sampled))
  in
  (* read before the reference checks, which are the benchmark's own work *)
  let rss = Server_proc.peak_rss_mb 0 in
  let sampled = List.concat_map (fun (_, _, s) -> s) results in
  let mismatches =
    List.filter_map
      (fun (kind, base, rows, graph) -> Paper.reference_check kind base rows graph)
      sampled
  in
  let lat = Array.init 3 (fun _ -> Samples.create ()) in
  List.iter (fun (l, _, _) -> Array.iteri (fun i s -> Samples.append lat.(i) s) l) results;
  List.iter (fun c -> report_class (Paper.cls_name c) lat.(Paper.cls_index c) 0) Paper.all_cls;
  let measured = List.map (fun (_, r, _) -> { r with rss }) results in
  let o = outcome measured in
  let o =
    {
      o with
      correct = o.correct && mismatches = [];
      attempted = o.attempted + List.length sampled;
      failed = o.failed + List.length mismatches;
      problems = o.problems @ mismatches;
    }
  in
  print_metrics
    (List.concat_map (fun c -> ms_metrics (Paper.cls_name c) lat.(Paper.cls_index c)) Paper.all_cls
    @ [
        Samples.metric "op_p90_ms" "ms" (Samples.pct (pooled measured) 90.0);
        Samples.metric "op_p99_ms" "ms" (Samples.pct (pooled measured) 99.0);
        Samples.metric "error_rate" "ratio"
          (float_of_int o.failed /. float_of_int (max 1 o.attempted));
      ]);
  o
