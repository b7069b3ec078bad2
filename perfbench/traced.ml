(** The traced run: the same seeded operation stream replayed
    in-process, with spans around the calls into each layer's public
    functions, in the order the server makes them.

    Server workloads: per request, [Session.prepare] →
    [Api.prepared_updates] → for reads [Pool.submit]/[await] of
    [Session.run_prepared_on], for auto-commit writes [Shared.commit]
    with a closure running it (the sink is a wrapped
    [Store.append_entries]) → render via [Table.to_string] /
    [Stats.footer].  Transactions go through [Service.handle], one span
    per protocol line.  A short untraced TCP pass first gives the
    client-observed latencies the wire share is derived from; an
    untraced in-process [Service.handle] pass afterwards gives the
    tracing overhead. *)

open Cypher_core
open Cypher_table
module Graph = Cypher_graph.Graph
module Pool = Cypher_util.Pool
module Shared = Cypher_server.Shared
module Service = Cypher_server.Service
module Store = Cypher_storage.Store
module Wal = Cypher_storage.Wal

let ns_to_us ns = Int64.to_float ns /. 1000.0

(* ------------------------------------------------------------------ *)
(* Rendering and checking, as the server answers                      *)
(* ------------------------------------------------------------------ *)

let render (r : Api.result) =
  let table =
    if Table.columns r.Api.r_table = [] then "" else Table.to_string r.Api.r_table
  in
  let footer =
    if Stats.contains_updates r.Api.r_stats then Stats.footer r.Api.r_stats else ""
  in
  table ^ "\n" ^ footer

let rows_of_text text =
  match List.filter_map Proto.cells (String.split_on_char '\n' text) with
  | [] -> []
  | _ :: data -> data

(* ------------------------------------------------------------------ *)
(* Per-class, per-layer summary                                       *)
(* ------------------------------------------------------------------ *)

type summary = {
  per_class : (string * (Samples.t * (string * (Samples.t * float)) list)) list;
      (** class -> (request us, [layer -> (self us, share of request time)]) *)
  all_requests : Samples.t;
  unattributed : float;  (** share of all request time no layer covers *)
}

let summarize recorders =
  let spans = List.concat_map (fun r -> r.Trace.spans) recorders in
  let cls_of = Hashtbl.create 4096 in
  List.iter
    (fun r -> List.iter (fun (q, c) -> Hashtbl.replace cls_of q c) r.Trace.classes)
    recorders;
  let br = Trace.breakdown spans in
  let classes = Hashtbl.create 8 in
  let all = Samples.create () in
  let total = ref 0L and unattributed = ref 0L in
  Hashtbl.iter
    (fun req (dur, layers) ->
      match Hashtbl.find_opt cls_of req with
      | None | Some "warmup" -> ()
      | Some c ->
          let reqs, layer_tbl =
            match Hashtbl.find_opt classes c with
            | Some x -> x
            | None ->
                let x = (Samples.create (), Hashtbl.create 8) in
                Hashtbl.replace classes c x;
                x
          in
          Samples.add reqs (ns_to_us dur);
          Samples.add all (ns_to_us dur);
          total := Int64.add !total dur;
          List.iter
            (fun (layer, self) ->
              if layer = "unattributed" then unattributed := Int64.add !unattributed self;
              let s, sum =
                Option.value ~default:(Samples.create (), ref 0L) (Hashtbl.find_opt layer_tbl layer)
              in
              Samples.add s (ns_to_us self);
              sum := Int64.add !sum self;
              Hashtbl.replace layer_tbl layer (s, sum))
            layers)
    br;
  let per_class =
    Hashtbl.fold
      (fun c (reqs, layer_tbl) acc ->
        let req_total = Samples.sum reqs in
        let layers =
          Hashtbl.fold
            (fun l (s, sum) acc -> (l, (s, ns_to_us !sum /. req_total)) :: acc)
            layer_tbl []
          |> List.sort compare
        in
        (c, (reqs, layers)) :: acc)
      classes []
    |> List.sort compare
  in
  {
    per_class;
    all_requests = all;
    unattributed = Int64.to_float !unattributed /. Int64.to_float (max 1L !total);
  }

let print_summary s =
  Printf.printf "per-layer self time, in-process traced requests (us):\n";
  List.iter
    (fun (c, (reqs, layers)) ->
      Printf.printf "  %s: %d requests, request p50 %.1f us\n" c (Samples.count reqs)
        (Samples.pct reqs 50.0);
      List.iter
        (fun (l, (s, share)) ->
          Printf.printf "    %-18s p50 %10.1f  p99 %10.1f  share %5.1f%%  n=%d\n" l
            (Samples.pct s 50.0) (Samples.pct s 99.0) (100.0 *. share) (Samples.count s))
        layers)
    s.per_class;
  Printf.printf "  unattributed share of request time: %.2f%% (layers cover %.2f%%)\n"
    (100.0 *. s.unattributed)
    (100.0 *. (1.0 -. s.unattributed))

(** Self-time samples of [layer] pooled over every class. *)
let layer_samples s layer =
  let acc = Samples.create () in
  List.iter
    (fun (_, (_, layers)) ->
      match List.assoc_opt layer layers with Some (x, _) -> Samples.append acc x | None -> ())
    s.per_class;
  acc

(* ------------------------------------------------------------------ *)
(* Standalone layer costs over a sample of the stream                 *)
(* ------------------------------------------------------------------ *)

type layer_costs = {
  parse : Samples.t;
  plan : Samples.t;
  match_ : Samples.t;
  update : Samples.t;
  project : Samples.t;
  examined : int;
  returned : int;
}

let clause_kind text =
  let t = String.uppercase_ascii (String.trim text) in
  let starts p = Proto.starts p t in
  if starts "MATCH" || starts "OPTIONAL MATCH" then `Match
  else if
    List.exists starts [ "CREATE"; "MERGE"; "SET"; "DELETE"; "DETACH"; "REMOVE"; "FOREACH" ]
  then `Update
  else `Project

let time_us f =
  let t0 = Trace.now () in
  let x = f () in
  (x, ns_to_us (Int64.sub (Trace.now ()) t0))

(** Parse, plan and PROFILE each [(config, src, params)] against [g]. *)
let layer_costs stmts g =
  let parse = Samples.create () and plan = Samples.create () in
  let match_ = Samples.create () and update = Samples.create () and project = Samples.create () in
  let examined = ref 0 and returned = ref 0 in
  List.iter
    (fun (config, src, params) ->
      let _, us = time_us (fun () -> Api.parse src) in
      Samples.add parse us;
      (match Api.prepare ~config src with
      | Ok p ->
          let _, us = time_us (fun () -> Api.prepared_plan p g) in
          Samples.add plan us
      | Error _ -> ());
      let config = Config.with_params params config in
      match Api.run_string_full ~config g ("PROFILE " ^ src) with
      | Ok { Api.r_profile = Some entries; r_table; _ } ->
          let m = ref 0.0 and u = ref 0.0 and p = ref 0.0 in
          List.iter
            (fun e ->
              let us = Int64.to_float e.Stats.pf_ns /. 1000.0 in
              match clause_kind e.Stats.pf_clause with
              | `Match ->
                  m := !m +. us;
                  examined := !examined + e.Stats.pf_rows
              | `Update -> u := !u +. us
              | `Project -> p := !p +. us)
            entries;
          returned := !returned + Table.row_count r_table;
          Samples.add match_ !m;
          Samples.add update !u;
          Samples.add project !p
      | _ -> ())
    stmts;
  { parse; plan; match_; update; project; examined = !examined; returned = !returned }

(* ------------------------------------------------------------------ *)
(* Result-line metrics shared by every traced workload                 *)
(* ------------------------------------------------------------------ *)

let gc_metrics ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  let ops = float_of_int (max 1 ops) in
  [
    Samples.metric "gc.minor_mb_per_op" "MB/op"
      ((g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. 1e6 /. ops);
    Samples.metric "gc.major_per_kop" "count/kop"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) *. 1000.0 /. ops);
  ]

let common_metrics s ~untraced ~costs ~exec ~render ~gc =
  let p50 x = Samples.pct x 50.0 in
  let mean x = Samples.sum x /. float_of_int (Samples.count x) in
  [
    Samples.metric "request.traced_p50_us" "us" (p50 s.all_requests);
    Samples.metric "trace.overhead_us" "us" (p50 s.all_requests -. p50 untraced);
    Samples.metric "trace.unattributed_share" "ratio" s.unattributed;
    Samples.metric "engine.exec_us.p50" "us" (p50 exec);
    Samples.metric "engine.exec_us.p99" "us" (Samples.pct exec 99.0);
    (* means, not medians: most statements of a workload lack one of the
       clause kinds, and a median of mostly zeros reads 0 on every run *)
    Samples.metric "engine.match_us.mean" "us" (mean costs.match_);
    Samples.metric "engine.update_us.mean" "us" (mean costs.update);
    Samples.metric "engine.project_us.mean" "us" (mean costs.project);
    Samples.metric "engine.rows_examined_per_row" "ratio"
      (float_of_int costs.examined /. float_of_int (max 1 costs.returned));
    Samples.metric "parser.parse_us.p50" "us" (p50 costs.parse);
    Samples.metric "plan.plan_us.p50" "us" (p50 costs.plan);
    Samples.metric "table.render_us.p50" "us" (p50 render);
  ]
  @ gc

(* ------------------------------------------------------------------ *)
(* Server workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* the wrapped sink: every call's interval, by call sequence number *)
type sink_log = {
  lock : Mutex.t;
  mutable seq : int;
  calls : (int, int64 * int64) Hashtbl.t;
  mutable entries : Session.journal_entry list;  (** a sample, for [Wal.encode] *)
}

let sink_log () = { lock = Mutex.create (); seq = 0; calls = Hashtbl.create 4096; entries = [] }

let locked log f =
  Mutex.lock log.lock;
  let x = f () in
  Mutex.unlock log.lock;
  x

let wrapped_sink log store entries =
  let seq =
    locked log (fun () ->
        log.seq <- log.seq + 1;
        if List.length log.entries < 500 then log.entries <- entries @ log.entries;
        log.seq)
  in
  let t0 = Trace.now () in
  Store.append_entries store entries;
  let t1 = Trace.now () in
  locked log (fun () -> Hashtbl.replace log.calls seq (t0, t1))

type client_state = {
  rec_ : Trace.recorder;
  svc : Service.t;
  mutable ops : int;
  mutable warm : int;  (** ops started before the window *)
  mutable failed : int;
  mutable problems : string list;
  pool_wait : Samples.t;
  commit_us : Samples.t;
  acked_writes : int ref;
  tally : Social.tally;
}

let problem st m =
  st.failed <- st.failed + 1;
  if List.length st.problems < 5 then st.problems <- m :: st.problems

let check_answer st op_line chk text =
  match Social.check chk (rows_of_text text) with
  | None -> true
  | Some m ->
      problem st (op_line ^ ": " ^ m);
      false

let readers = Pool.recommended ()

(* one auto-commit statement, spanned the way Service handles it *)
let traced_statement st ~shared ~log ~req src chk =
  let r = st.rec_ in
  let session = Service.session st.svc in
  match Trace.span r ~parent:req ~req "session.prepare" (fun _ -> Session.prepare session src) with
  | Error e ->
      problem st (src ^ " -> " ^ Errors.to_string e);
      false
  | Ok p ->
      let updates = Api.prepared_updates p in
      let outcome =
        if not updates then begin
          let _, graph = Shared.current shared in
          let started = ref 0L and ended = ref 0L in
          let submitted = Trace.now () in
          let res =
            Trace.span r ~parent:req ~req "pool" (fun pool_id ->
                let res =
                  Pool.await
                    (Pool.submit ~parallelism:readers (fun () ->
                         started := Trace.now ();
                         let x = Session.run_prepared_on session graph p in
                         ended := Trace.now ();
                         x))
                in
                Trace.add r ~id:(Trace.fresh r) ~parent:pool_id ~req "engine.exec" !started !ended;
                res)
          in
          Samples.add st.pool_wait (ns_to_us (Int64.sub !started submitted));
          Result.map_error Errors.to_string res
        end
        else begin
          let payload = ref None and exec_iv = ref (0L, 0L) and seen_seq = ref 0 in
          let exec head =
            let t0 = Trace.now () in
            let res = Session.run_prepared_on session head p in
            exec_iv := (t0, Trace.now ());
            seen_seq := locked log (fun () -> log.seq);
            match res with
            | Ok x ->
                payload := Some x;
                let entries =
                  if Stats.contains_updates x.Api.r_stats then
                    [
                      {
                        Session.je_src = src;
                        je_stats = x.Api.r_stats;
                        je_config = Session.config session;
                        je_kind = `Statement;
                      };
                    ]
                  else []
                in
                Ok (x.Api.r_graph, entries)
            | Error e -> Error (Errors.to_string e)
          in
          let c0 = Trace.now () in
          let committed =
            Trace.span r ~parent:req ~req "shared.commit" (fun commit_id ->
                let v = Shared.commit shared exec in
                let c1 = Trace.now () in
                let e0, e1 = !exec_iv in
                Trace.add r ~id:(Trace.fresh r) ~parent:commit_id ~req "engine.exec" e0 e1;
                (match locked log (fun () -> Hashtbl.find_opt log.calls (!seen_seq + 1)) with
                | Some (s0, s1) when s0 >= e1 && s1 <= c1 ->
                    Trace.add r ~id:(Trace.fresh r) ~parent:commit_id ~req "wal.append" s0 s1
                | _ -> ());
                v)
          in
          Samples.add st.commit_us (ns_to_us (Int64.sub (Trace.now ()) c0));
          match (committed, !payload) with
          | Ok _, Some x ->
              incr st.acked_writes;
              Ok x
          | Ok _, None -> Error "committed without a result"
          | Error m, _ -> Error m
        end
      in
      match outcome with
      | Error m ->
          problem st (src ^ " -> " ^ m);
          false
      | Ok res ->
          let text = Trace.span r ~parent:req ~req "table.render" (fun _ -> render res) in
          check_answer st src chk text

(* Service.handle's answer lines, read the way a client reads them *)
let response lines =
  let q = ref lines in
  Proto.read_response (fun () ->
      match !q with
      | l :: t ->
          q := t;
          l
      | [] -> "ERR response without a terminator")

(* a transaction through Service.handle, one span per protocol line *)
let service_tx st ~span (op : Social.op) =
  let line l = span (fun () -> response (Service.handle st.svc l)) in
  let rec attempt k =
    ignore (line ":begin" : Proto.response);
    let rec body = function
      | [] -> true
      | (l, chk) :: rest -> (
          let resp = line l in
          match resp.Proto.answer with
          | Proto.Err m ->
              ignore (line ":rollback" : Proto.response);
              problem st (l ^ " -> ERR " ^ m);
              false
          | Proto.Ok_ _ -> (
              match Social.check chk (Proto.rows resp) with
              | None -> body rest
              | Some m ->
                  ignore (line ":rollback" : Proto.response);
                  problem st m;
                  false))
    in
    body (List.combine op.Social.lines op.Social.checks)
    &&
    match (line ":commit").Proto.answer with
    | Proto.Ok_ _ ->
        incr st.acked_writes;
        true
    | Proto.Err m ->
        if k < Load.max_tx_attempts then attempt (k + 1)
        else begin
          problem st m;
          false
        end
  in
  attempt 1

let rec run_until deadline f index =
  if Fsutil.now () < deadline then begin
    f index;
    run_until deadline f (index + 1)
  end
  else index

(** Replay each client's ops [0, count) through [Service.handle] with
    no spans, timing those from [warm] on; returns per-request us. *)
let untraced_pass stream shared ~counts =
  let lat = Samples.create () in
  let lock = Mutex.create () in
  let threads =
    List.mapi
      (fun client (warm, count) ->
        Thread.create
          (fun () ->
            let svc = Service.create ~readers ~config:Load.config shared in
            let mine = Samples.create () in
            for index = 0 to count - 1 do
              let op = Social.op stream ~client ~index in
              let lines =
                match op.Social.cls with
                | Social.Tx -> (":begin" :: op.Social.lines) @ [ ":commit" ]
                | _ -> op.Social.lines
              in
              let t0 = Trace.now () in
              List.iter (fun l -> ignore (Service.handle svc l : string list)) lines;
              if index >= warm then Samples.add mine (ns_to_us (Int64.sub (Trace.now ()) t0))
            done;
            Mutex.lock lock;
            Samples.append lat mine;
            Mutex.unlock lock)
          ())
      counts
  in
  List.iter Thread.join threads;
  lat

let social spec ~seed ~seconds ~exe ~run_dir =
  let g = Social.make_graph spec ~seed in
  let nodes, rels = Social.csv g in
  let stream = Social.stream spec ~seed g in
  let warmup = E2e.warmup seconds in
  (* set-up once, phase by phase *)
  let dir_a = Filename.concat run_dir "server" and dir_b = Filename.concat run_dir "inproc" in
  let phases = Load.build_db ~dir:dir_a ~nodes ~rels in
  ignore (Fsutil.fresh_dir dir_b : string);
  Array.iter
    (fun f -> Fsutil.copy_file (Filename.concat dir_a f) (Filename.concat dir_b f))
    (Sys.readdir dir_a);
  (* untraced TCP pass: client-observed latency per class *)
  let srv = Server_proc.start ~exe ~dir:dir_a in
  let conns = Load.connect_ready srv.Server_proc.port E2e.clients in
  let m, _ = Load.drive stream conns ~seconds:(E2e.window seconds) ~warmup in
  List.iter Proto.close conns;
  let chk = Proto.connect srv.Server_proc.port in
  let tcp_inv = Load.check_invariants (Proto.request chk) g m.Load.tally in
  Proto.close chk;
  Server_proc.kill srv;
  (* in-process traced pass *)
  Gc.compact ();
  let t0 = Fsutil.now () in
  let store, session =
    match Store.open_db ~config:Load.config dir_b with Ok x -> x | Error e -> failwith e
  in
  let open_s = Fsutil.now () -. t0 in
  let base = Session.graph session in
  let log = sink_log () in
  let shared = Shared.create ~sink:(wrapped_sink log store) base in
  let acked_writes = ref 0 in
  let states =
    List.init E2e.clients (fun i ->
        {
          rec_ = Trace.recorder (i + 1);
          svc = Service.create ~readers ~config:Load.config shared;
          ops = 0;
          warm = 0;
          failed = 0;
          problems = [];
          pool_wait = Samples.create ();
          commit_us = Samples.create ();
          acked_writes;
          tally = Social.tally ();
        })
  in
  let cache0 = List.map (fun st -> Session.cache_stats (Service.session st.svc)) states in
  let csr0 = Graph.csr_build_ns_total () in
  let gc0 = Gc.quick_stat () in
  let start = Fsutil.now () in
  let w0 = start +. warmup and w1 = start +. warmup +. E2e.window seconds in
  let threads =
    List.mapi
      (fun client st ->
        Thread.create
          (fun () ->
            let one index =
              let op = Social.op stream ~client ~index in
              let counted = Fsutil.now () >= w0 in
              let cls = if counted then Social.cls_name op.Social.cls else "warmup" in
              let ok =
                Trace.request st.rec_ cls (fun req ->
                    match op.Social.cls with
                    | Social.Tx ->
                        service_tx st
                          ~span:(fun f ->
                            Trace.span st.rec_ ~parent:req ~req "service.handle" (fun _ -> f ()))
                          op
                    | _ ->
                        traced_statement st ~shared ~log ~req (List.hd op.Social.lines)
                          (List.hd op.Social.checks))
              in
              if ok then Social.acknowledge st.tally op.Social.effect;
              if not counted then st.warm <- st.warm + 1;
              st.ops <- st.ops + 1
            in
            ignore (run_until w1 one 0 : int))
          ())
      states
  in
  List.iter Thread.join threads;
  let gc1 = Gc.quick_stat () in
  let csr_ms = Int64.to_float (Int64.sub (Graph.csr_build_ns_total ()) csr0) /. 1e6 in
  let ops = List.fold_left (fun acc st -> acc + st.ops) 0 states in
  let summary = summarize (List.map (fun st -> st.rec_) states) in
  Trace.write
    (Filename.concat (Filename.dirname run_dir) (spec.Social.name ^ ".spans.tsv"))
    (List.map (fun st -> st.rec_) states);
  let hits, misses =
    List.fold_left2
      (fun (h, m) st (c0 : Plan_cache.stats) ->
        let c1 = Session.cache_stats (Service.session st.svc) in
        ( h + c1.Plan_cache.hits - c0.Plan_cache.hits,
          m + c1.Plan_cache.misses - c0.Plan_cache.misses ))
      (0, 0) states cache0
  in
  (* the in-process pass answers to the same invariants *)
  let inproc_inv =
    let t = Social.tally () in
    List.iter (fun st -> Social.merge_tally t st.tally) states;
    let svc = Service.create ~config:Load.config shared in
    Load.check_invariants (fun q -> response (Service.handle svc q)) g t
  in
  let shared_stats = Shared.stats shared in
  let wal = Store.wal_stats store in
  let journal_bytes = Fsutil.file_size (Filename.concat dir_b "journal.wal") in
  (* untraced Service.handle pass over the same ops, for the overhead;
     its journal is a separate one, never replayed *)
  let untraced =
    let store, _ =
      let dir = Fsutil.fresh_dir (Filename.concat run_dir "untraced") in
      match Store.open_db ~config:Load.config dir with
      | Ok x -> x
      | Error e -> failwith e
    in
    let lat =
      untraced_pass stream (Shared.create ~sink:(Store.append_entries store) base)
        ~counts:(List.map (fun st -> (st.warm, st.ops)) states)
    in
    Store.close store;
    lat
  in
  (* standalone layer costs over the first statements of the stream *)
  let sample =
    List.concat_map
      (fun index ->
        let op = Social.op stream ~client:0 ~index in
        List.map (fun l -> (Load.config, l, Cypher_util.Maps.Smap.empty)) op.Social.lines)
      (List.init 200 Fun.id)
  in
  let costs = layer_costs sample base in
  let encode =
    let s = Samples.create () in
    List.iter
      (fun e ->
        let _, us = time_us (fun () -> Wal.encode (Wal.record_of_entry e)) in
        Samples.add s us)
      log.entries;
    s
  in
  (* restart: the journal this pass wrote, replayed on the snapshot *)
  Store.close store;
  let t0 = Fsutil.now () in
  let replayed =
    match Store.open_db ~config:Load.config dir_b with
    | Ok (st, _) ->
        let n = (Store.recovery st).Cypher_storage.Recovery.replayed in
        Store.close st;
        n
    | Error e -> failwith e
  in
  let reopen_s = Fsutil.now () -. t0 in
  let invariants = tcp_inv @ inproc_inv in
  let problems =
    List.concat_map (fun st -> List.rev st.problems) states @ List.rev m.Load.problems @ invariants
  in
  let failed =
    List.fold_left (fun acc st -> acc + st.failed) (m.Load.failed + List.length invariants) states
  in
  (* report *)
  Printf.printf "%s traced run: %d in-process ops on %d threads, %d TCP ops\n" spec.Social.name ops
    E2e.clients m.Load.attempted;
  print_summary summary;
  let p50 x = Samples.pct x 50.0 in
  let wire =
    List.filter_map
      (fun c ->
        let name = Social.cls_name c in
        let client = m.Load.lat.(Load.cls_index c) in
        match List.assoc_opt name summary.per_class with
        | Some (reqs, _) when Samples.count client > 0 ->
            Some (name, (p50 client *. 1000.0) -. p50 reqs)
        | _ -> None)
      Social.all_cls
  in
  List.iter
    (fun (c, us) ->
      Printf.printf "  server.wire_us %-6s %10.1f us (client p50 - traced p50)\n" c us)
    wire;
  let self name = layer_samples summary name in
  let merged f =
    let s = Samples.create () in
    List.iter (fun st -> Samples.append s (f st)) states;
    s
  in
  let exec = self "engine.exec" in
  let extra =
    [
      Samples.metric "session.prepare_us.p50" "us" (p50 (self "session.prepare"));
      Samples.metric "plan_cache.hit_ratio" "ratio"
        (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      Samples.metric "pool.wait_us.p50" "us"
        (p50 (merged (fun st -> st.pool_wait)));
      Samples.metric "shared.commit_us.p50" "us"
        (p50 (merged (fun st -> st.commit_us)));
      Samples.metric "shared.wait_us.p50" "us" (p50 (self "shared.commit"));
      Samples.metric "shared.wait_us.p99" "us" (Samples.pct (self "shared.commit") 99.0);
      Samples.metric "shared.commits_per_flush" "ratio"
        (float_of_int shared_stats.Shared.commits
        /. float_of_int (max 1 shared_stats.Shared.flushes));
      Samples.metric "tx.moved_head_ratio" "ratio"
        (float_of_int m.Load.tx_moved /. float_of_int (max 1 m.Load.tx_committed));
      Samples.metric "tx.retries_per_tx" "ratio"
        (float_of_int m.Load.tx_retries /. float_of_int (max 1 m.Load.tx));
      Samples.metric "wal.append_us.p50" "us" (p50 (self "wal.append"));
      Samples.metric "wal.encode_us.p50" "us" (p50 encode);
      Samples.metric "wal.records_per_fsync" "ratio"
        (match wal with
        | Some w -> float_of_int w.Wal.records /. float_of_int (max 1 w.Wal.fsyncs)
        | None -> Float.nan);
      Samples.metric "wal.bytes_per_write" "B"
        (float_of_int journal_bytes /. float_of_int (max 1 !acked_writes));
      Samples.metric "graph.csr_build_ms" "ms" csr_ms;
      Samples.metric "bulk.load_s" "s" phases.Load.bulk_s;
      Samples.metric "snapshot.write_s" "s" phases.Load.snapshot_s;
      Samples.metric "recovery.open_s" "s" open_s;
      Samples.metric "recovery.replay_us_per_record" "us"
        ((reopen_s -. open_s) *. 1e6 /. float_of_int (max 1 replayed));
    ]
  in
  let render = self "table.render" in
  let metrics =
    common_metrics summary ~untraced ~costs ~exec ~render ~gc:(gc_metrics ~ops gc0 gc1)
  in
  E2e.print_metrics (metrics @ extra);
  {
    E2e.correct = problems = [];
    attempted = ops + m.Load.attempted + (2 * List.length (Social.invariants g m.Load.tally));
    failed;
    metrics;
    problems;
  }

(* ------------------------------------------------------------------ *)
(* paper-import                                                       *)
(* ------------------------------------------------------------------ *)

let paper ~seed ~seconds ~run_dir =
  let fx = Paper.fixture () in
  let r = Trace.recorder 1 in
  let failed = ref 0 and problems = ref [] in
  let fail m =
    incr failed;
    if List.length !problems < 5 then problems := m :: !problems
  in
  let gc0 = Gc.quick_stat () in
  let start = Fsutil.now () in
  let w0 = start +. E2e.warmup seconds and w1 = start +. E2e.warmup seconds +. E2e.window seconds in
  (* each op runs traced, then again untraced, so drift in heap or
     host state between two separate passes cannot bias the overhead *)
  let untraced = Samples.create () in
  let one index =
    let kind = Paper.kind_of_index index in
    let rows = Paper.batch ~seed ~index in
    let counted = Fsutil.now () >= w0 in
    let cls = if counted then Paper.cls_name (Paper.cls_of kind) else "warmup" in
    Trace.request r cls (fun req ->
        match Trace.span r ~parent:req ~req "engine.exec" (fun _ -> Paper.execute fx kind rows) with
        | Error e -> fail (Errors.to_string e)
        | Ok x -> (
            ignore (Trace.span r ~parent:req ~req "table.render" (fun _ -> render x) : string);
            match Paper.check_counters kind rows x.Api.r_stats with Some m -> fail m | None -> ()));
    let t0 = Trace.now () in
    (match Paper.execute fx kind rows with Ok x -> ignore (render x : string) | Error _ -> ());
    if counted then Samples.add untraced (ns_to_us (Int64.sub (Trace.now ()) t0))
  in
  let ops = run_until w1 one 0 in
  let gc1 = Gc.quick_stat () in
  let summary = summarize [ r ] in
  Trace.write (Filename.concat (Filename.dirname run_dir) "paper-import.spans.tsv") [ r ];
  (* MERGE SAME / MERGE ALL on the same batches *)
  let same = Samples.create () and all = Samples.create () in
  for index = 0 to 29 do
    let rows = Paper.batch ~seed ~index in
    let _, a = time_us (fun () -> Paper.execute fx Paper.Merge_all rows) in
    let _, s = time_us (fun () -> Paper.execute fx Paper.Merge_same rows) in
    Samples.add all a;
    Samples.add same s
  done;
  let sample =
    List.concat_map
      (fun index ->
        List.map
          (fun kind ->
            let config, src = Paper.statement kind in
            (config, src, Paper.params (Paper.batch ~seed ~index)))
          Paper.kinds)
      [ 0; 1; 2 ]
  in
  let costs = layer_costs sample fx.Paper.base in
  Printf.printf "paper-import traced run: %d in-process ops\n" ops;
  print_summary summary;
  let self = layer_samples summary in
  let metrics =
    common_metrics summary ~untraced ~costs ~exec:(self "engine.exec") ~render:(self "table.render")
      ~gc:(gc_metrics ~ops gc0 gc1)
  in
  E2e.print_metrics
    (metrics
    @ [
        Samples.metric "merge.same_over_all" "ratio"
          (Samples.pct same 50.0 /. Samples.pct all 50.0);
      ]);
  {
    E2e.correct = !problems = [];
    attempted = ops;
    failed = !failed;
    metrics;
    problems = List.rev !problems;
  }
