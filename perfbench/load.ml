(** The end-to-end run of a server workload: set up a database, start
    the unchanged [cypher_server] on it, drive it closed-loop from
    client threads over TCP, then check the answers and the
    invariants (and, for social-write, again after a SIGKILL restart). *)

open Social

let cls_index = function Read -> 0 | Write -> 1 | Merge -> 2 | Tx -> 3
let max_tx_attempts = 3

(** Per-client measurements; merged after the run. *)
type client = {
  lat : Samples.t array;  (** per class, ms, ops started in the window *)
  all : Samples.t;
  errs : int array;  (** ERR answers per class *)
  mutable attempted : int;
  mutable failed : int;
  mutable in_window : int;  (** ops that completed inside the window *)
  mutable tx : int;
  mutable tx_retries : int;
  mutable tx_moved : int;
  mutable tx_committed : int;
  mutable problems : string list;
  tally : tally;
}

let new_client () =
  {
    lat = Array.init 4 (fun _ -> Samples.create ());
    all = Samples.create ();
    errs = Array.make 4 0;
    attempted = 0;
    failed = 0;
    in_window = 0;
    tx = 0;
    tx_retries = 0;
    tx_moved = 0;
    tx_committed = 0;
    problems = [];
    tally = tally ();
  }

let problem c msg = if List.length c.problems < 5 then c.problems <- msg :: c.problems

(** Run one statement: [Ok ()] or an error / wrong-answer message. *)
let statement conn line chk =
  let r = Proto.request conn line in
  match r.Proto.answer with
  | Proto.Err m -> Error (`Err m)
  | Proto.Ok_ _ -> (
      match check chk (Proto.rows r) with
      | None -> Ok r
      | Some m -> Error (`Wrong (line ^ ": " ^ m)))

let version_of r = match r.Proto.answer with Proto.Ok_ { version; _ } -> version | _ -> -1

(* one transaction attempt: begin, statements, commit *)
let tx_attempt conn op =
  let b = Proto.request conn ":begin" in
  let rec body = function
    | [] -> Ok ()
    | (line, chk) :: rest -> (
        match statement conn line chk with
        | Ok _ -> body rest
        | Error e ->
            ignore (Proto.request conn ":rollback" : Proto.response);
            Error e)
  in
  match body (List.combine op.lines op.checks) with
  | Error e -> Error e
  | Ok () -> (
      let c = Proto.request conn ":commit" in
      match c.Proto.answer with
      | Proto.Err m -> Error (`Err m)
      | Proto.Ok_ { version; _ } -> Ok (version > version_of b + 1))

(** Execute [op]; returns whether it succeeded, recording failures. *)
let execute c conn op =
  let ci = cls_index op.cls in
  match op.cls with
  | Tx ->
      c.tx <- c.tx + 1;
      let rec go attempt =
        match tx_attempt conn op with
        | Ok moved ->
            c.tx_committed <- c.tx_committed + 1;
            if moved then c.tx_moved <- c.tx_moved + 1;
            true
        | Error (`Wrong m) ->
            problem c m;
            false
        | Error (`Err m) ->
            if attempt < max_tx_attempts then begin
              c.tx_retries <- c.tx_retries + 1;
              go (attempt + 1)
            end
            else begin
              c.errs.(ci) <- c.errs.(ci) + 1;
              problem c ("transaction failed after retries: " ^ m);
              false
            end
      in
      go 1
  | _ -> (
      match statement conn (List.hd op.lines) (List.hd op.checks) with
      | Ok _ -> true
      | Error (`Err m) ->
          c.errs.(ci) <- c.errs.(ci) + 1;
          problem c (List.hd op.lines ^ " -> ERR " ^ m);
          false
      | Error (`Wrong m) ->
          problem c m;
          false)

(** Closed loop: the next request goes out as soon as the previous
    answer's terminator arrives.  Ops before [w0] warm up (checked, not
    timed); no op starts at or after [w1]. *)
let client_loop s c conn ~client ~w0 ~w1 =
  let rec loop index =
    let t0 = Fsutil.now () in
    if t0 < w1 then begin
      let op = op s ~client ~index in
      c.attempted <- c.attempted + 1;
      let ok = execute c conn op in
      let t1 = Fsutil.now () in
      if ok then acknowledge c.tally op.effect else c.failed <- c.failed + 1;
      if t0 >= w0 then begin
        let ms = (t1 -. t0) *. 1000.0 in
        Samples.add c.lat.(cls_index op.cls) ms;
        Samples.add c.all ms
      end;
      if t1 >= w0 && t1 < w1 then c.in_window <- c.in_window + 1;
      loop (index + 1)
    end
  in
  loop 0

(** [absorb m c] adds client [c]'s measurements to [m]. *)
let absorb m c =
  Array.iteri (fun i l -> Samples.append m.lat.(i) l) c.lat;
  Samples.append m.all c.all;
  Array.iteri (fun i e -> m.errs.(i) <- m.errs.(i) + e) c.errs;
  m.attempted <- m.attempted + c.attempted;
  m.failed <- m.failed + c.failed;
  m.in_window <- m.in_window + c.in_window;
  m.tx <- m.tx + c.tx;
  m.tx_retries <- m.tx_retries + c.tx_retries;
  m.tx_moved <- m.tx_moved + c.tx_moved;
  m.tx_committed <- m.tx_committed + c.tx_committed;
  m.problems <- c.problems @ m.problems;
  merge_tally m.tally c.tally

(** Drive [conns] (one client thread each) for [seconds] after a
    warm-up; returns the merged client and the window length. *)
let drive s conns ~seconds ~warmup =
  let start = Fsutil.now () in
  let w0 = start +. warmup in
  let w1 = w0 +. seconds in
  let clients = List.map (fun _ -> new_client ()) conns in
  let threads =
    List.mapi
      (fun i (c, conn) -> Thread.create (fun () -> client_loop s c conn ~client:i ~w0 ~w1) ())
      (List.combine clients conns)
  in
  List.iter Thread.join threads;
  let m = new_client () in
  List.iter (absorb m) clients;
  (m, seconds)

(** Check the invariant queries, answered by [ask]; returns the
    mismatches. *)
let check_invariants ask g t =
  List.filter_map
    (fun (q, want) ->
      let r = ask q in
      let got =
        match (r.Proto.answer, Proto.rows r) with
        | Proto.Ok_ _, [ [ "null" ] ] -> Some 0
        | Proto.Ok_ _, [ [ v ] ] -> int_of_string_opt v
        | _ -> None
      in
      if got = Some want then None
      else
        Some
          (Printf.sprintf "%s: expected %d, got %s" q want
             (match got with Some v -> string_of_int v | None -> "no answer")))
    (invariants g t)

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

module Store = Cypher_storage.Store
module Bulk = Cypher_storage.Bulk
module Session = Cypher_core.Session

let config = Cypher_core.Config.revised

type phases = { bulk_s : float; snapshot_s : float }

(** Bulk load → index → snapshot into a fresh [dir]. *)
let build_db ~dir ~nodes ~rels =
  ignore (Fsutil.fresh_dir dir : string);
  let store, session =
    match Store.open_db ~config dir with Ok x -> x | Error m -> failwith m
  in
  let t0 = Fsutil.now () in
  (match Bulk.load_strings session ~nodes ~rels with
  | Ok _ -> ()
  | Error e -> failwith (Cypher_core.Errors.to_string e));
  Session.register_prop_index session ~label:"Person" ~key:"pid";
  let t1 = Fsutil.now () in
  (match Store.compact store session with Ok () -> () | Error m -> failwith m);
  Store.close store;
  let t2 = Fsutil.now () in
  { bulk_s = t1 -. t0; snapshot_s = t2 -. t1 }

let connect_ready port n =
  List.init n (fun _ ->
      let c = Proto.connect port in
      (match (Proto.request c ":ping").Proto.answer with
      | Proto.Ok_ _ -> ()
      | Proto.Err m -> failwith ("ping: " ^ m));
      c)

(** One full set-up: database, server start (recovery), connections. *)
let setup ~exe ~dir ~nodes ~rels ~clients =
  let t0 = Fsutil.now () in
  ignore (build_db ~dir ~nodes ~rels : phases);
  let srv = Server_proc.start ~exe ~dir in
  let conns = connect_ready srv.Server_proc.port clients in
  (Fsutil.now () -. t0, srv, conns)
