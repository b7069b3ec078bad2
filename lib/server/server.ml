(** The TCP front end: accept loop and connection threads.

    Each accepted connection gets its own systhread and its own
    {!Service.t}.  Connection threads only do blocking socket IO and
    protocol bookkeeping; query execution moves to the domain pool
    (reads) or the group committer (writes), so the threads' shared
    runtime lock is never the bottleneck.

    The protocol is newline-delimited text (see {!Service}), usable
    straight from a shell: [printf 'CREATE (:A)\n:quit\n' | nc host
    port]. *)

type t = {
  listener : Unix.file_descr;
  port : int;
  lock : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
}

let port t = t.port

let register t fd =
  Mutex.lock t.lock;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.lock

let unregister t fd =
  Mutex.lock t.lock;
  t.conns <- List.filter (fun c -> c <> fd) t.conns;
  Mutex.unlock t.lock

let max_request_line = 1 lsl 20

(* [read_line ic] is the next request line without its terminator, as
   [input_line] reads it, but never holds more than [max_request_line]
   bytes of it: a client streaming without a newline is refused instead
   of buffered until the server runs out of memory. *)
let read_line ic =
  let line = Buffer.create 128 in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents line)
    | c when Buffer.length line < max_request_line ->
        Buffer.add_char line c;
        go ()
    | _ -> `Too_long
    | exception End_of_file ->
        if Buffer.length line = 0 then `Eof else `Line (Buffer.contents line)
  in
  go ()

let serve_conn t (service : Service.t) fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       match read_line ic with
       | `Eof -> ()
       | `Too_long ->
           Printf.fprintf oc "ERR request line longer than %d bytes\n"
             max_request_line;
           flush oc
       | `Line line ->
           List.iter
             (fun l ->
               output_string oc l;
               output_char oc '\n')
             (Service.handle service line);
           flush oc;
           if not (Service.closed service) then loop ()
     in
     loop ()
   with _ -> (* client went away mid-request: drop the connection *) ());
  unregister t fd;
  try Unix.close fd with _ -> ()

let accept_loop t make_service =
  let rec loop () =
    match Unix.accept t.listener with
    | exception _ -> () (* listener closed: stop accepting *)
    | fd, _ ->
        register t fd;
        ignore
          (Thread.create (fun () -> serve_conn t (make_service ()) fd) ()
            : Thread.t);
        if t.running then loop ()
  in
  loop ()

(** [start ?host ?port ~make_service ()] binds and listens (port 0
    picks an ephemeral port — read it back with {!port}), then accepts
    connections on a dedicated thread, one new service and one new
    thread per connection. *)
let start ?(host = "127.0.0.1") ?(port = 0) ~make_service () :
    (t, string) result =
  (* a client closing mid-response must surface as EPIPE on the write,
     not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  match
    let addr = Unix.inet_addr_of_string host in
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    Unix.bind listener (Unix.ADDR_INET (addr, port));
    Unix.listen listener 64;
    let port =
      match Unix.getsockname listener with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (listener, port)
  with
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
  | exception e -> Error (Printexc.to_string e)
  | listener, port ->
      let t =
        {
          listener;
          port;
          lock = Mutex.create ();
          conns = [];
          running = true;
          accept_thread = None;
        }
      in
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t make_service) ());
      Ok t

(** [stop t] closes the listener (ending the accept loop) and every
    open connection, then joins the accept thread. *)
let stop t =
  Mutex.lock t.lock;
  t.running <- false;
  let conns = t.conns in
  t.conns <- [];
  Mutex.unlock t.lock;
  (* shutdown before close: closing a listening socket does not wake a
     thread blocked in [accept] on Linux — shutdown does *)
  (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with _ -> ());
  (try Unix.close t.listener with _ -> ());
  List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()) conns;
  match t.accept_thread with None -> () | Some th -> Thread.join th

(** [wait t] blocks until the accept loop ends (the foreground mode of
    [bin/cypher_server]). *)
let wait t =
  match t.accept_thread with None -> () | Some th -> Thread.join th
