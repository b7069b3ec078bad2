(** The TCP front end: a listener plus one thread and one {!Service.t}
    per accepted connection.  Protocol is newline-delimited text (see
    {!Service}) — usable straight from a shell via [nc]. *)

type t

(** [start ?host ?port ~make_service ()] binds, listens and accepts on
    a dedicated thread; [make_service] is called once per connection.
    [port] defaults to 0 (ephemeral — read the bound port back with
    {!port}); [host] defaults to ["127.0.0.1"]. *)
val start :
  ?host:string ->
  ?port:int ->
  make_service:(unit -> Service.t) ->
  unit ->
  (t, string) result

(** The longest request line a connection may send, terminator
    excluded (1 MiB).  A longer line is answered with one [ERR] line and
    the connection is closed; the others are unaffected. *)
val max_request_line : int

(** The actually bound port. *)
val port : t -> int

(** [stop t] closes the listener and every open connection, then joins
    the accept thread. *)
val stop : t -> unit

(** [wait t] blocks until the accept loop ends. *)
val wait : t -> unit
