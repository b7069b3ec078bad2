(** Client side of the server's line protocol (see [Service]): one
    request per line, answered by payload lines and one terminator,
    [OK rows=<n> version=<v>] or [ERR <message>].  A payload line that
    would start like a terminator arrives with one leading space, so a
    line is a terminator exactly when it starts with ["OK"] or ["ERR"]. *)

type answer =
  | Ok_ of { rows : int; version : int }
  | Err of string

type response = { payload : string list; answer : answer }

let starts p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let is_terminator line = starts "OK" line || starts "ERR" line

(** Field [key=<int>] of an [OK] line. *)
let field key line =
  let parts = String.split_on_char ' ' line in
  List.find_map
    (fun p ->
      match String.index_opt p '=' with
      | Some i when String.sub p 0 i = key ->
          int_of_string_opt (String.sub p (i + 1) (String.length p - i - 1))
      | _ -> None)
    parts

let answer_of_line line =
  if starts "ERR" line then
    Err (String.trim (String.sub line 3 (String.length line - 3)))
  else
    Ok_
      {
        rows = Option.value ~default:(-1) (field "rows" line);
        version = Option.value ~default:(-1) (field "version" line);
      }

(** Undo the terminator escape of one payload line. *)
let unescape line =
  if String.length line > 0 && line.[0] = ' '
     && is_terminator (String.sub line 1 (String.length line - 1))
  then String.sub line 1 (String.length line - 1)
  else line

(** [read_response next] consumes lines from [next] up to and including
    the terminator. *)
let read_response next =
  let rec go acc =
    let line = next () in
    if is_terminator line then { payload = List.rev acc; answer = answer_of_line line }
    else go (unescape line :: acc)
  in
  go []

(** Cells of one rendered table row [| a | b |]; [None] for lines that
    are not table rows.  Workload values never contain ['|']. *)
let cells line =
  let n = String.length line in
  if n >= 2 && line.[0] = '|' && line.[n - 1] = '|' then
    Some (List.map String.trim (String.split_on_char '|' (String.sub line 1 (n - 2))))
  else None

(** Data rows of a response's table (the header row dropped). *)
let rows r =
  match List.filter_map cells r.payload with [] -> [] | _ :: data -> data

(* ------------------------------------------------------------------ *)
(* Socket client                                                      *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(** [request c line] sends one request and blocks for its response. *)
let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  read_response (fun () -> input_line c.ic)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
