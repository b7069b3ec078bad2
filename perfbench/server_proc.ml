(** The [cypher_server] child process: spawn on a database directory,
    read back its port and recovery report, kill, measure peak RSS. *)

type t = {
  pid : int;
  port : int;
  recovered : int;  (** journal records the server replayed at start *)
  out : in_channel;
}

let live : int list ref = ref []

(* a benchmark that dies must not leave a server behind *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let parse_recovered line =
  match String.split_on_char ' ' line with
  | "recovered" :: n :: _ -> int_of_string_opt n
  | _ -> None

let parse_port line =
  match String.rindex_opt line ':' with
  | Some i when Proto.starts "listening on " line ->
      int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
  | _ -> None

(** [start ~exe ~dir] runs the server with default flags on [dir] and
    returns once it listens. *)
let start ~exe ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--db"; dir |] Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec wait recovered =
    match input_line out with
    | exception End_of_file -> failwith "cypher_server exited during start-up"
    | line -> (
        match parse_port line with
        | Some port -> { pid; port; recovered; out }
        | None -> wait (Option.value ~default:recovered (parse_recovered line)))
  in
  wait 0

(** Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> Float.nan
    | line when Proto.starts "VmHWM:" line ->
        let v =
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "") |> fun l ->
          float_of_string (List.nth l 1)
        in
        v /. 1024.0
    | _ -> go ()
  in
  let v = go () in
  close_in ic;
  v

(** SIGKILL and reap: a process crash, the OS page cache survives. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun p -> p <> t.pid) !live;
  close_in_noerr t.out
