(** Scratch directories under the benchmark's own [_run] directory. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let now () = Int64.to_float (Cypher_util.Mclock.now_ns ()) /. 1e9
