(** Growable float sample buffers, order statistics and the result
    line's JSON. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.a 0 t.n
let sum t = Array.fold_left ( +. ) 0.0 (to_array t)

let append dst src = Array.iter (add dst) (to_array src)

(** Nearest-rank percentile ([q] in 0..100); [nan] when empty. *)
let pct t q =
  if t.n = 0 then Float.nan
  else begin
    let s = to_array t in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int t.n)) in
    s.(max 0 (min (t.n - 1) (rank - 1)))
  end

let median_of l =
  let t = create () in
  List.iter (add t) l;
  pct t 50.0

(** One metric in the result line. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m
