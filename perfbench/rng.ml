(** SplitMix64: a small, fully specified generator, so a workload's
    graph and operation stream depend only on the seed and never on the
    standard library's generator version. *)

type t = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(** [make keys] seeds a generator from a list of integers (workload
    seed, client, operation index ...): equal lists, equal streams. *)
let make keys =
  let step acc k = mix (Int64.add (Int64.mul acc golden) (Int64.of_int k)) in
  { s = List.fold_left step 1L keys }

let bits t =
  t.s <- Int64.add t.s golden;
  mix t.s

(** Uniform in [0, n). *)
let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  Int64.to_int (Int64.unsigned_rem (bits t) (Int64.of_int n))

(** Uniform in [0, 1). *)
let float t = Int64.to_float (Int64.shift_right_logical (bits t) 11) /. 9007199254740992.0

(** Index drawn from cumulative weights [cdf] (increasing, last = total). *)
let pick_cdf t cdf =
  let x = float t *. cdf.(Array.length cdf - 1) in
  let rec go i = if i >= Array.length cdf - 1 || x < cdf.(i) then i else go (i + 1) in
  go 0

let cdf_of weights =
  let acc = ref 0.0 in
  Array.map (fun w -> acc := !acc +. w; !acc) weights
