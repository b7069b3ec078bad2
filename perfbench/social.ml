(** The social graph and the two server workloads' operation streams.

    Everything here is a pure function of (workload, seed): the graph
    (persons with [pid]/[name]/[age], [KNOWS] relationships of a fixed
    out-degree), the CSV images the bulk loader reads, and each client's
    operation stream, generated op by op from [(seed, client, index)].
    The generator also computes the answers the server must give on the
    part of the graph no operation writes. *)

type cls = Read | Write | Merge | Tx

let cls_name = function
  | Read -> "read"
  | Write -> "write"
  | Merge -> "merge"
  | Tx -> "tx"

let all_cls = [ Read; Write; Merge; Tx ]

(** What the benchmark checks in an answer. *)
type check =
  | Any  (** the terminator must be [OK] *)
  | Rows of string list list  (** exact table rows, in order *)
  | Contains of string list  (** first column holds each value (multiset) *)

(** Effects an acknowledged operation has on the invariants. *)
type effect = { visits : int; posts : int; tag : int option; knows : int }

let no_effect = { visits = 0; posts = 0; tag = None; knows = 0 }

(** One operation: a single statement, or a transaction whose [lines]
    run between [:begin] and [:commit].  [checks] pairs with [lines]. *)
type op = {
  cls : cls;
  kind : string;
  lines : string list;
  checks : check list;
  effect : effect;
}

type graph = {
  n : int;
  age : int array;
  out : int array array;  (** sorted out-neighbours *)
  und : int array array;  (** undirected neighbours *)
}

type spec = { name : string; persons : int }

let social_read = { name = "social-read"; persons = 20_000 }
let social_write = { name = "social-write"; persons = 1_000 }

(* KNOWS out-degree, MERGE ALL tag names and Zipf-hot persons *)
let degree = 8
let tag_names = 64
let hot_persons = 48

let workload_key spec = if spec.name = "social-read" then 1 else 2

let make_graph spec ~seed =
  let n = spec.persons in
  let r = Rng.make [ seed; workload_key spec; 0 ] in
  let age = Array.init n (fun _ -> 18 + Rng.int r 60) in
  let out =
    Array.init n (fun i ->
        let seen = Hashtbl.create 16 in
        let picked = ref [] in
        while List.length !picked < degree do
          let j = Rng.int r n in
          if j <> i && not (Hashtbl.mem seen j) then begin
            Hashtbl.add seen j ();
            picked := j :: !picked
          end
        done;
        let a = Array.of_list !picked in
        Array.sort compare a;
        a)
  in
  let inc = Array.make n [] in
  Array.iteri (fun i js -> Array.iter (fun j -> inc.(j) <- i :: inc.(j)) js) out;
  let und =
    Array.init n (fun i -> Array.of_list (List.sort_uniq compare (Array.to_list out.(i) @ inc.(i))))
  in
  { n; age; out; und }

let rel_count g = Array.fold_left (fun acc a -> acc + Array.length a) 0 g.out

(** Bulk-loader CSV images (see [Bulk]). *)
let csv g =
  let b = Buffer.create (g.n * 24) in
  Buffer.add_string b "id,labels,pid,name,age\n";
  for i = 0 to g.n - 1 do
    Printf.bprintf b "%d,Person,%d,p%d,%d\n" i i i g.age.(i)
  done;
  let nodes = Buffer.contents b in
  let b = Buffer.create (rel_count g * 16) in
  Buffer.add_string b "src,tgt,type\n";
  Array.iteri (fun i js -> Array.iter (fun j -> Printf.bprintf b "%d,%d,KNOWS\n" i j) js) g.out;
  (nodes, Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Expected answers                                                   *)
(* ------------------------------------------------------------------ *)

let two_hop g k =
  let counts = Hashtbl.create 128 in
  Array.iter
    (fun x ->
      Array.iter
        (fun f ->
          Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f)))
        g.out.(x))
    g.out.(k);
  counts

(** Undirected hop distance from [a] to [b], if at most [limit]. *)
let distance g a b ~limit =
  if a = b then None
  else begin
    let dist = Hashtbl.create 1024 in
    Hashtbl.replace dist a 0;
    let frontier = ref [ a ] and d = ref 0 and found = ref None in
    while !found = None && !d < limit && !frontier <> [] do
      incr d;
      let next = ref [] in
      List.iter
        (fun x ->
          Array.iter
            (fun y ->
              if not (Hashtbl.mem dist y) then begin
                Hashtbl.replace dist y !d;
                if y = b then found := Some !d;
                next := y :: !next
              end)
            g.und.(x))
        !frontier;
      frontier := !next
    done;
    !found
  end

let quote s = "'" ^ s ^ "'"
let name k = Printf.sprintf "p%d" k

let point_rows g k = [ [ quote (name k); string_of_int g.age.(k) ] ]

let hop1_rows g k =
  Array.to_list (Array.map (fun f -> [ string_of_int f; quote (name f) ]) g.out.(k))

let hop2_rows g k = [ [ string_of_int (Hashtbl.length (two_hop g k)) ] ]

let fof_rows g k =
  let l =
    Hashtbl.fold (fun f c acc -> if f = k then acc else (f, c) :: acc) (two_hop g k) []
  in
  let by_count (f1, c1) (f2, c2) = if c1 <> c2 then compare c2 c1 else compare f1 f2 in
  let l = List.sort by_count l in
  List.filteri (fun i _ -> i < 10) l
  |> List.map (fun (f, c) -> [ string_of_int f; string_of_int c ])

let sp_rows g a b =
  [ [ (match distance g a b ~limit:3 with Some d -> string_of_int d | None -> "null") ] ]

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let q_point k = Printf.sprintf "MATCH (p:Person {pid: %d}) RETURN p.name, p.age" k

let q_hop1 k =
  Printf.sprintf "MATCH (p:Person {pid: %d})-[:KNOWS]->(f) RETURN f.pid, f.name ORDER BY f.pid" k

let q_hop2 k =
  Printf.sprintf
    "MATCH (p:Person {pid: %d})-[:KNOWS]->()-[:KNOWS]->(f) RETURN count(DISTINCT f) AS c" k

let q_fof k =
  Printf.sprintf
    "MATCH (p:Person {pid: %d})-[:KNOWS]->()-[:KNOWS]->(f) WHERE f <> p RETURN f.pid AS \
     id, count(*) AS c ORDER BY c DESC, id LIMIT 10"
    k

let q_sp a b =
  Printf.sprintf
    "MATCH (a:Person {pid: %d}), (b:Person {pid: %d}) RETURN \
     length(shortestPath((a)-[:KNOWS*..3]-(b))) AS l"
    a b

let q_visit k =
  Printf.sprintf "MATCH (p:Person {pid: %d}) SET p.visits = coalesce(p.visits, 0) + 1" k

let q_friends k =
  Printf.sprintf "MATCH (p:Person {pid: %d})-[:KNOWS]->(f) RETURN f.pid ORDER BY f.pid" k

let q_post k seq =
  Printf.sprintf "MATCH (a:Person {pid: %d}) CREATE (a)-[:POSTED]->(:Post {seq: %d})" k seq

let q_tag j = Printf.sprintf "MERGE ALL (:Tag {name: 'tag%d'})" j

(* the new KNOWS points *into* the hot person: an outgoing edge would
   grow the hot friend lists the transactions read, and their latency
   would drift with run length *)
let q_knows a b =
  Printf.sprintf "MATCH (a:Person {pid: %d}), (b:Person {pid: %d}) CREATE (b)-[:KNOWS]->(a)" a b

(** Invariant queries, each answering one integer. *)
let q_sum_visits = "MATCH (p:Person) RETURN sum(p.visits) AS v"
let q_posts = "MATCH (p:Post) RETURN count(p) AS c"
let q_tags = "MATCH (t:Tag) RETURN count(t) AS c"
let q_knows_count = "MATCH (:Person)-[r:KNOWS]->(:Person) RETURN count(r) AS c"

(* ------------------------------------------------------------------ *)
(* Operation streams                                                  *)
(* ------------------------------------------------------------------ *)

(** The Zipf-hot persons of social-write, drawn from the seed. *)
let hot_set spec ~seed =
  let r = Rng.make [ seed; workload_key spec; 1 ] in
  let seen = Hashtbl.create 64 in
  let l = ref [] in
  while List.length !l < hot_persons do
    let k = Rng.int r spec.persons in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      l := k :: !l
    end
  done;
  Array.of_list (List.rev !l)

let zipf_cdf n = Rng.cdf_of (Array.init n (fun r -> 1.0 /. float_of_int (r + 1)))

type stream = {
  spec : spec;
  seed : int;
  g : graph;
  hot : int array;
  hot_cdf : float array;
}

let stream spec ~seed g =
  { spec; seed; g; hot = hot_set spec ~seed; hot_cdf = zipf_cdf hot_persons }

let single cls kind line check effect = { cls; kind; lines = [ line ]; checks = [ check ]; effect }

let read_op s r =
  let g = s.g in
  let k = Rng.int r g.n in
  let x = Rng.int r 100 in
  if x < 35 then single Read "point" (q_point k) (Rows (point_rows g k)) no_effect
  else if x < 65 then single Read "hop1" (q_hop1 k) (Rows (hop1_rows g k)) no_effect
  else if x < 80 then single Read "hop2" (q_hop2 k) (Rows (hop2_rows g k)) no_effect
  else if x < 90 then single Read "fof" (q_fof k) (Rows (fof_rows g k)) no_effect
  else if x < 95 then begin
    let b = (k + 1 + Rng.int r (g.n - 1)) mod g.n in
    single Read "sp" (q_sp k b) (Rows (sp_rows g k b)) no_effect
  end
  else single Write "visit" (q_visit k) Any { no_effect with visits = 1 }

let base_friends g k = Array.to_list (Array.map string_of_int g.out.(k))

let write_op s r ~client ~index =
  let g = s.g in
  let x = Rng.int r 100 in
  let hot () = s.hot.(Rng.pick_cdf r s.hot_cdf) in
  if x < 30 then begin
    let k = Rng.int r g.n in
    let seq = (client * 1_000_000_000) + index in
    single Write "post" (q_post k seq) Any { no_effect with posts = 1 }
  end
  else if x < 55 then single Write "visit" (q_visit (hot ())) Any { no_effect with visits = 1 }
  else if x < 70 then begin
    let j = Rng.int r tag_names in
    single Merge "tag" (q_tag j) Any { no_effect with tag = Some j }
  end
  else if x < 90 then begin
    let a = hot () in
    let b = (a + 1 + Rng.int r (g.n - 1)) mod g.n in
    {
      cls = Tx;
      kind = "tx";
      lines = [ q_visit a; q_friends a; q_knows a b ];
      checks = [ Any; Contains (base_friends g a); Any ];
      effect = { no_effect with visits = 1; knows = 1 };
    }
  end
  else begin
    let k = Rng.int r g.n in
    single Read "friends" (q_friends k) (Contains (base_friends g k)) no_effect
  end

(** Operation [index] of [client]'s stream. *)
let op s ~client ~index =
  let r = Rng.make [ s.seed; workload_key s.spec; 2; client; index ] in
  if s.spec.name = "social-read" then read_op s r else write_op s r ~client ~index

(* ------------------------------------------------------------------ *)
(* Checking answers                                                   *)
(* ------------------------------------------------------------------ *)

(** [check c rows] is [None] when [rows] (a table's data rows) satisfy
    [c], else a description of the mismatch. *)
let check c rows =
  match c with
  | Any -> None
  | Rows want ->
      if rows = want then None
      else
        Some
          (Printf.sprintf "expected %d row(s) [%s], got %d row(s) [%s]" (List.length want)
             (String.concat "; " (List.map (String.concat ",") want))
             (List.length rows)
             (String.concat "; " (List.map (String.concat ",") rows)))
  | Contains want ->
      let have = Hashtbl.create 16 in
      List.iter
        (function
          | v :: _ -> Hashtbl.replace have v (1 + Option.value ~default:0 (Hashtbl.find_opt have v))
          | [] -> ())
        rows;
      let missing =
        List.filter
          (fun v ->
            match Hashtbl.find_opt have v with
            | Some c when c > 0 ->
                Hashtbl.replace have v (c - 1);
                false
            | _ -> true)
          want
      in
      if missing = [] then None
      else Some ("missing base friends " ^ String.concat "," missing)

(** Acknowledged effects, summed over clients. *)
type tally = {
  mutable t_visits : int;
  mutable t_posts : int;
  t_tags : (int, unit) Hashtbl.t;
  mutable t_knows : int;
}

let tally () = { t_visits = 0; t_posts = 0; t_tags = Hashtbl.create 64; t_knows = 0 }

let acknowledge t e =
  t.t_visits <- t.t_visits + e.visits;
  t.t_posts <- t.t_posts + e.posts;
  (match e.tag with Some j -> Hashtbl.replace t.t_tags j () | None -> ());
  t.t_knows <- t.t_knows + e.knows

let merge_tally dst src =
  dst.t_visits <- dst.t_visits + src.t_visits;
  dst.t_posts <- dst.t_posts + src.t_posts;
  Hashtbl.iter (fun k () -> Hashtbl.replace dst.t_tags k ()) src.t_tags;
  dst.t_knows <- dst.t_knows + src.t_knows

(** The invariant queries with the answers [t] implies. *)
let invariants g t =
  [
    (q_sum_visits, t.t_visits);
    (q_posts, t.t_posts);
    (q_tags, Hashtbl.length t.t_tags);
    (q_knows_count, rel_count g + t.t_knows);
  ]
