(** The paper-import workload: the paper's two update regimes driven
    in-process through the embedded [Api], one thread, in memory.

    Every operation runs one prepared [UNWIND $rows AS r ...] statement
    over a fresh 100-row Example-5-style batch (duplicate keys, null
    [pid]s, some unknown keys) against the same marketplace base, and
    its result is checked and discarded, so latency does not drift with
    run length. *)

open Cypher_core
open Cypher_graph
open Cypher_table
module Fixtures = Cypher_paper.Fixtures
module Smap = Cypher_util.Maps.Smap

type cls = Merge | Write | Legacy

let cls_name = function Merge -> "merge" | Write -> "write" | Legacy -> "legacy"
let all_cls = [ Merge; Write; Legacy ]
let cls_index = function Merge -> 0 | Write -> 1 | Legacy -> 2

type kind = Merge_all | Merge_same | Set | Delete | Legacy_merge | Legacy_set | Legacy_delete

let kind_name = function
  | Merge_all -> "merge-all"
  | Merge_same -> "merge-same"
  | Set -> "set"
  | Delete -> "delete"
  | Legacy_merge -> "legacy-merge"
  | Legacy_set -> "legacy-set"
  | Legacy_delete -> "legacy-delete"

let cls_of = function
  | Merge_all | Merge_same -> Merge
  | Set | Delete -> Write
  | Legacy_merge | Legacy_set | Legacy_delete -> Legacy

let merge_src m =
  "UNWIND $rows AS r WITH r.cid AS cid, r.pid AS pid MERGE " ^ m
  ^ "(:User {id: cid})-[:ORDERED]->(:Product {id: pid})"

let set_src = "UNWIND $rows AS r MATCH (u:User {id: r.cid}) SET u.tier = r.cid % 7"
let delete_src = "UNWIND $rows AS r MATCH (p:Product {id: r.pid}) DETACH DELETE p"

let statement = function
  | Merge_all -> (Config.revised, merge_src "ALL ")
  | Merge_same -> (Config.revised, merge_src "SAME ")
  | Set -> (Config.revised, set_src)
  | Delete -> (Config.revised, delete_src)
  | Legacy_merge -> (Config.cypher9, merge_src "")
  | Legacy_set -> (Config.cypher9, set_src)
  | Legacy_delete -> (Config.cypher9, delete_src)

let kinds = [ Merge_all; Merge_same; Set; Delete; Legacy_merge; Legacy_set; Legacy_delete ]

(** Even round-robin over the three classes; within a class the kinds
    alternate. *)
let kind_of_index i =
  let j = i / 3 in
  match i mod 3 with
  | 0 -> if j mod 2 = 0 then Merge_all else Merge_same
  | 1 -> if j mod 2 = 0 then Set else Delete
  | _ -> ( match j mod 3 with 0 -> Legacy_merge | 1 -> Legacy_set | _ -> Legacy_delete)

(* the marketplace base: Fixtures.marketplace_graph 20/300/680/3 *)
let vendors = 20
let products = 300
let users = 680
let orders_per_user = 3
let batch_rows = 100

let base () = Fixtures.marketplace_graph ~vendors ~products ~users ~orders_per_user

(** Relationships of product [1000 + k] in the base: one OFFERS plus
    the ORDERED edges the fixture's round-robin assigns to it. *)
let product_degree =
  let d = Array.make products 1 in
  for u = 0 to users - 1 do
    for o = 0 to orders_per_user - 1 do
      let k = ((u * orders_per_user) + o) mod products in
      d.(k) <- d.(k) + 1
    done
  done;
  d

let user_exists cid = cid >= 100000 && cid < 100000 + users
let product_exists pid = pid >= 1000 && pid < 1000 + products

type row = { cid : int; pid : int option }

(** Batch [index] of the stream: 100 rows over 40 customers and 30
    products (so keys repeat), a fifth of the [pid]s null, and about
    one key in ten unknown to the base. *)
let batch ~seed ~index =
  let r = Rng.make [ seed; 3; index ] in
  let cids =
    Array.init 40 (fun _ ->
        if Rng.int r 20 = 0 then 200000 + Rng.int r 100 else 100000 + Rng.int r users)
  in
  let pids =
    Array.init 30 (fun _ ->
        if Rng.int r 10 = 0 then 5000 + Rng.int r 50 else 1000 + Rng.int r products)
  in
  List.init batch_rows (fun _ ->
      let cid = cids.(Rng.int r 40) in
      let pid = if Rng.int r 5 = 0 then None else Some pids.(Rng.int r 30) in
      { cid; pid })

let pid_value = function Some p -> Value.Int p | None -> Value.Null

let params rows =
  Smap.singleton "rows"
    (Value.List
       (List.map
          (fun row ->
            Value.Map
              (Smap.of_seq
                 (List.to_seq [ ("cid", Value.Int row.cid); ("pid", pid_value row.pid) ])))
          rows))

(** The driving table MERGE sees after [UNWIND ... WITH], for the
    Section 8.2 reference. *)
let table rows =
  Table.make [ "cid"; "pid" ]
    (List.map
       (fun row -> Record.of_list [ ("cid", Value.Int row.cid); ("pid", pid_value row.pid) ])
       rows)

let distinct l = List.sort_uniq compare l

(** Expected counters, computed from the batch and the fixture's shape;
    [None] when the check is the MERGE row accounting. *)
let check_counters kind rows (st : Stats.t) =
  let fail fmt = Printf.ksprintf (fun m -> Some (kind_name kind ^ ": " ^ m)) fmt in
  match kind with
  | Set | Legacy_set ->
      let matched = List.filter (fun r -> user_exists r.cid) rows in
      let want = List.length (distinct (List.map (fun r -> r.cid) matched)) in
      if st.Stats.props_set <> want then fail "props_set %d, expected %d" st.Stats.props_set want
      else None
  | Delete | Legacy_delete ->
      let ps =
        distinct
          (List.filter_map
             (fun r -> match r.pid with Some p when product_exists p -> Some p | _ -> None)
             rows)
      in
      let want_n = List.length ps in
      let want_r = List.fold_left (fun acc p -> acc + product_degree.(p - 1000)) 0 ps in
      if st.Stats.nodes_deleted <> want_n || st.Stats.rels_deleted <> want_r then
        fail "deleted %d nodes / %d rels, expected %d / %d" st.Stats.nodes_deleted
          st.Stats.rels_deleted want_n want_r
      else None
  | Merge_all | Merge_same | Legacy_merge ->
      let n = st.Stats.merge_matched + st.Stats.merge_created in
      if n <> List.length rows || st.Stats.rows <> List.length rows then
        fail "merge accounted %d driving rows and returned %d, expected %d" n st.Stats.rows
          (List.length rows)
      else None

(** Compare one MERGE ALL / MERGE SAME outcome with the naive Section
    8.2 transcription, up to isomorphism. *)
let reference_check kind base rows graph =
  let patterns =
    match Cypher_paper.Runner.parse_clause Fixtures.example5_merge with
    | Cypher_ast.Ast.Merge { patterns; _ } -> patterns
    | _ -> assert false
  in
  let reference =
    match kind with
    | Merge_all -> Cypher_paper.Reference.merge_all
    | _ -> Cypher_paper.Reference.merge_same
  in
  let expected, _ = reference base (table rows) patterns in
  if Iso.isomorphic expected graph then None
  else Some (kind_name kind ^ ": result graph differs from the Section 8.2 reference")

type fixture = { base : Graph.t; prepared : (kind * Api.prepared) list }

let prepare kind =
  let config, src = statement kind in
  match Api.prepare ~config src with
  | Ok p -> p
  | Error e -> failwith (Errors.to_string e)

(** Set-up: fixture build and statement preparation. *)
let fixture () =
  let base = base () in
  { base; prepared = List.map (fun k -> (k, prepare k)) kinds }

let execute fx kind rows =
  Api.execute_full (List.assoc kind fx.prepared) (params rows) fx.base
