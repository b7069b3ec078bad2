(** Differential testing: the production MERGE ALL / MERGE SAME agree
    with the naive transcription of the Section 8.2 definitions
    ([Cypher_paper.Reference]) on random driving tables — both in the
    output graph (up to isomorphism) and in the table's shape. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
open Cypher_paper
module Config = Cypher_core.Config

let gen_row =
  QCheck.Gen.(
    map3
      (fun cid pid date ->
        Record.of_list
          [
            ("cid", Value.Int cid);
            ("pid", (match pid with 0 -> Value.Null | p -> Value.Int p));
            ("date", Value.String (string_of_int date));
          ])
      (int_range 1 3) (int_range 0 2) (int_range 0 5))

let gen_table =
  QCheck.Gen.(
    map
      (fun rows -> Table.make [ "cid"; "pid"; "date" ] rows)
      (list_size (int_range 0 8) gen_row))

let arb_table = QCheck.make ~print:Table.to_string gen_table

let merge_src = Fixtures.example5_merge

let patterns_of src =
  match Runner.parse_clause src with
  | Merge { patterns; _ } -> patterns
  | _ -> failwith "expected MERGE"

let patterns = patterns_of merge_src

(* a non-empty base graph so condition (iii)/(v) — old entities collapse
   only with themselves — is exercised: it contains two equal nodes that
   MUST stay distinct under SAME *)
let base_graph =
  Fixtures.build
    [
      ([ "User" ], [ ("id", Value.Int 1) ]);
      ([ "User" ], [ ("id", Value.Int 1) ]);
      ([ "Product" ], [ ("id", Value.Int 2) ]);
    ]
    [ (0, "ORDERED", 2) ]

let production mode g table =
  Runner.run_merge_mode Config.permissive ~mode merge_src (g, table)

let agree mode reference g table =
  let gp, tp = production mode g table in
  let gr, tr = reference g table patterns in
  Iso.isomorphic gp gr
  && Table.row_count tp = Table.row_count tr
  && Table.columns tp = Table.columns tr

let tests =
  [
    QCheck.Test.make
      ~name:"MERGE ALL agrees with the Section 8.2 transcription (empty graph)"
      ~count:120 arb_table
      (fun table -> agree Merge_all Reference.merge_all Graph.empty table);
    QCheck.Test.make
      ~name:"MERGE SAME agrees with the Section 8.2 transcription (empty graph)"
      ~count:120 arb_table
      (fun table -> agree Merge_same Reference.merge_same Graph.empty table);
    QCheck.Test.make
      ~name:"MERGE ALL agrees on a pre-populated graph"
      ~count:120 arb_table
      (fun table -> agree Merge_all Reference.merge_all base_graph table);
    QCheck.Test.make
      ~name:"MERGE SAME agrees on a pre-populated graph"
      ~count:120 arb_table
      (fun table -> agree Merge_same Reference.merge_same base_graph table);
    QCheck.Test.make
      ~name:"reference SAME keeps pre-existing duplicates distinct"
      ~count:60 arb_table
      (fun table ->
        let g, _ = Reference.merge_same base_graph table patterns in
        (* the two equal :User{id:1} nodes of the base graph survive
           (condition iii: old nodes collapse only with themselves);
           failing cid=1 rows may add at most one more *)
        let count =
          List.length
            (List.filter
               (fun (n : Graph.node) ->
                 Graph.has_label g n.Graph.n_id "User"
                 && Value.equal_strict
                      (Props.get n.Graph.n_props "id")
                      (Value.Int 1))
               (Graph.nodes g))
        in
        count = 2 || count = 3);
  ]

let figure_checks =
  [
    Test_util.case "reference reproduces Figures 7a and 7c" (fun () ->
        let g_all, _ =
          Reference.merge_all Graph.empty Fixtures.example5_table patterns
        in
        let g_same, _ =
          Reference.merge_same Graph.empty Fixtures.example5_table patterns
        in
        Alcotest.check Test_util.graph_iso_testable "7a" Fixtures.figure7a g_all;
        Alcotest.check Test_util.graph_iso_testable "7c" Fixtures.figure7c g_same);
    Test_util.case "reference reproduces Figures 9a and 9b" (fun () ->
        let ps = patterns_of Fixtures.example7_merge in
        let g_all, _ =
          Reference.merge_all Fixtures.example7_graph Fixtures.example7_table ps
        in
        let g_same, _ =
          Reference.merge_same Fixtures.example7_graph Fixtures.example7_table ps
        in
        Alcotest.check Test_util.graph_iso_testable "9a" Fixtures.figure9a g_all;
        Alcotest.check Test_util.graph_iso_testable "9b" Fixtures.figure9b g_same);
  ]

(* ------------------------------------------------------------------ *)
(* Planner on/off differential sweep                                  *)
(* ------------------------------------------------------------------ *)

(* Cost-guided planning must only reorder the enumeration of candidate
   bindings: with the planner on and off, a read query returns the same
   bag of rows and an update query produces the same graph (up to the
   ids assigned along the changed enumeration order). *)
module Api = Cypher_core.Api

let planner_on = Config.revised
let planner_off = Config.with_planner Config.Off Config.revised

(* a graph with skewed statistics (few vendors, many users), a label-less
   fringe, and a registered property index, so every anchor kind — bound,
   prop-index, label and scan — is exercised *)
let sweep_graph =
  let g =
    Fixtures.marketplace_graph ~vendors:3 ~products:11 ~users:40
      ~orders_per_user:2
  in
  let _, g = Graph.create_node ~props:(Props.of_list [ ("loose", Value.Int 1) ]) g in
  Graph.add_prop_index ~label:"User" ~key:"id" g

let read_queries =
  [
    "MATCH (u:User) RETURN count(*) AS n";
    "MATCH (u:User)-[:ORDERED]->(p:Product) RETURN u.id AS uid, p.id AS pid";
    "MATCH (u:User)-[o:ORDERED]->(p:Product)<-[f:OFFERS]-(v:Vendor) RETURN \
     u.id AS uid, v.id AS vid";
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User {id: \
     100003}) RETURN v.name AS vn, p.name AS pn";
    "MATCH (a)-[r]->(b) WHERE a.id = 0 RETURN b.id AS bid";
    "MATCH (a)-[:OFFERS|ORDERED]-(b:Product) RETURN count(*) AS n";
    "MATCH (v:Vendor)-[:OFFERS*1..2]->(x) RETURN v.id AS vid, x.id AS xid";
    "MATCH p = (u:User {id: 100007})-[:ORDERED]->(x) RETURN length(p) AS l, \
     x.id AS xid";
    "MATCH (u:User), (v:Vendor) WHERE u.id % 10 = v.id RETURN u.id AS uid, \
     v.id AS vid";
    "MATCH (u:User {id: 100011}) OPTIONAL MATCH (u)-[:ORDERED]->(p) RETURN \
     p.id AS pid";
  ]

let update_queries =
  [
    "MATCH (u:User)-[:ORDERED]->(p:Product) SET p.sold = true RETURN \
     count(*) AS n";
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User) CREATE \
     (u)-[:KNOWS]->(v) RETURN count(*) AS n";
    "MATCH (u:User) WHERE u.id % 7 = 0 SET u:Flagged REMOVE u.name RETURN \
     count(*) AS n";
    "MERGE SAME (:User {id: 100001})-[:ORDERED]->(:Product {id: 1004})";
    "MATCH (u:User)-[:ORDERED]->(p:Product) WHERE u.id % 7 = 0 SET p.hot = \
     true WITH u, count(*) AS n MERGE ALL (u)-[:SCORED]->(:Score {v: n}) \
     RETURN count(*) AS total";
  ]

let run_with config src =
  match Api.run_string ~config sweep_graph src with
  | Ok { Api.graph; table } -> (graph, table)
  | Error e -> Alcotest.failf "query failed: %s" (Cypher_core.Errors.to_string e)

(* bag equality of tables: rows as sorted binding lists *)
let sorted_rows t =
  List.sort compare (List.map Record.bindings (Table.rows t))

let planner_checks =
  List.map
    (fun src ->
      Test_util.case ("planner on/off agree (read): " ^ src) (fun () ->
          let g_on, t_on = run_with planner_on src in
          let g_off, t_off = run_with planner_off src in
          Alcotest.(check bool) "graph untouched (on)" true (g_on == sweep_graph || Iso.isomorphic g_on sweep_graph);
          Alcotest.(check bool) "graph untouched (off)" true (g_off == sweep_graph || Iso.isomorphic g_off sweep_graph);
          Alcotest.(check (list string)) "columns" (Table.columns t_off) (Table.columns t_on);
          Alcotest.(check bool) "same row bag" true
            (sorted_rows t_on = sorted_rows t_off)))
    read_queries
  @ List.map
      (fun src ->
        Test_util.case ("planner on/off agree (update): " ^ src) (fun () ->
            let g_on, t_on = run_with planner_on src in
            let g_off, t_off = run_with planner_off src in
            Alcotest.check Test_util.graph_iso_testable "graphs" g_off g_on;
            Alcotest.(check (list string)) "columns" (Table.columns t_off) (Table.columns t_on);
            Alcotest.(check int) "row count" (Table.row_count t_off) (Table.row_count t_on)))
      update_queries

(* MERGE under every revised mode with the planner on and off: the split
   into Tmatch/Tfail must not depend on the enumeration order *)
let planner_merge_checks =
  [
    QCheck.Test.make
      ~name:"planner on/off agree across MERGE modes (random tables)"
      ~count:60 arb_table
      (fun table ->
        List.for_all
          (fun mode ->
            let g_on, t_on =
              Runner.run_merge_mode
                (Config.with_planner Config.On Config.permissive)
                ~mode merge_src (base_graph, table)
            in
            let g_off, t_off =
              Runner.run_merge_mode
                (Config.with_planner Config.Off Config.permissive)
                ~mode merge_src (base_graph, table)
            in
            Iso.isomorphic g_on g_off
            && Table.row_count t_on = Table.row_count t_off
            && Table.columns t_on = Table.columns t_off)
          [ Merge_all; Merge_grouping; Merge_weak_collapse; Merge_collapse;
            Merge_same ]);
  ]

(* ------------------------------------------------------------------ *)
(* Planner × parallelism × backend 2×2×2 sweep                        *)
(* ------------------------------------------------------------------ *)

(* Parallel read phases must be unobservable (DESIGN.md "Parallel read
   phases"): for each planner setting, running with the domain pool
   fanned out must produce byte-identical tables and graphs to the
   serial run.  This is strictly stronger than the bag equality the
   planner sweep above settles for — parallelism may not even reorder.
   The chunk threshold is forced down to 1 so the small sweep tables
   actually split across domains.  The sweep runs once per physical
   backend: the compact CSR layout must be just as unobservable as the
   pool (same enumeration order, hence the same bytes). *)
module Pool = Cypher_util.Pool

let parallelism_checks =
  let settings =
    [ ("planner-on", planner_on); ("planner-off", planner_off) ]
  in
  let backends = [ ("persistent", `Persistent); ("compact", `Compact) ] in
  List.concat_map
    (fun (plabel, cfg) ->
      List.concat_map
        (fun (blabel, backend) ->
          let cfg = Config.with_backend backend cfg in
          List.map
            (fun src ->
              Test_util.case
                (Printf.sprintf "par=4 byte-identical to par=0 (%s, %s): %s"
                   plabel blabel src)
                (fun () ->
                  let serial_g, serial_t =
                    run_with (Config.with_parallelism 0 cfg) src
                  in
                  let par_g, par_t =
                    Pool.with_chunk_min 1 (fun () ->
                        run_with (Config.with_parallelism 4 cfg) src)
                  in
                  Alcotest.(check string) "table bytes"
                    (Table.to_string serial_t) (Table.to_string par_t);
                  Alcotest.(check string) "graph bytes"
                    (Graph.to_string serial_g) (Graph.to_string par_g)))
            (read_queries @ update_queries))
        backends)
    settings

(* ------------------------------------------------------------------ *)
(* Planner × backend sweep against pinned output                      *)
(* ------------------------------------------------------------------ *)

(* The sweep's exact output, row order included, pinned for each
   planner setting and shared by both physical backends: table bytes in
   full, graph bytes as the MD5 digest of [Graph.to_string] (each graph
   prints ~170 lines).  Row order is not fixed by the semantics, so
   nothing else holds the matcher's enumerations (the naive fold, the
   planned traversal forward and in natural order) to it. *)
let pinned_checks =
  let expected = Test_util.golden "rows_golden.expected" in
  let settings =
    [ ("planner-on", planner_on); ("planner-off", planner_off) ]
  in
  let backends = [ ("persistent", `Persistent); ("compact", `Compact) ] in
  List.concat_map
    (fun (plabel, cfg) ->
      List.concat_map
        (fun (blabel, backend) ->
          let cfg = Config.with_backend backend cfg in
          List.map
            (fun src ->
              Test_util.case
                (Printf.sprintf "pinned output (%s, %s): %s" plabel blabel src)
                (fun () ->
                  let g, t = run_with cfg src in
                  let key what = Printf.sprintf "%s sweep %s: %s" what plabel src in
                  Alcotest.(check string) "table bytes" (expected (key "table"))
                    (Table.to_string t);
                  Alcotest.(check string) "graph digest" (expected (key "graph"))
                    (Digest.to_hex (Digest.string (Graph.to_string g)))))
            (read_queries @ update_queries))
        backends)
    settings

let suite =
  List.map QCheck_alcotest.to_alcotest tests
  @ figure_checks @ planner_checks
  @ List.map QCheck_alcotest.to_alcotest planner_merge_checks
  @ parallelism_checks @ pinned_checks
