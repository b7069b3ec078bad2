(** Pattern matching: embeddings, relationship isomorphism, direction,
    variable-length paths, bound variables, OPTIONAL MATCH. *)

open Cypher_graph
open Test_util

let chain = graph_of "CREATE (:A {k: 1})-[:T]->(:B {k: 2})-[:T]->(:C {k: 3})"

let suite =
  [
    case "node matching filters by label and property" (fun () ->
        check_rows "by label" 1 (run_table chain "MATCH (n:B) RETURN n");
        check_rows "by property" 1 (run_table chain "MATCH (n {k: 2}) RETURN n");
        check_rows "label and property mismatch" 0
          (run_table chain "MATCH (n:B {k: 3}) RETURN n");
        check_rows "unlabeled matches everything" 3
          (run_table chain "MATCH (n) RETURN n"));
    case "null-valued pattern properties never match" (fun () ->
        check_rows "null" 0 (run_table chain "MATCH (n {k: null}) RETURN n"));
    case "direction is respected" (fun () ->
        check_rows "out" 2 (run_table chain "MATCH (a)-[:T]->(b) RETURN a");
        check_rows "in" 2 (run_table chain "MATCH (a)<-[:T]-(b) RETURN a");
        check_rows "undirected counts both ends" 4
          (run_table chain "MATCH (a)-[:T]-(b) RETURN a"));
    case "type filtering" (fun () ->
        let g = graph_of "CREATE (:A)-[:X]->(:B), (:A)-[:Y]->(:B)" in
        check_rows "x only" 1 (run_table g "MATCH ()-[r:X]->() RETURN r");
        check_rows "alternative" 2 (run_table g "MATCH ()-[r:X|Y]->() RETURN r");
        check_rows "any" 2 (run_table g "MATCH ()-[r]->() RETURN r"));
    case "two-step pattern" (fun () ->
        check_rows "path" 1 (run_table chain "MATCH (a:A)-[:T]->(b)-[:T]->(c:C) RETURN a"));
    case "relationship isomorphism within a pattern" (fun () ->
        (* a single relationship cannot play two pattern positions *)
        let g = graph_of "CREATE (:A)-[:T]->(:B)" in
        check_rows "needs two distinct rels" 0
          (run_table g "MATCH (a)-[r1:T]->(b), (c)-[r2:T]->(d) RETURN a");
        let g2 = graph_of "CREATE (:A)-[:T]->(:B), (:A)-[:T]->(:B)" in
        check_rows "two rels give two assignments" 2
          (run_table g2 "MATCH (a)-[r1:T]->(b), (c)-[r2:T]->(d) RETURN a"));
    case "undirected traversal cannot reuse one edge both ways" (fun () ->
        let g = graph_of "CREATE (a:A)-[:T]->(a2:A)" in
        check_rows "no double traversal" 0
          (run_table g "MATCH (x)-[:T]-(y)-[:T]-(z) RETURN x"));
    case "the paper's loop example is finite" (fun () ->
        (* MATCH (v)-[*]->(v) on a single loop: edge-distinctness bounds
           the walk (Section 2) *)
        let g = graph_of "CREATE (v:V)-[:T]->(v2:V), (v2)-[:T]->(v)" in
        ignore g;
        let loop = graph_of "CREATE (v:V) WITH v CREATE (v)-[:T]->(v)" in
        check_rows "single loop traversed once" 1
          (run_table loop "MATCH (v)-[*]->(v) RETURN v"));
    case "variable-length ranges" (fun () ->
        check_rows "*1..2 from a" 2
          (run_table chain "MATCH (a:A)-[:T*1..2]->(b) RETURN b");
        check_rows "*2 exactly" 1 (run_table chain "MATCH (a:A)-[:T*2]->(b) RETURN b");
        check_rows "*0.. includes the node itself" 3
          (run_table chain "MATCH (a:A)-[:T*0..]->(b) RETURN b"));
    case "variable-length binds the relationship list" (fun () ->
        let t = run_table chain "MATCH (a:A)-[rs:T*2]->(c) RETURN size(rs) AS n" in
        check_value "two rels" (vint 2) (first_cell t));
    case "named paths expose nodes and relationships" (fun () ->
        let t =
          run_table chain
            "MATCH p = (a:A)-[:T]->(b)-[:T]->(c) RETURN size(nodes(p)) AS n, \
             size(relationships(p)) AS r, length(p) AS l"
        in
        let row = List.hd (Cypher_table.Table.rows t) in
        check_value "nodes" (vint 3) (Cypher_table.Record.find row "n");
        check_value "rels" (vint 2) (Cypher_table.Record.find row "r");
        check_value "length" (vint 2) (Cypher_table.Record.find row "l"));
    case "bound variables anchor subsequent matches" (fun () ->
        check_rows "anchored" 1
          (run_table chain "MATCH (a:A) MATCH (a)-[:T]->(b) RETURN b"));
    case "repeated variable within a pattern forces equality" (fun () ->
        let g = graph_of "CREATE (a:A)-[:T]->(:B)-[:T]->(a2:A)" in
        ignore g;
        let loop = graph_of "CREATE (a:A) WITH a CREATE (a)-[:T]->(:B) WITH a MATCH (b:B) CREATE (b)-[:T]->(a)" in
        check_rows "cycle found" 1
          (run_table loop "MATCH (x:A)-[:T]->(:B)-[:T]->(x) RETURN x"));
    case "property predicates may reference earlier bindings" (fun () ->
        let g = graph_of "CREATE (:A {k: 1})-[:T]->(:B {k: 1}), (:A {k: 2})-[:T]->(:B {k: 9})" in
        check_rows "correlated" 1
          (run_table g "MATCH (a:A) MATCH (b:B {k: a.k}) RETURN b"));
    case "multiple patterns form a join" (fun () ->
        check_rows "cartesian product of label matches" 1
          (run_table chain "MATCH (a:A), (c:C), (b:B) MATCH (a)-[:T]->(x) RETURN x");
        (* two B-labelled nodes → cartesian doubles the rows *)
        let g = graph_of "CREATE (:A), (:B), (:B)" in
        check_rows "cartesian" 2 (run_table g "MATCH (a:A), (b:B) RETURN a, b"));
    case "optional match pads with nulls" (fun () ->
        let t = run_table chain "MATCH (c:C) OPTIONAL MATCH (c)-[:T]->(x) RETURN c, x" in
        check_rows "one row" 1 t;
        check_value "x is null" vnull
          (Cypher_table.Record.find (List.hd (Cypher_table.Table.rows t)) "x"));
    case "optional match keeps matches when they exist" (fun () ->
        let t = run_table chain "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(x) RETURN x" in
        check_rows "one row" 1 t;
        Alcotest.(check bool) "x bound" true
          (Cypher_table.Record.find (List.hd (Cypher_table.Table.rows t)) "x" <> vnull));
    case "optional match with where" (fun () ->
        let t =
          run_table chain
            "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(x) WHERE x.k > 99 RETURN x"
        in
        check_value "filtered to null" vnull (first_cell t));
    case "where filters with ternary logic" (fun () ->
        let g = graph_of "CREATE (:P {age: 20}), (:P {age: 30}), (:P)" in
        (* the ageless node gives null > 25 = unknown, dropped *)
        check_rows "only true survives" 1
          (run_table g "MATCH (p:P) WHERE p.age > 25 RETURN p"));
    case "match on empty graph yields nothing" (fun () ->
        check_rows "empty" 0 (run_table Graph.empty "MATCH (n) RETURN n"));
    case "self-loop matching" (fun () ->
        let g = graph_of "CREATE (v:V) WITH v CREATE (v)-[:T]->(v)" in
        check_rows "directed" 1 (run_table g "MATCH (a)-[:T]->(a) RETURN a");
        check_rows "undirected self-loop matches once" 1
          (run_table g "MATCH (a)-[:T]-(b) RETURN a"));
    case "multi-pattern fold covers one, two and three patterns" (fun () ->
        (* regression for the match_patterns_rev fold whose empty-list
           arm is now a structured internal error: the guarded public
           shapes (1..3 comma patterns, shared and disjoint variables)
           must keep producing exact cross-product row counts *)
        check_rows "one" 3 (run_table chain "MATCH (n) RETURN n");
        check_rows "two disjoint" 9
          (run_table chain "MATCH (n), (m) RETURN n, m");
        check_rows "three disjoint" 27
          (run_table chain "MATCH (n), (m), (o) RETURN n");
        check_rows "three with shared variables" 2
          (run_table chain "MATCH (a)-[:T]->(b), (b), (a) RETURN a, b"));
  ]

(* --- equality buckets behind unindexed anchors ---------------------- *)

module Config = Cypher_core.Config
module Table = Cypher_table.Table
module Api = Cypher_core.Api

(* 300 :U nodes over 37 keys, plus keys that compare equal across Int
   and Float, a NaN and a string; built fresh per test so every test
   starts on a graph version no bucket has seen *)
let keyed () =
  graph_of
    "UNWIND range(0, 299) AS i CREATE (:U {k: i % 37, id: i}) WITH count(*) \
     AS n CREATE (:U {k: 5.0, id: 300}), (:U {k: 0.0 / 0.0, id: 301}), \
     (:U {k: 'x', id: 302}), (:U {id: 303}), (:V {k: 5, id: 304})"

let keys =
  List.init 40 string_of_int @ [ "5.0"; "0.0 / 0.0"; "'x'"; "null"; "[5]" ]

let unwind_match ks =
  "UNWIND [" ^ String.concat ", " ks
  ^ "] AS x MATCH (u:U {k: x}) RETURN x, u.id AS id"

let planner_off = Config.with_planner Config.Off Config.revised

let bucket_tests =
  [
    case "a driving table builds one bucket, a one-row statement none" (fun () ->
        let builds f =
          let before = Graph.eq_bucket_builds_total () in
          f ();
          Graph.eq_bucket_builds_total () - before
        in
        let g = keyed () in
        Alcotest.(check int) "one-row statement" 0
          (builds (fun () -> check_rows "rows" 9 (run_table g "MATCH (u:U {k: 3}) RETURN u")));
        let g = keyed () in
        Alcotest.(check int) "100-row UNWIND MATCH" 1
          (builds (fun () ->
               check_rows "rows" 301
                 (run_table g
                    "UNWIND range(0, 99) AS i MATCH (u:U {k: i}) RETURN u"))));
    case "N one-row runs concatenate to one N-row run, byte for byte" (fun () ->
        let g = keyed () in
        let one_row =
          List.concat_map (fun k -> Table.rows (run_table g (unwind_match [ k ]))) keys
        in
        let batch = run_table g (unwind_match keys) in
        let render rows = Table.to_string (Table.make (Table.columns batch) rows) in
        Alcotest.(check string) "one-row runs" (render one_row) (Table.to_string batch);
        Alcotest.(check string) "planner-off run" (Table.to_string batch)
          (Table.to_string (run_table ~config:planner_off g (unwind_match keys))));
    case "a bucket never outlives its graph version" (fun () ->
        let g = keyed () in
        let q = unwind_match keys in
        ignore (run_table g q);
        List.iter
          (fun update ->
            let g' = run_graph g update in
            Alcotest.(check string) update
              (Table.to_string (run_table ~config:planner_off g' q))
              (Table.to_string (run_table g' q)))
          [
            "MATCH (u:U {id: 3}) SET u.k = 4";
            "MATCH (u:U {id: 3}) REMOVE u:U";
            "MATCH (u:U {id: 3}) DETACH DELETE u";
            "MATCH (v:V) SET v:U";
          ]);
  ]

(* --- the planner-off anchor reads the same buckets ------------------ *)

let builds f =
  let before = Graph.eq_bucket_builds_total () in
  f ();
  Graph.eq_bucket_builds_total () - before

let legacy_order order = Config.with_order order Config.cypher9

let naive_tests =
  [
    case "a 100-row legacy SET builds one bucket" (fun () ->
        let g = keyed () in
        Alcotest.(check int) "one build" 1
          (builds (fun () ->
               check_rows "rows" 301
                 (run_table ~config:Config.cypher9 g
                    "UNWIND range(0, 99) AS i MATCH (u:U {k: i}) SET u.seen = i \
                     RETURN u.id"))));
    case "two statements on the same base build once" (fun () ->
        let g = keyed () in
        let q = "UNWIND range(0, 99) AS i MATCH (u:U {k: i}) SET u.seen = i" in
        Alcotest.(check int) "one build for both" 1
          (builds (fun () ->
               ignore (run_graph ~config:Config.cypher9 g q);
               ignore (run_graph ~config:Config.cypher9 g q))));
    case "planner-off rows equal a label scan's under every record order" (fun () ->
        (* the WHERE form never reads a bucket: the label scan filtered *)
        let forms body =
          let ks = "[" ^ String.concat ", " keys ^ "]" in
          ( Printf.sprintf "UNWIND %s AS x MATCH (u:U {k: x}) %s" ks body,
            Printf.sprintf "UNWIND %s AS x MATCH (u:U) WHERE u.k = x %s" ks body )
        in
        List.iter
          (fun order ->
            let config = legacy_order order in
            List.iter
              (fun body ->
                let narrowed, scanned = forms body in
                let g = keyed () in
                let o1 = run ~config g narrowed and o2 = run ~config g scanned in
                Alcotest.(check string) (narrowed ^ " table")
                  (Table.to_string o2.Api.table) (Table.to_string o1.Api.table);
                Alcotest.(check string) (narrowed ^ " graph")
                  (Graph.to_string o2.Api.graph) (Graph.to_string o1.Api.graph))
              [
                "RETURN x, u.id AS id";
                "SET u.last = x, u.n = coalesce(u.n, 0) + 1 RETURN x, u.id AS id, \
                 u.last AS last, u.n AS n";
                "DETACH DELETE u RETURN x";
              ])
          [ Config.Forward; Config.Reverse; Config.Seeded 7; Config.Seeded 2026 ]);
  ]

(* --- the planned traversal against the naive reference -------------- *)

(* two :A and three :B nodes, so the planner anchors on :A and walks
   some hops right-to-left; a self-loop and one :S relationship *)
let shapes_graph () =
  graph_of
    "CREATE (a1:A {k: 1, id: 1}), (a2:A {k: 2, id: 2}), (b1:B {k: 1, id: 3}), \
     (b2:B {k: 2, id: 4}), (b3:B {k: 1, id: 5}), (a1)-[:R]->(b1), \
     (a1)-[:R]->(b2), (a2)-[:R]->(b2), (a2)-[:R]->(b3), (b1)-[:R]->(a1), \
     (b2)-[:R]->(a2), (b3)-[:S]->(b1), (b1)-[:R]->(b1)"

(* (name, reading part, projected columns): the shapes whose variables
   a planned pattern binds with a test, not a plain write *)
let planned_shapes =
  [
    ("named path", "MATCH p = (x:B)-[:R]->(y:A)-[:R]->(z)", "p, x, y, z");
    ("named var-length path", "MATCH p = (x:B)-[rs:R*1..2]->(y:A)", "p, rs, x, y");
    ("repeated node variable", "MATCH (x)-[:R]->(y:A)-[:R]->(x)", "*");
    ( "repeated relationship variable",
      "MATCH (x:A)-[r:R]->(y)<-[r]-(z)",
      "x, r, y, z" );
    ("bound far variable", "MATCH (x:B), (y:A) MATCH (x)-[:R]->(y)", "x, y");
    ( "far variable bound earlier in the tuple",
      "MATCH (y:A), (x:B)-[:R]->(y)",
      "x, y" );
    ( "far variable bound to null",
      "MATCH (x:A) OPTIONAL MATCH (x)-[:S]->(n) MATCH (x)-[:R]->(y)-[:R]->(n)",
      "x, y, n" );
    ( "var-length step with a relationship variable",
      "MATCH (x:A)-[rs:R*1..2]->(y:B)",
      "x, rs, y" );
    ( "planned property reading a bound variable",
      "MATCH (a:A) MATCH (a)-[:R]->(b {k: a.k})",
      "a, b" );
  ]

let regimes =
  List.concat_map
    (fun (mname, mode) ->
      List.map
        (fun (bname, backend) ->
          ( mname ^ "/" ^ bname,
            Config.with_backend backend (Config.with_match_mode mode Config.revised) ))
        [ ("persistent", `Persistent); ("compact", `Compact) ])
    [ ("iso", Config.Isomorphic); ("homo", Config.Homomorphic) ]

let bag t = List.sort Cypher_table.Record.compare (Table.rows t)

let planned_tests =
  [
    case "planned shapes: planner-on rows and counts equal the naive fold's"
      (fun () ->
        let g = shapes_graph () in
        List.iter
          (fun (rname, config) ->
            List.iter
              (fun (sname, reading, cols) ->
                let name = rname ^ " " ^ sname in
                let rows_q = reading ^ " RETURN " ^ cols in
                let on = run_table ~config g rows_q in
                let off =
                  run_table ~config:(Config.with_planner Config.Off config) g rows_q
                in
                Alcotest.(check (list string)) (name ^ " columns")
                  (Table.columns off) (Table.columns on);
                Alcotest.(check (list record_testable)) (name ^ " rows")
                  (bag off) (bag on);
                check_value (name ^ " fused count")
                  (vint (Table.row_count on))
                  (first_cell
                     (run_table ~config g (reading ^ " RETURN count(*) AS n"))))
              planned_shapes)
          regimes);
    case "the shapes produce rows (the comparison is not vacuous)" (fun () ->
        let g = shapes_graph () in
        List.iter
          (fun (sname, n) ->
            let reading, cols =
              match List.find (fun (s, _, _) -> s = sname) planned_shapes with
              | _, r, c -> (r, c)
            in
            check_rows sname n (run_table g (reading ^ " RETURN " ^ cols)))
          [
            ("named path", 4);
            ("repeated node variable", 2);
            ("bound far variable", 2);
            ("far variable bound to null", 0);
            ("var-length step with a relationship variable", 5);
            ("planned property reading a bound variable", 2);
          ]);
    case "a relationship-variable conflict prunes before a far-node property"
      (fun () ->
        (* the far node's property raises when evaluated; a hop whose
           relationship conflicts with the bound [r] never reaches it *)
        let g = shapes_graph () in
        List.iter
          (fun (rname, config) ->
            List.iter
              (fun config ->
                check_rows (rname ^ " pruned") 0
                  (run_table ~config g
                     "MATCH ()-[r:S]->() MATCH (a:A {id: 1})-[r]->(b {k: 1 / 0}) \
                      RETURN b");
                let e =
                  run_err ~config g
                    "MATCH (a:A {id: 1})-[r:R]->(:B {id: 3}) MATCH \
                     (a)-[r]->(b {k: 1 / 0}) RETURN b"
                in
                Alcotest.(check bool) (rname ^ " raised") true
                  (contains_substring (Cypher_core.Errors.to_string e) "division by zero"))
              [ config; Config.with_planner Config.Off config ])
          regimes);
  ]

let suite = suite @ bucket_tests @ naive_tests @ planned_tests
