(** MERGE: legacy match-or-create, the five proposed semantics, ON
    CREATE / ON MATCH, bound variables, null handling. *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
open Cypher_paper
open Test_util
module Config = Cypher_core.Config
module Errors = Cypher_core.Errors

let legacy_tests =
  [
    case "match-or-create: creates when absent" (fun () ->
        let g = run_graph ~config:Config.cypher9 Graph.empty "MERGE (:X {v: 1})" in
        Alcotest.(check int) "created" 1 (Graph.node_count g));
    case "match-or-create: matches when present" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let g = run_graph ~config:Config.cypher9 g "MERGE (:X {v: 1})" in
        Alcotest.(check int) "no duplicate" 1 (Graph.node_count g));
    case "legacy MERGE reads its own writes across records" (fun () ->
        let g =
          run_graph ~config:Config.cypher9 Graph.empty
            "UNWIND [1, 1, 1] AS x MERGE (:X {v: x})"
        in
        Alcotest.(check int) "one node for three equal rows" 1 (Graph.node_count g));
    case "returns every match, not just one" (fun () ->
        let g = graph_of "CREATE (:X {v: 1}), (:X {v: 1})" in
        let t = run_table ~config:Config.cypher9 g "MERGE (n:X {v: 1}) RETURN n" in
        check_rows "both matches" 2 t);
    case "undirected legacy MERGE matches either direction" (fun () ->
        let g = graph_of "CREATE (:A)-[:T]->(:B)" in
        let g2 =
          run_graph ~config:Config.cypher9 g "MATCH (a:A), (b:B) MERGE (b)-[:T]-(a)"
        in
        Alcotest.(check int) "matched, no new rel" 1 (Graph.rel_count g2));
    case "undirected legacy MERGE creates left-to-right" (fun () ->
        let g = graph_of "CREATE (:A), (:B)" in
        let g2 =
          run_graph ~config:Config.cypher9 g "MATCH (a:A), (b:B) MERGE (a)-[:T]-(b)"
        in
        let r = List.hd (Graph.rels g2) in
        Alcotest.(check (list string)) "src is A" [ "A" ] (Graph.labels_of g2 r.Graph.src));
    case "ON CREATE SET fires only on creation" (fun () ->
        let g =
          run_graph ~config:Config.cypher9 Graph.empty
            "MERGE (n:X {v: 1}) ON CREATE SET n.created = true ON MATCH SET n.matched = true"
        in
        let n = List.hd (Graph.nodes g) in
        check_value "created" (vbool true) (Props.get n.Graph.n_props "created");
        check_value "not matched" vnull (Props.get n.Graph.n_props "matched"));
    case "ON MATCH SET fires only on match" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let g =
          run_graph ~config:Config.cypher9 g
            "MERGE (n:X {v: 1}) ON CREATE SET n.created = true ON MATCH SET n.matched = true"
        in
        let n = List.hd (Graph.nodes g) in
        check_value "matched" (vbool true) (Props.get n.Graph.n_props "matched");
        check_value "not created" vnull (Props.get n.Graph.n_props "created"));
  ]

(* Legacy MERGE makes a new graph version on every created row; the
   equality bucket its anchor reads is carried across them, so a batch
   builds it once *)
let legacy_bucket_tests =
  let builds f =
    let before = Graph.eq_bucket_builds_total () in
    let r = f () in
    (r, Graph.eq_bucket_builds_total () - before)
  in
  let base () = graph_of "UNWIND range(0, 199) AS i CREATE (:X {v: i})" in
  [
    case "a 100-row legacy MERGE builds one bucket" (fun () ->
        let g, n =
          builds (fun () ->
              run_graph ~config:Config.cypher9 (base ())
                "UNWIND range(0, 99) AS i MERGE (:X {v: i * 3 % 250})")
        in
        Alcotest.(check int) "one build" 1 n;
        let absent =
          List.sort_uniq compare
            (List.filter (fun v -> v >= 200) (List.init 100 (fun i -> i * 3 mod 250)))
        in
        Alcotest.(check int) "one node per absent key" (200 + List.length absent)
          (Graph.node_count g));
    case "a 100-row legacy MERGE of a path builds at most one bucket" (fun () ->
        let g, n =
          builds (fun () ->
              run_graph ~config:Config.cypher9 (base ())
                "UNWIND range(0, 99) AS i MERGE (:X {v: i % 230})-[:T]->(:Y {w: i % 7})")
        in
        Alcotest.(check int) "one build" 1 n;
        (* rows repeating an (X, Y) pair match the path their first
           occurrence created *)
        let pairs = List.sort_uniq compare (List.init 100 (fun i -> (i mod 230, i mod 7))) in
        Alcotest.(check int) "one path per distinct pair" (List.length pairs)
          (Graph.rel_count g));
  ]

(* helpers over explicit driving tables *)
let run_mode ?(config = Config.permissive) mode src (g, t) =
  Runner.run_merge_mode config ~mode src (g, t)

let revised_tests =
  [
    case "MERGE ALL matches against the input graph only" (fun () ->
        (* all three identical rows fail in the input graph: three copies *)
        let g =
          run_graph Graph.empty "UNWIND [1, 1, 1] AS x MERGE ALL (:X {v: x})"
        in
        Alcotest.(check int) "three copies" 3 (Graph.node_count g));
    case "MERGE SAME collapses identical creations" (fun () ->
        let g =
          run_graph Graph.empty "UNWIND [1, 1, 1] AS x MERGE SAME (:X {v: x})"
        in
        Alcotest.(check int) "one node" 1 (Graph.node_count g));
    case "existing nodes only collapse with themselves" (fun () ->
        (* two pre-existing equal nodes stay distinct; merged row matches
           both, creating nothing *)
        let g = graph_of "CREATE (:X {v: 1}), (:X {v: 1})" in
        let g2 = run_graph g "MERGE SAME (:X {v: 1})" in
        Alcotest.(check int) "still two" 2 (Graph.node_count g2));
    case "matched rows extend with every embedding" (fun () ->
        let g = graph_of "CREATE (:X {v: 1}), (:X {v: 1})" in
        let _, t =
          run_mode Merge_all "MERGE (n:X {v: 1})" (g, Table.unit)
        in
        check_rows "both embeddings" 2 t);
    case "result table is Tmatch plus Tcreate" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let _, t =
          Runner.run_clause Config.revised
            "MERGE ALL (n:X {v: x})"
            (g, Table.make [ "x" ]
                  [ Record.of_list [ ("x", vint 1) ];
                    Record.of_list [ ("x", vint 2) ] ])
        in
        check_rows "one match + one creation" 2 t);
    case "bound variables anchor creation" (fun () ->
        let g =
          run_graph Graph.empty
            "CREATE (p:Product) MERGE ALL (p)<-[:OFFERS]-(v:Vendor)"
        in
        Alcotest.(check int) "nodes" 2 (Graph.node_count g);
        Alcotest.(check int) "rels" 1 (Graph.rel_count g));
    case "merging on a null binding is an error" (fun () ->
        match
          run_err Graph.empty "OPTIONAL MATCH (a:Missing) MERGE ALL (a)-[:T]->(:B)"
        with
        | Errors.Update_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "null pattern properties never match but create propertyless" (fun () ->
        let g = graph_of "CREATE (:X)" in
        (* {v: null} does not match the existing propertyless node *)
        let g2 = run_graph g "MERGE SAME (:X {v: null})" in
        Alcotest.(check int) "created a second node" 2 (Graph.node_count g2);
        (* but the created node carries no v property, so a re-run
           still cannot match it: null matching is never satisfiable *)
        let g3 = run_graph g2 "MERGE SAME (:X {v: null})" in
        Alcotest.(check int) "created again" 3 (Graph.node_count g3));
    case "repeated variable inside the pattern instantiates once" (fun () ->
        let g =
          run_graph Graph.empty "MERGE ALL (a:X)-[:T]->(:Y)<-[:U]-(a)"
        in
        Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
        Alcotest.(check int) "two rels" 2 (Graph.rel_count g));
    case "tuples of patterns merge together" (fun () ->
        let g = run_graph Graph.empty "MERGE ALL (a:X), (a)-[:T]->(:Y)" in
        Alcotest.(check int) "nodes" 2 (Graph.node_count g);
        Alcotest.(check int) "rels" 1 (Graph.rel_count g));
    case "ON CREATE SET under MERGE ALL is atomic over created rows" (fun () ->
        let g =
          run_graph Graph.empty
            "UNWIND [1, 2] AS x MERGE ALL (n:X {v: x}) ON CREATE SET n.flag = true"
        in
        Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
        List.iter
          (fun (n : Graph.node) ->
            check_value "flagged" (vbool true) (Props.get n.Graph.n_props "flag"))
          (Graph.nodes g));
    case "ON CREATE SET conflicts after SAME-collapse are detected" (fun () ->
        (* both rows collapse to one node, then try to set different stamps *)
        match
          run_err Graph.empty
            "UNWIND [1, 2] AS x MERGE SAME (n:X) ON CREATE SET n.stamp = x"
        with
        | Errors.Set_conflict _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "ON MATCH SET under revised semantics" (fun () ->
        let g = graph_of "CREATE (:X {v: 1})" in
        let g =
          run_graph g "MERGE ALL (n:X {v: 1}) ON MATCH SET n.seen = true"
        in
        let n = List.hd (Graph.nodes g) in
        check_value "seen" (vbool true) (Props.get n.Graph.n_props "seen"));
    case "plain MERGE is rejected by the revised dialect" (fun () ->
        match run_err Graph.empty "MERGE (:X)" with
        | Errors.Validation_error _ -> ()
        | e -> Alcotest.failf "wrong error: %s" (Errors.to_string e));
    case "quotient rewrites table references" (fun () ->
        let _, t =
          Runner.run_clause Config.revised "MERGE SAME (n:X {v: v})"
            (Graph.empty,
             Table.make [ "v" ]
               [ Record.of_list [ ("v", vint 1) ];
                 Record.of_list [ ("v", vint 1) ] ])
        in
        match column t "n" with
        | [ Value.Node a; Value.Node b ] ->
            Alcotest.(check int) "same representative" a b
        | _ -> Alcotest.fail "expected two node bindings");
    case "GROUPING ignores irrelevant columns" (fun () ->
        (* same cid/pid but different date: one instance (Example 5) *)
        let table =
          Table.make [ "cid"; "date" ]
            [
              Record.of_list [ ("cid", vint 1); ("date", vstr "a") ];
              Record.of_list [ ("cid", vint 1); ("date", vstr "b") ];
            ]
        in
        let g, _ =
          run_mode Merge_grouping "MERGE (:U {id: cid})" (Graph.empty, table)
        in
        Alcotest.(check int) "one node" 1 (Graph.node_count g));
    case "GROUPING distinguishes bound-variable anchors" (fun () ->
        let base = graph_of "CREATE (:P {k: 1}), (:P {k: 2})" in
        let nodes = Graph.node_ids base in
        let table =
          Table.make [ "p" ]
            (List.map (fun id -> Record.of_list [ ("p", Value.Node id) ]) nodes)
        in
        let g, _ =
          run_mode Merge_grouping "MERGE (p)-[:T]->(:X)" (base, table)
        in
        (* two groups: one :X per anchored p *)
        Alcotest.(check int) "two created" 4 (Graph.node_count g);
        Alcotest.(check int) "two rels" 2 (Graph.rel_count g));
  ]

let figure_tests =
  [
    case "Figure 6: legacy order dependence" (fun () ->
        let run order =
          fst
            (Runner.run_merge_mode (Config.with_order order Config.cypher9)
               ~mode:Merge_legacy Fixtures.example3_merge
               (Fixtures.example3_graph, Fixtures.example3_table))
        in
        Alcotest.check graph_iso_testable "forward is 6b" Fixtures.figure6b
          (run Config.Forward);
        Alcotest.check graph_iso_testable "reverse is 6a" Fixtures.figure6a
          (run Config.Reverse));
    case "Figure 7: Example 5 under all five semantics" (fun () ->
        let run mode =
          fst
            (run_mode mode Fixtures.example5_merge (Graph.empty, Fixtures.example5_table))
        in
        Alcotest.check graph_iso_testable "ALL = 7a" Fixtures.figure7a (run Merge_all);
        Alcotest.check graph_iso_testable "GROUPING = 7b" Fixtures.figure7b
          (run Merge_grouping);
        Alcotest.check graph_iso_testable "WEAK = 7c" Fixtures.figure7c
          (run Merge_weak_collapse);
        Alcotest.check graph_iso_testable "COLLAPSE = 7c" Fixtures.figure7c
          (run Merge_collapse);
        Alcotest.check graph_iso_testable "SAME = 7c" Fixtures.figure7c
          (run Merge_same));
    case "Figure 8: Example 6 position sensitivity" (fun () ->
        let run mode =
          fst
            (run_mode mode Fixtures.example6_merge (Graph.empty, Fixtures.example6_table))
        in
        Alcotest.check graph_iso_testable "WEAK = 8a" Fixtures.figure8a
          (run Merge_weak_collapse);
        Alcotest.check graph_iso_testable "COLLAPSE = 8b" Fixtures.figure8b
          (run Merge_collapse);
        Alcotest.check graph_iso_testable "SAME = 8b" Fixtures.figure8b
          (run Merge_same));
    case "Figure 9: Example 7 relationship collapse" (fun () ->
        let run mode =
          fst
            (run_mode mode Fixtures.example7_merge
               (Fixtures.example7_graph, Fixtures.example7_table))
        in
        Alcotest.check graph_iso_testable "COLLAPSE = 9a" Fixtures.figure9a
          (run Merge_collapse);
        Alcotest.check graph_iso_testable "SAME = 9b" Fixtures.figure9b
          (run Merge_same));
  ]

(* --- the in-place quotient against a rebuild ------------------------- *)

(* [name_elements patterns] names every anonymous element, so the MERGE
   ALL result table binds each created entity to its position *)
let name_elements (patterns : pattern list) =
  let name v fresh = match v with Some _ -> v | None -> Some fresh in
  List.mapi
    (fun pi (p : pattern) ->
      {
        p with
        pat_start =
          { p.pat_start with np_var = name p.pat_start.np_var (Printf.sprintf "q%d_n0" pi) };
        pat_steps =
          List.mapi
            (fun j ((rp : rel_pat), (np : node_pat)) ->
              ( { rp with rp_var = name rp.rp_var (Printf.sprintf "q%d_r%d" pi j) },
                { np with np_var = name np.np_var (Printf.sprintf "q%d_n%d" pi (j + 1)) } ))
            p.pat_steps;
      })
    patterns

(* MERGE ALL's output for [src] over [(base, table)] with the entities it
   created, tagged with their pattern positions as the engine tags them:
   the input of every collapsing quotient *)
let merge_all_output src (base, table) =
  let patterns =
    match Runner.parse_clause src with
    | Merge { patterns; _ } -> name_elements patterns
    | _ -> Alcotest.fail "not a MERGE clause"
  in
  let g, t =
    Cypher_core.Merge.run Config.permissive ~stats:Cypher_core.Stats.null (base, table)
      ~mode:Merge_all ~patterns ~on_create:[] ~on_match:[]
  in
  let node_pos =
    List.concat
      (List.mapi
         (fun pi (p : pattern) ->
           (Option.get p.pat_start.np_var, (pi, 0))
           :: List.mapi
                (fun j ((_ : rel_pat), (np : node_pat)) -> (Option.get np.np_var, (pi, j + 1)))
                p.pat_steps)
         patterns)
  in
  let rel_pos =
    List.concat
      (List.mapi
         (fun pi (p : pattern) ->
           List.mapi (fun j ((rp : rel_pat), _) -> (Option.get rp.rp_var, (pi, j))) p.pat_steps)
         patterns)
  in
  let created pos_of =
    List.sort_uniq compare
      (List.concat_map
         (fun row ->
           List.filter_map
             (fun (v, pos) ->
               match Record.find_opt row v with
               | Some (Value.Node id | Value.Rel id) when id >= Graph.next_id base ->
                   Some (id, pos)
               | _ -> None)
             pos_of)
         (Table.rows t))
  in
  (g, created node_pos, created rel_pos)

let quotient_flags =
  [ ("WEAK", true, true); ("COLLAPSE", false, true); ("SAME", false, false) ]

(* the reference quotient: filter and re-point the entity lists, then
   rebuild the whole graph *)
let rebuilt_quotient g (q : Cypher_core.Quotient.result) =
  let module Q = Cypher_core.Quotient in
  Graph.rebuild
    ~prop_indexes:(Graph.prop_index_keys g)
    ~next_id:(Graph.next_id g) ~tombs:(Graph.tombstones g)
    (List.filter (fun (n : Graph.node) -> q.Q.node_map n.Graph.n_id = n.Graph.n_id) (Graph.nodes g))
    (List.filter_map
       (fun (r : Graph.rel) ->
         if q.Q.rel_map r.Graph.r_id <> r.Graph.r_id then None
         else Some { r with Graph.src = q.Q.node_map r.Graph.src; tgt = q.Q.node_map r.Graph.tgt })
       (Graph.rels g))

(* every collapsing quotient of one MERGE ALL output, in place and
   rebuilt; returns how many entities the quotients removed *)
let check_quotients name src input =
  let g, new_nodes, new_rels = merge_all_output src input in
  List.fold_left
    (fun removed (mode, node_pos_matters, rel_pos_matters) ->
      let q =
        Cypher_core.Quotient.apply g ~new_nodes ~new_rels ~node_pos_matters ~rel_pos_matters
      in
      let g' = q.Cypher_core.Quotient.graph in
      check_same_graph (name ^ " " ^ mode) (rebuilt_quotient g q) g';
      removed + Graph.node_count g - Graph.node_count g' + Graph.rel_count g - Graph.rel_count g')
    0 quotient_flags

(* a small random base over the Example-5/6 vocabulary and a driving
   table whose keys collide with it and with each other *)
let random_batch seed =
  let rng = Random.State.make [| seed |] in
  let pick n = Random.State.int rng n in
  (* about half of the keys 0..3 get a [label] node *)
  let some label g =
    List.fold_left
      (fun (g, acc) k ->
        if pick 2 = 0 then (g, acc)
        else
          let id, g =
            Graph.create_node ~labels:[ label ] ~props:(Props.of_list [ ("id", vint k) ]) g
          in
          (g, id :: acc))
      (g, []) [ 0; 1; 2; 3 ]
  in
  let g = if pick 2 = 0 then Graph.add_prop_index ~label:"User" ~key:"id" Graph.empty else Graph.empty in
  let g, users = some "User" g in
  let g, products = some "Product" g in
  let g =
    match (users, products) with
    | [], _ | _, [] -> g
    | _ ->
        List.fold_left
          (fun g _ ->
            let u = List.nth users (pick (List.length users)) in
            let p = List.nth products (pick (List.length products)) in
            let ty = if pick 2 = 0 then "ORDERED" else "OFFERS" in
            snd (Graph.create_rel ~src:u ~tgt:p ~r_type:ty g))
          g [ 1; 2; 3 ]
  in
  let key () = if pick 6 = 0 then vnull else vint (pick 6) in
  let table =
    Table.make [ "cid"; "pid"; "sid" ]
      (List.init (1 + pick 12) (fun _ ->
           Record.of_list [ ("cid", vint (pick 6)); ("pid", key ()); ("sid", vint (pick 6)) ]))
  in
  (g, table)

let quotient_tests =
  [
    case "in-place quotient equals the rebuild on figures E8, E9, E10" (fun () ->
        let e8 =
          check_quotients "E8" Fixtures.example5_merge (Graph.empty, Fixtures.example5_table)
        in
        let e9 =
          check_quotients "E9" Fixtures.example6_merge (Graph.empty, Fixtures.example6_table)
        in
        let e10 =
          check_quotients "E10" Fixtures.example7_merge
            (Fixtures.example7_graph, Fixtures.example7_table)
        in
        Alcotest.(check bool) "every figure collapses something" true
          (e8 > 0 && e9 > 0 && e10 > 0));
    case "in-place quotient equals the rebuild on random batches" (fun () ->
        let removed =
          List.fold_left
            (fun removed seed ->
              let input = random_batch seed in
              removed
              + check_quotients (Printf.sprintf "seed %d, E8 shape" seed)
                  Fixtures.example5_merge input
              + check_quotients (Printf.sprintf "seed %d, E9 shape" seed)
                  "MERGE (:User {id: cid})-[:ORDERED]->(:Product {id: pid})<-[:OFFERS]-(:User {id: sid})"
                  input)
            0 (List.init 60 Fun.id)
        in
        Alcotest.(check bool) "the batches collapse something" true (removed > 0));
  ]

let suite = legacy_tests @ legacy_bucket_tests @ revised_tests @ figure_tests @ quotient_tests
