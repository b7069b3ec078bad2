(** The property-graph store: construction, adjacency, deletion flavours,
    tombstones and the dangling-relationship diagnostics. *)

open Cypher_graph
open Test_util

let two_nodes_one_rel () =
  let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
  let b, g = Graph.create_node ~labels:[ "B" ] g in
  let r, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
  (g, a, b, r)

let suite =
  [
    case "create_node assigns fresh ids" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        Alcotest.(check bool) "distinct" true (a <> b);
        Alcotest.(check int) "count" 2 (Graph.node_count g));
    case "labels and properties are stored" (fun () ->
        let props = Props.of_list [ ("x", vint 7) ] in
        let a, g = Graph.create_node ~labels:[ "L1"; "L2" ] ~props Graph.empty in
        Alcotest.(check (list string)) "labels" [ "L1"; "L2" ] (Graph.labels_of g a);
        check_value "prop" (vint 7) (Props.get (Graph.node_props_of g a) "x"));
    case "create_rel wires adjacency" (fun () ->
        let g, a, b, r = two_nodes_one_rel () in
        Alcotest.(check int) "out degree a" 1 (List.length (Graph.out_rels g a));
        Alcotest.(check int) "in degree b" 1 (List.length (Graph.in_rels g b));
        Alcotest.(check int) "rel id" r (List.hd (Graph.out_rels g a)).Graph.r_id);
    case "create_rel rejects missing endpoints" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        Alcotest.check_raises "missing target"
          (Invalid_argument "Graph.create_rel: no target node 99") (fun () ->
            ignore (Graph.create_rel ~src:a ~tgt:99 ~r_type:"T" g)));
    case "strict remove_node refuses attached relationships" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        match Graph.remove_node g a with
        | Ok _ -> Alcotest.fail "should have refused"
        | Error attached ->
            Alcotest.(check (list int)) "attached" [ r ]
              (List.map (fun (x : Graph.rel) -> x.Graph.r_id) attached));
    case "strict remove_node succeeds after removing the relationship" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        let g = Graph.remove_rel g r in
        match Graph.remove_node g a with
        | Ok g ->
            Alcotest.(check int) "one node left" 1 (Graph.node_count g);
            Alcotest.(check bool) "wellformed" true (Graph.is_wellformed g)
        | Error _ -> Alcotest.fail "should have succeeded");
    case "force removal leaves dangling relationships" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        let g = Graph.remove_node_force g a in
        Alcotest.(check bool) "not wellformed" false (Graph.is_wellformed g);
        Alcotest.(check (list int)) "dangling" [ r ]
          (List.map (fun (x : Graph.rel) -> x.Graph.r_id) (Graph.dangling_rels g)));
    case "detach removal deletes incident relationships" (fun () ->
        let g, a, _, _ = two_nodes_one_rel () in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check int) "nodes" 1 (Graph.node_count g);
        Alcotest.(check int) "rels" 0 (Graph.rel_count g);
        Alcotest.(check bool) "wellformed" true (Graph.is_wellformed g));
    case "deleted entities leave tombstones" (fun () ->
        let g, a, _, r = two_nodes_one_rel () in
        let g = Graph.remove_rel g r in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check bool) "node tomb" true (Graph.is_tombstoned g a);
        Alcotest.(check bool) "rel tomb" true (Graph.is_tombstoned g r);
        Alcotest.(check (list string)) "labels read as empty" []
          (Graph.labels_of g a));
    case "ids are never reused after deletion" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let g = Graph.remove_node_detach g a in
        let b, _ = Graph.create_node g in
        Alcotest.(check bool) "fresh id" true (b <> a));
    case "property update flavours" (fun () ->
        let a, g = Graph.create_node ~props:(Props.of_list [ ("x", vint 1); ("y", vint 2) ]) Graph.empty in
        let g = Graph.set_node_prop g a "x" (vint 10) in
        check_value "set" (vint 10) (Props.get (Graph.node_props_of g a) "x");
        let g = Graph.merge_node_props g a (Props.of_list [ ("z", vint 3) ]) in
        check_value "merged keeps y" (vint 2) (Props.get (Graph.node_props_of g a) "y");
        check_value "merged adds z" (vint 3) (Props.get (Graph.node_props_of g a) "z");
        let g = Graph.replace_node_props g a (Props.of_list [ ("only", vint 9) ]) in
        Alcotest.(check (list string)) "replace" [ "only" ]
          (Props.keys (Graph.node_props_of g a)));
    case "label add and remove" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let g = Graph.add_label g a "B" in
        Alcotest.(check (list string)) "added" [ "A"; "B" ] (Graph.labels_of g a);
        let g = Graph.remove_label g a "A" in
        Alcotest.(check (list string)) "removed" [ "B" ] (Graph.labels_of g a));
    case "setting a property to null removes it" (fun () ->
        let a, g = Graph.create_node ~props:(Props.of_list [ ("x", vint 1) ]) Graph.empty in
        let g = Graph.set_node_prop g a "x" vnull in
        Alcotest.(check bool) "gone" true
          (Props.is_empty (Graph.node_props_of g a)));
    case "rebuild reconstructs adjacency" (fun () ->
        let g, a, b, _ = two_nodes_one_rel () in
        let g2 =
          Graph.rebuild ~next_id:(Graph.next_id g) ~tombs:(Graph.tombstones g)
            (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check int) "out degree preserved" 1
          (List.length (Graph.out_rels g2 a));
        Alcotest.(check int) "in degree preserved" 1
          (List.length (Graph.in_rels g2 b));
        Alcotest.check graph_iso_testable "isomorphic" g g2);
    case "label index follows creation and label updates" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let b, g = Graph.create_node ~labels:[ "A"; "B" ] g in
        Alcotest.(check (list int)) "A" [ a; b ] (Graph.nodes_with_label g "A");
        Alcotest.(check (list int)) "B" [ b ] (Graph.nodes_with_label g "B");
        let g = Graph.add_label g a "B" in
        Alcotest.(check (list int)) "B grows" [ a; b ] (Graph.nodes_with_label g "B");
        let g = Graph.remove_label g b "A" in
        Alcotest.(check (list int)) "A shrinks" [ a ] (Graph.nodes_with_label g "A");
        Alcotest.(check (list int)) "unknown label" []
          (Graph.nodes_with_label g "Zzz"));
    case "label index follows deletion and rebuild" (fun () ->
        let a, g = Graph.create_node ~labels:[ "A" ] Graph.empty in
        let _b, g = Graph.create_node ~labels:[ "A" ] g in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check int) "one left" 1
          (List.length (Graph.nodes_with_label g "A"));
        let g2 =
          Graph.rebuild ~next_id:(Graph.next_id g) ~tombs:(Graph.tombstones g)
            (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check int) "index rebuilt" 1
          (List.length (Graph.nodes_with_label g2 "A")));
    case "self-loop counts once in incident rels" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let _, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"SELF" g in
        Alcotest.(check int) "incident" 1 (List.length (Graph.incident_rels g a));
        Alcotest.(check int) "degree" 1 (Graph.degree g a));
  ]

let histogram_tests =
  [
    case "label and type histograms" (fun () ->
        let g =
          graph_of
            "CREATE (:A), (:A:B), (:B)-[:T]->(:C), (:C)-[:T]->(:A), \
             (:X)-[:U]->(:X)"
        in
        Alcotest.(check (list (pair string int)))
          "labels"
          [ ("A", 3); ("B", 2); ("C", 2); ("X", 2) ]
          (Graph.label_histogram g);
        Alcotest.(check (list (pair string int)))
          "types" [ ("T", 2); ("U", 1) ] (Graph.type_histogram g));
    case "histograms of the empty graph are empty" (fun () ->
        Alcotest.(check (list (pair string int))) "labels" []
          (Graph.label_histogram Graph.empty);
        Alcotest.(check (list (pair string int))) "types" []
          (Graph.type_histogram Graph.empty));
  ]

let rel_ids rels = List.map (fun (r : Graph.rel) -> r.Graph.r_id) rels

let typed_adjacency_tests =
  [
    case "typed adjacency buckets by relationship type" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let c, g = Graph.create_node g in
        let t1, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let _u, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"U" g in
        let t2, g = Graph.create_rel ~src:a ~tgt:c ~r_type:"T" g in
        Alcotest.(check (list int))
          "out T in id order" [ t1; t2 ]
          (rel_ids (Graph.out_rels_typed g a "T"));
        Alcotest.(check (list int))
          "in T at b" [ t1 ]
          (rel_ids (Graph.in_rels_typed g b "T"));
        Alcotest.(check int) "out degree T" 2 (Graph.out_degree_typed g a "T");
        Alcotest.(check int) "out degree U" 1 (Graph.out_degree_typed g a "U");
        Alcotest.(check (list int))
          "unknown type is empty" []
          (rel_ids (Graph.out_rels_typed g a "Z")));
    case "typed self-loop is incident once" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let r, g = Graph.create_rel ~src:a ~tgt:a ~r_type:"SELF" g in
        Alcotest.(check (list int))
          "incident" [ r ]
          (rel_ids (Graph.incident_rels_typed g a "SELF")));
    case "typed adjacency follows relationship removal" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let t1, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let t2, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let g = Graph.remove_rel g t1 in
        Alcotest.(check (list int))
          "t1 gone" [ t2 ]
          (rel_ids (Graph.out_rels_typed g a "T"));
        Alcotest.(check int) "type index count" 1 (Graph.type_count g "T"));
    case "typed adjacency follows detaching node removal" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let c, g = Graph.create_node g in
        let _, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let t2, g = Graph.create_rel ~src:a ~tgt:c ~r_type:"T" g in
        let g = Graph.remove_node_detach g b in
        Alcotest.(check (list int))
          "only the c edge" [ t2 ]
          (rel_ids (Graph.out_rels_typed g a "T"));
        Alcotest.(check (list int))
          "b bucket empty" []
          (rel_ids (Graph.in_rels_typed g b "T")));
    case "rebuild reconstructs the typed adjacency" (fun () ->
        let a, g = Graph.create_node Graph.empty in
        let b, g = Graph.create_node g in
        let t, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
        let g' =
          Graph.rebuild ~next_id:(Graph.next_id g)
            ~tombs:(Graph.tombstones g) (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check (list int))
          "same bucket" [ t ]
          (rel_ids (Graph.out_rels_typed g' a "T"));
        Alcotest.(check int) "type count" 1 (Graph.type_count g' "T"));
  ]

let prop_index_tests =
  let user k v g =
    let id, g =
      Graph.create_node ~labels:[ "User" ]
        ~props:(Props.of_list [ (k, v) ])
        g
    in
    (id, g)
  in
  [
    case "add_prop_index covers pre-existing nodes" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let b, g = user "id" (vint 7) g in
        let _, g = user "id" (vint 8) g in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check bool)
          "registered" true
          (Graph.has_prop_index g ~label:"User" ~key:"id");
        Alcotest.(check (option (list int)))
          "bucket 7" (Some [ a; b ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        Alcotest.(check (option int))
          "cardinality" (Some 2)
          (Graph.count_with_prop g ~label:"User" ~key:"id" (vint 7)));
    case "unregistered lookups answer None, null answers empty" (fun () ->
        let _, g = user "id" (vint 7) Graph.empty in
        Alcotest.(check (option (list int)))
          "no index" None
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check (option (list int)))
          "null never matches" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" Value.Null));
    case "index equates numerically equal Int and Float keys" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check (option (list int)))
          "float probe" (Some [ a ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (Value.Float 7.0)));
    case "index follows SET and REMOVE of the property" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        let g = Graph.set_node_prop g a "id" (vint 9) in
        Alcotest.(check (option (list int)))
          "old bucket empty" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        Alcotest.(check (option (list int)))
          "new bucket" (Some [ a ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 9));
        let g = Graph.remove_node_prop g a "id" in
        Alcotest.(check (option (list int)))
          "removed" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 9)));
    case "index follows label addition and removal" (fun () ->
        let a, g = Graph.create_node ~props:(Props.of_list [ ("id", vint 7) ]) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        Alcotest.(check (option (list int)))
          "unlabelled node absent" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        let g = Graph.add_label g a "User" in
        Alcotest.(check (option (list int)))
          "joins on add_label" (Some [ a ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7));
        let g = Graph.remove_label g a "User" in
        Alcotest.(check (option (list int)))
          "leaves on remove_label" (Some [])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7)));
    case "index follows node deletion" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let b, g = user "id" (vint 7) g in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        let g = Graph.remove_node_detach g a in
        Alcotest.(check (option (list int)))
          "survivor only" (Some [ b ])
          (Graph.nodes_with_prop g ~label:"User" ~key:"id" (vint 7)));
    case "rebuild re-registers the requested indexes" (fun () ->
        let a, g = user "id" (vint 7) Graph.empty in
        let g = Graph.add_prop_index ~label:"User" ~key:"id" g in
        let g' =
          Graph.rebuild
            ~prop_indexes:(Graph.prop_index_keys g)
            ~next_id:(Graph.next_id g) ~tombs:(Graph.tombstones g)
            (Graph.nodes g) (Graph.rels g)
        in
        Alcotest.(check (list (pair string string)))
          "keys survive" [ ("User", "id") ] (Graph.prop_index_keys g');
        Alcotest.(check (option (list int)))
          "bucket rebuilt" (Some [ a ])
          (Graph.nodes_with_prop g' ~label:"User" ~key:"id" (vint 7)));
  ]

(* --- equality buckets ---------------------------------------------- *)

let eq_values =
  [
    vint 1; Value.Float 1.0; Value.Float Float.nan; vnull; vlist [ vnull ];
    vlist [ vint 1; vnull ]; vlist [ Value.Float 1.0; vnull ]; vstr "a";
    vstr "zz"; vint 2; Value.Float 2.0;
  ]

(* one :L node per stored value (plus one without the key), and an :M
   node that carries a matching value under the wrong label *)
let eq_graph () =
  let add labels props g = snd (Graph.create_node ~labels ~props g) in
  let stored =
    [
      vint 1; Value.Float 1.0; Value.Float Float.nan; vlist [ vnull ];
      vlist [ vint 1; vnull ]; vstr "a"; vstr "b"; vint 2;
    ]
  in
  let g =
    List.fold_left
      (fun g v -> add [ "L" ] (Props.of_list [ ("v", v) ]) g)
      Graph.empty stored
  in
  let g = add [ "L" ] Props.empty g in
  add [ "M" ] (Props.of_list [ ("v", vint 1) ]) g

(* the filtered label scan: what a registered index would serve *)
let scan g ~label ~key v =
  if Value.is_null v then []
  else
    List.filter
      (fun id ->
        match Props.get (Graph.node_props_of g id) key with
        | Value.Null -> false
        | have -> Value.compare_total have v = 0)
      (Graph.nodes_with_label g label)

(* probes until the bucket serves (at most twice: the first probe of a
   pair on a version may decline); every answer served must be the scan *)
let served name g ~label ~key v =
  let expected = scan g ~label ~key v in
  let check = function
    | Some ids ->
        Alcotest.(check (list int)) (Fmt.str "%s: %a" name Value.pp v) expected ids;
        true
    | None -> false
  in
  if not (check (Graph.nodes_with_eq g ~label ~key v)) then
    if not (check (Graph.nodes_with_eq g ~label ~key v)) then
      Alcotest.failf "%s: the second probe of a version must serve" name

let eq_bucket_tests =
  [
    case "equality bucket equals the filtered label scan" (fun () ->
        let g = eq_graph () in
        let indexed = Graph.add_prop_index ~label:"L" ~key:"v" g in
        List.iter
          (fun v ->
            served "bucket" g ~label:"L" ~key:"v" v;
            Alcotest.(check (option (list int)))
              (Fmt.str "registered index agrees at %a" Value.pp v)
              (Some (scan g ~label:"L" ~key:"v" v))
              (Graph.nodes_with_prop indexed ~label:"L" ~key:"v" v))
          eq_values;
        (* Int and Float that compare equal share a bucket; NaN finds
           only NaN under the total order *)
        Alcotest.(check (option (list int)))
          "1 and 1.0" (Graph.nodes_with_eq g ~label:"L" ~key:"v" (vint 1))
          (Graph.nodes_with_eq g ~label:"L" ~key:"v" (Value.Float 1.0));
        Alcotest.(check (option (list int)))
          "null never matches" (Some [])
          (Graph.nodes_with_eq g ~label:"L" ~key:"v" vnull));
    case "first probe scans, second builds, later probes reuse" (fun () ->
        let g = eq_graph () in
        let builds0 = Graph.eq_bucket_builds_total () in
        let builds () = Graph.eq_bucket_builds_total () - builds0 in
        Alcotest.(check (option (list int)))
          "first probe declines" None
          (Graph.nodes_with_eq g ~label:"L" ~key:"v" (vint 1));
        Alcotest.(check int) "no build yet" 0 (builds ());
        served "second" g ~label:"L" ~key:"v" (vint 1);
        Alcotest.(check int) "one build" 1 (builds ());
        List.iter (served "later" g ~label:"L" ~key:"v") eq_values;
        Alcotest.(check int) "still one build" 1 (builds ());
        (* a relationship update keeps the node map, so the bucket *)
        let a = List.hd (Graph.nodes_with_label g "L") in
        let _, g' = Graph.create_rel ~src:a ~tgt:a ~r_type:"T" g in
        served "rel update" g' ~label:"L" ~key:"v" (vint 1);
        Alcotest.(check int) "no rebuild after a rel update" 1 (builds ()));
    case "a stale bucket is never served" (fun () ->
        let g = eq_graph () in
        served "warm" g ~label:"L" ~key:"v" (vint 1);
        served "warm" g ~label:"L" ~key:"v" (vint 1);
        let a, b =
          match scan g ~label:"L" ~key:"v" (vint 1) with
          | a :: b :: _ -> (a, b)
          | _ -> Alcotest.fail "fixture needs two nodes equal to 1"
        in
        let after_set = Graph.set_node_prop g a "v" (vint 2) in
        let after_remove = Graph.remove_label g b "L" in
        let after_delete = Graph.remove_node_detach g a in
        List.iter
          (fun (name, g') ->
            List.iter (served name g' ~label:"L" ~key:"v") eq_values;
            (* and the original version, probed after another one took
               the cell, answers for itself *)
            List.iter (served (name ^ ", original") g ~label:"L" ~key:"v") eq_values)
          [ ("SET", after_set); ("REMOVE label", after_remove); ("DELETE", after_delete) ];
        Alcotest.(check bool) "SET moved a to 2" true
          (List.mem a (scan after_set ~label:"L" ~key:"v" (vint 2))));
  ]

(* --- equality buckets carried across node updates ------------------- *)

(* builds the (L, v) bucket on [g]'s version: the second probe builds *)
let warm g =
  ignore (Graph.nodes_with_eq g ~label:"L" ~key:"v" (vint 1));
  ignore (Graph.nodes_with_eq g ~label:"L" ~key:"v" (vint 1))

(* [g'] holds a carried bucket: every probe serves on the version's
   first probe, equal to the scan, and no build is paid for it *)
let carried name g' =
  let builds0 = Graph.eq_bucket_builds_total () in
  Alcotest.(check (list (pair string string)))
    (name ^ ": carried bucket equals a fresh build") [] (Graph.stale_eq_buckets g');
  List.iter
    (fun v ->
      Alcotest.(check (option (list int)))
        (Fmt.str "%s: served at %a" name Value.pp v)
        (Some (scan g' ~label:"L" ~key:"v" v))
        (Graph.nodes_with_eq g' ~label:"L" ~key:"v" v))
    eq_values;
  Alcotest.(check int) (name ^ ": no build") 0 (Graph.eq_bucket_builds_total () - builds0)

(* the :L nodes equal to 1, and the :M node carrying v = 1 *)
let eq_fixture () =
  let g = eq_graph () in
  let a, b =
    match scan g ~label:"L" ~key:"v" (vint 1) with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "fixture needs two nodes equal to 1"
  in
  let m = List.hd (Graph.nodes_with_label g "M") in
  let _, g = Graph.create_rel ~src:a ~tgt:b ~r_type:"T" g in
  (g, a, b, m)

let carry_tests =
  [
    case "a carried bucket equals a rebuilt one after every node update" (fun () ->
        let g, a, b, m = eq_fixture () in
        List.iter
          (fun (name, update) ->
            warm g;
            let g' = update g in
            carried name g';
            Alcotest.(check (list (pair string string)))
              (name ^ ": the base keeps its bucket") [] (Graph.stale_eq_buckets g))
          [
            ( "create",
              fun g ->
                snd
                  (Graph.create_node ~labels:[ "L" ]
                     ~props:(Props.of_list [ ("v", vint 1) ])
                     g) );
            ("SET of the key", fun g -> Graph.set_node_prop g a "v" (vint 2));
            ("SET of the key to an equal Float", fun g ->
                Graph.set_node_prop g a "v" (Value.Float 1.0));
            ("SET to null", fun g -> Graph.set_node_prop g a "v" vnull);
            ("SET of another key", fun g -> Graph.set_node_prop g a "w" (vint 9));
            ("label add", fun g -> Graph.add_label g m "L");
            ("label remove", fun g -> Graph.remove_label g a "L");
            ("DETACH delete", fun g -> Graph.remove_node_detach g a);
            ("force delete", fun g -> Graph.remove_node_force g a);
            ("collapse", fun g -> Graph.collapse g ~nodes:[ (b, a) ] ~rels:[]);
          ]);
    case "buckets carry along a chain of updates" (fun () ->
        let g, a, b, m = eq_fixture () in
        warm g;
        (* the tip slot holds the newest version only: each step is
           probed before the next one replaces it *)
        ignore
          (List.fold_left
             (fun g (name, update) ->
               let g' = update g in
               carried name g';
               g')
             g
             [
               ("SET", fun g -> Graph.set_node_prop g a "v" (vint 2));
               ("label add", fun g -> Graph.add_label g m "L");
               ( "create",
                 fun g ->
                   snd
                     (Graph.create_node ~labels:[ "L" ]
                        ~props:(Props.of_list [ ("v", vstr "a") ])
                        g) );
               ("DETACH delete", fun g -> Graph.remove_node_detach g b);
             ]));
    case "the root slot survives a carry" (fun () ->
        let g, a, _, _ = eq_fixture () in
        let builds0 = Graph.eq_bucket_builds_total () in
        warm g;
        let g' = Graph.set_node_prop g a "v" (vint 2) in
        carried "tip" g';
        (* a second statement on the same base reads the root slot *)
        List.iter (served "root" g ~label:"L" ~key:"v") eq_values;
        Alcotest.(check int) "one build for both versions" 1
          (Graph.eq_bucket_builds_total () - builds0));
    case "the empty graph holds no entry, so nothing carries from it" (fun () ->
        (* every graph built from [Graph.empty] starts from the same empty
           node map: an entry for it would reach all of them *)
        Alcotest.(check (option (list int))) "empty label bucket" (Some [])
          (Graph.nodes_with_eq Graph.empty ~label:"Lz" ~key:"v" (vint 1));
        Alcotest.(check (option (list int))) "again" (Some [])
          (Graph.nodes_with_eq Graph.empty ~label:"Lz" ~key:"v" (vint 1));
        let _, g =
          Graph.create_node ~labels:[ "Lz" ] ~props:(Props.of_list [ ("v", vint 1) ]) Graph.empty
        in
        Alcotest.(check (option (list int))) "first probe of a new graph declines" None
          (Graph.nodes_with_eq g ~label:"Lz" ~key:"v" (vint 1));
        (* nor is a version left with no nodes carried to *)
        ignore (Graph.remove_node_detach g (List.hd (Graph.node_ids g)));
        let _, fresh =
          Graph.create_node ~labels:[ "Lz" ] ~props:(Props.of_list [ ("v", vint 1) ]) Graph.empty
        in
        Alcotest.(check (option (list int))) "a graph built from empty starts cold" None
          (Graph.nodes_with_eq fresh ~label:"Lz" ~key:"v" (vint 1)));
    case "a probed pair carries: its next probe builds" (fun () ->
        let g, a, _, _ = eq_fixture () in
        let builds0 = Graph.eq_bucket_builds_total () in
        Alcotest.(check (option (list int))) "first probe declines" None
          (Graph.nodes_with_eq g ~label:"L" ~key:"v" (vint 1));
        let g' = Graph.set_node_prop g a "v" (vint 2) in
        served "second probe, on the carried version" g' ~label:"L" ~key:"v" (vint 2);
        Alcotest.(check int) "built on the second probe" 1
          (Graph.eq_bucket_builds_total () - builds0);
        carried "later" g');
  ]

(* --- in-place quotient --------------------------------------------- *)

let collapse_tests =
  [
    case "collapse equals rebuild of the surviving entities" (fun () ->
        let node labels props g = Graph.create_node ~labels ~props:(Props.of_list props) g in
        let g = Graph.add_prop_index ~label:"A" ~key:"k" Graph.empty in
        let gone, g = node [ "A" ] [] g in
        let g = Graph.remove_node_detach g gone in
        let p, g = node [ "A" ] [ ("k", vint 1) ] g in
        let c1, g = node [ "A" ] [ ("k", vint 1) ] g in
        let c2, g = node [ "A" ] [ ("k", vint 1) ] g in
        let c3, g = node [ "A"; "B" ] [ ("k", vint 2) ] g in
        let rel src tgt ty g = Graph.create_rel ~src ~tgt ~r_type:ty g in
        let _, g = rel p c1 "T" g in
        let r2, g = rel c2 p "T" g in
        let _, g = rel c1 c2 "U" g in
        let _, g = rel c3 c3 "T" g in
        let _, g = rel c2 c3 "U" g in
        let merged = [ (c2, c1); (c3, c1) ] and dropped = [ r2 ] in
        let rep id = Option.value ~default:id (List.assoc_opt id merged) in
        let expected =
          Graph.rebuild
            ~prop_indexes:(Graph.prop_index_keys g)
            ~next_id:(Graph.next_id g) ~tombs:(Graph.tombstones g)
            (List.filter
               (fun (n : Graph.node) -> not (List.mem_assoc n.Graph.n_id merged))
               (Graph.nodes g))
            (List.filter_map
               (fun (r : Graph.rel) ->
                 if List.mem r.Graph.r_id dropped then None
                 else Some { r with Graph.src = rep r.Graph.src; tgt = rep r.Graph.tgt })
               (Graph.rels g))
        in
        let actual = Graph.collapse g ~nodes:merged ~rels:dropped in
        check_same_graph "collapse" expected actual;
        Alcotest.(check bool) "no tombstone for merged entities" false
          (Graph.is_tombstoned actual c2 || Graph.is_tombstoned actual r2));
  ]

let suite =
  suite @ histogram_tests @ typed_adjacency_tests @ prop_index_tests
  @ eq_bucket_tests @ carry_tests @ collapse_tests
