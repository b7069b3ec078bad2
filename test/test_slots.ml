(** The slot-compiled row pipeline: {!Cypher_table.Slots} layout
    compilation, array-row {!Cypher_table.Record} semantics, the bounded
    memo of the shared unit layout, and pinned query output on the scope
    shapes that stress a fixed layout — shadowing through WITH, OPTIONAL
    MATCH null padding, FOREACH's nested scope, UNWIND, natural-order
    expansion — on both graph backends. *)

open Cypher_graph
open Cypher_table
module Config = Cypher_core.Config
module Api = Cypher_core.Api
module Session = Cypher_core.Session
module Matcher = Cypher_matcher.Matcher

(* ------------------------------------------------------------------ *)
(* Slots layouts                                                      *)
(* ------------------------------------------------------------------ *)

let slots_tests =
  [
    Test_util.case "of_names dedups to first occurrence" (fun () ->
        let tab = Slots.of_names [ "a"; "b"; "a"; "c"; "b" ] in
        Alcotest.(check int) "width" 3 (Slots.width tab);
        Alcotest.(check (list string))
          "names in slot order" [ "a"; "b"; "c" ] (Slots.names tab);
        Alcotest.(check int) "a" 0 (Slots.index tab "a");
        Alcotest.(check int) "b" 1 (Slots.index tab "b");
        Alcotest.(check int) "c" 2 (Slots.index tab "c");
        Alcotest.(check int) "unknown" (-1) (Slots.index tab "zzz"));
    Test_util.case "extend appends and is memoized" (fun () ->
        let tab = Slots.of_names [ "a"; "b" ] in
        let tab' = Slots.extend tab "c" in
        Alcotest.(check int) "new slot at the end" 2 (Slots.index tab' "c");
        Alcotest.(check int) "old slots stable" 0 (Slots.index tab' "a");
        Alcotest.(check int) "base unchanged" (-1) (Slots.index tab "c");
        Alcotest.(check bool)
          "same extension, same table" true
          (Slots.extend tab "c" == tab'));
    Test_util.case "the shared root layout never memoizes" (fun () ->
        let t1 = Slots.extend Slots.root "x" in
        Alcotest.(check (list string)) "extension" [ "x" ] (Slots.names t1);
        Alcotest.(check int) "root memo stays empty" 0
          (List.length Slots.root.Slots.exts);
        let empty = Slots.of_names [] in
        Alcotest.(check bool)
          "a per-table empty layout memoizes" true
          (Slots.extend empty "x" == Slots.extend empty "x"));
  ]

(* ------------------------------------------------------------------ *)
(* Array-row semantics                                                *)
(* ------------------------------------------------------------------ *)

let bindings = [ ("x", Value.Int 1); ("y", Value.String "s") ]
let layout r = fst (Record.slots_view r)

let record_tests =
  [
    Test_util.case "seeded row hides unbound slots" (fun () ->
        let a =
          Record.seed (Slots.of_names [ "z"; "y"; "x" ]) (Record.of_list bindings)
        in
        Alcotest.(check bool) "equal to the row it was seeded from" true
          (Record.equal (Record.of_list bindings) a);
        Alcotest.(check (list string))
          "keys ascend, absent slot invisible" [ "x"; "y" ] (Record.keys a);
        Alcotest.(check bool) "unbound layout name reads as absent" true
          (Record.find_opt a "z" = None);
        Alcotest.(check bool) "not a member" false (Record.mem a "z");
        Alcotest.(check bool) "find pads with null" true
          (Record.find a "z" = Value.Null);
        Alcotest.(check bool) "an explicit null is bound" true
          (Record.mem (Record.bind a "z" Value.Null) "z"));
    Test_util.case "of_list: later bindings shadow earlier ones" (fun () ->
        let r = Record.of_list [ ("x", Value.Int 1); ("x", Value.Int 2) ] in
        Alcotest.(check (list string)) "one key" [ "x" ] (Record.keys r);
        Alcotest.check Test_util.value_testable "last wins" (Value.Int 2)
          (Record.find r "x"));
    Test_util.case "slot_bind: store, idempotent rebind, conflict" (fun () ->
        let tab = Slots.of_names [ "x"; "y" ] in
        let r = Record.seed tab (Record.of_list [ ("x", Value.Int 1) ]) in
        let i = Slots.index tab "y" in
        (match Record.slot_bind r i (Value.Int 7) with
        | None -> Alcotest.fail "empty slot must bind"
        | Some r' -> (
            Alcotest.(check bool) "bound" true
              (Record.find_opt r' "y" = Some (Value.Int 7));
            Alcotest.(check bool) "base row untouched" true
              (Record.find_opt r "y" = None);
            match Record.slot_bind r' i (Value.Int 7) with
            | Some r'' ->
                Alcotest.(check bool) "equal rebind is the same row" true
                  (r'' == r')
            | None -> Alcotest.fail "equal rebind must succeed"));
        Alcotest.(check bool) "conflicting rebind fails" true
          (Record.slot_bind
             (Record.seed tab (Record.of_list bindings))
             0 (Value.Int 99)
          = None));
    Test_util.case "bind outside the layout extends it, memoized" (fun () ->
        let r = Record.seed (Slots.of_names [ "x" ]) (Record.of_list bindings) in
        let r1 = Record.bind r "w" (Value.Bool true) in
        let r2 = Record.bind r "w" (Value.Bool false) in
        Alcotest.(check bool) "new binding visible" true
          (Record.find_opt r1 "w" = Some (Value.Bool true));
        Alcotest.(check (list string)) "keys" [ "w"; "x" ] (Record.keys r1);
        Alcotest.(check bool) "rows share the extended layout" true
          (layout r1 == layout r2));
    Test_util.case "widen adds unbound slots once" (fun () ->
        let r = Record.of_list bindings in
        Alcotest.(check bool) "nothing missing: the row itself" true
          (Record.widen r [ "y"; "x" ] == r);
        let w = Record.widen Record.empty [ "a"; "b" ] in
        Alcotest.(check (list string)) "still unbound" [] (Record.keys w);
        Alcotest.(check (list string))
          "layout" [ "a"; "b" ] (Slots.names (layout w));
        let b1 = Record.bind w "a" (Value.Int 1) in
        let b2 = Record.bind w "b" (Value.Int 2) in
        Alcotest.(check bool) "binds stay in the widened layout" true
          (layout b1 == layout w && layout b2 == layout w));
    Test_util.case "compile_find probes one layout, reads others by name"
      (fun () ->
        let tab = Slots.of_names [ "x"; "y" ] in
        let a = Record.seed tab (Record.of_list bindings) in
        let other = Record.of_list [ ("q", Value.Null); ("x", Value.Int 42) ] in
        let find = Record.compile_find a "x" in
        Alcotest.(check bool) "same-layout row" true
          (find a = Some (Value.Int 1));
        Alcotest.(check bool) "other layout" true
          (find other = Some (Value.Int 42));
        let find_z = Record.compile_find a "zzz" in
        Alcotest.(check bool) "name outside the layout" true (find_z a = None));
    Test_util.case "projection adopts, pads and re-lays rows" (fun () ->
        let names = [ "x"; "y" ] in
        let same = Record.seed (Slots.of_names names) (Record.of_list bindings) in
        let p = Record.projection names [ same ] in
        Alcotest.(check bool) "a full row over the target is adopted" true
          (p same == same);
        let partial =
          Record.seed (Slots.of_names names) (Record.of_list [ ("x", Value.Int 1) ])
        in
        Alcotest.(check (list (pair string Test_util.value_testable)))
          "absent slots padded with null"
          [ ("x", Value.Int 1); ("y", Value.Null) ]
          (Record.bindings (p partial));
        let wide =
          Record.of_list [ ("y", Value.Int 2); ("w", Value.Int 0); ("x", Value.Int 3) ]
        in
        let r = p wide in
        Alcotest.(check (list (pair string Test_util.value_testable)))
          "extra binding dropped"
          [ ("x", Value.Int 3); ("y", Value.Int 2) ]
          (Record.bindings r);
        Alcotest.(check bool) "re-laid over the batch layout" true
          (layout r == layout same));
    Test_util.case "map_values rewrites bound values only" (fun () ->
        let r =
          Record.seed (Slots.of_names [ "x"; "u" ]) (Record.of_list [ ("x", Value.Int 1) ])
        in
        let r' = Record.map_values (fun _ -> Value.Null) r in
        Alcotest.(check (list (pair string Test_util.value_testable)))
          "bindings" [ ("x", Value.Null) ] (Record.bindings r'));
    Test_util.case "equal and compare ignore slot order" (fun () ->
        let xy = Record.of_list bindings in
        let yx = Record.of_list (List.rev bindings) in
        Alcotest.(check bool) "layouts differ" false
          (Slots.names (layout xy) = Slots.names (layout yx));
        Alcotest.(check bool) "equal" true (Record.equal xy yx);
        Alcotest.(check int) "compare" 0 (Record.compare xy yx);
        Alcotest.(check int) "compare, flipped" 0 (Record.compare yx xy);
        let seeded = Record.seed (Slots.of_names [ "w"; "y"; "x" ]) yx in
        Alcotest.(check bool) "equal across an absent slot" true
          (Record.equal xy seeded);
        Alcotest.(check int) "compare across an absent slot" 0
          (Record.compare seeded xy));
    Test_util.case "compare orders binding sequences" (fun () ->
        let r l = Record.of_list l in
        let x1 = r [ ("x", Value.Int 1) ] and x2 = r [ ("x", Value.Int 2) ] in
        let x1y = r [ ("y", Value.Int 0); ("x", Value.Int 1) ] in
        Alcotest.(check bool) "value order" true (Record.compare x1 x2 < 0);
        Alcotest.(check bool) "a prefix sorts first" true
          (Record.compare x1 x1y < 0 && Record.compare x1y x1 > 0);
        Alcotest.(check bool) "names before values" true
          (Record.compare (r [ ("a", Value.Int 9) ]) x1 < 0);
        Alcotest.(check bool) "not equal" false (Record.equal x1 x1y));
  ]

(* ------------------------------------------------------------------ *)
(* Set semantics over rows laid out in different slot orders          *)
(* ------------------------------------------------------------------ *)

let cells t =
  List.map
    (fun r -> List.map (fun c -> Value.to_string (Record.find r c)) (Table.columns t))
    (Table.rows t)

let set_tests =
  [
    Test_util.case "Table.distinct and union ignore slot order" (fun () ->
        let xy = Record.of_list bindings in
        let yx = Record.of_list (List.rev bindings) in
        let t1 = Table.make [ "x"; "y" ] [ xy ] in
        let t2 = Table.make [ "y"; "x" ] [ yx ] in
        Alcotest.(check int) "union" 1 (Table.row_count (Table.union t1 t2));
        Alcotest.(check int) "distinct over mixed layouts" 1
          (Table.row_count (Table.distinct (Table.bag_union t1 t2))));
    Test_util.case "UNION of branches whose inputs bind in different orders"
      (fun () ->
        let t =
          Test_util.run_table Graph.empty
            "WITH 1 AS a, 2 AS b RETURN a, b UNION WITH 2 AS b, 1 AS a RETURN \
             a, b UNION WITH 4 AS b, 3 AS a RETURN a, b"
        in
        Alcotest.(check (list string)) "columns" [ "a"; "b" ] (Table.columns t);
        Alcotest.(check (list (list string)))
          "rows" [ [ "1"; "2" ]; [ "3"; "4" ] ] (cells t));
    Test_util.case "Table.distinct over rows laid out in different slot orders"
      (fun () ->
        let xy = Record.of_list bindings in
        let yx = Record.of_list (List.rev bindings) in
        let second = ref false in
        let t =
          Table.map
            (fun r ->
              let r = if !second then yx else r in
              second := true;
              r)
            (Table.make [ "x"; "y" ] [ xy; xy ])
        in
        Alcotest.(check bool) "the two rows differ in layout" true
          (match Table.rows t with
          | [ r1; r2 ] -> layout r1 != layout r2
          | _ -> false);
        Alcotest.(check int) "one distinct row" 1
          (Table.row_count (Table.distinct t));
        Alcotest.(check bool) "still bag-equal to itself reordered" true
          (Table.equal_as_bags t (Table.reverse t)));
    Test_util.case "DISTINCT over MERGE's matched and created rows" (fun () ->
        (* Tmatch rows are laid out by the matcher, Tcreate rows by the
           instantiation, in pattern order *)
        let g = Test_util.graph_of "CREATE (:K {k: 1})-[:R]->(:V {v: 1})" in
        let t =
          Test_util.run_table g
            "UNWIND [1, 2, 1, 2] AS i MERGE ALL (b:V {v: i})<-[r:R]-(a:K {k: \
             i}) RETURN DISTINCT a.k AS k, b.v AS v ORDER BY k"
        in
        Alcotest.(check (list (list string)))
          "rows" [ [ "1"; "1" ]; [ "2"; "2" ] ] (cells t));
  ]

(* ------------------------------------------------------------------ *)
(* The shared unit layout stays bounded                               *)
(* ------------------------------------------------------------------ *)

let memo_tests =
  [
    Test_util.case "unit-row binds never grow a process-global memo"
      (fun () ->
        let s = Session.create (Test_util.graph_of "CREATE (:F)") in
        let run src =
          match Session.run s src with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: %s" src (Cypher_core.Errors.to_string e)
        in
        for i = 1 to 3000 do
          let v = Printf.sprintf "v%d" i in
          (* a fresh name bound from the unit row: by CREATE, by a list
             comprehension, by FOREACH and by a pattern comprehension *)
          run (Printf.sprintf "CREATE (%s)" v);
          if i mod 10 = 0 then begin
            run (Printf.sprintf "RETURN [%s IN [1, 2] | %s] AS l" v v);
            run (Printf.sprintf "FOREACH (%s IN [1] | CREATE ())" v);
            run (Printf.sprintf "MATCH (f:F) RETURN size([(f)<-[]-(%s) | %s]) AS n" v v)
          end
        done;
        let unit_row = List.hd (Table.rows Table.unit) in
        Alcotest.(check bool) "the unit row is Record.empty" true
          (layout unit_row == layout Record.empty);
        Alcotest.(check int) "root memo stays empty" 0
          (List.length (layout Record.empty).Slots.exts));
    Test_util.case "matching from the unit row compiles one layout" (fun () ->
        let g = Test_util.graph_of "CREATE (:P), (:P), (:P)" in
        let patterns =
          Cypher_ast.Ast.
            [
              {
                pat_var = None;
                pat_start = { np_var = Some "n"; np_labels = [ "P" ]; np_props = [] };
                pat_steps = [];
              };
            ]
        in
        let rows =
          Matcher.match_patterns
            (Cypher_core.Runtime.ctx Config.revised g Record.empty)
            patterns
        in
        Alcotest.(check int) "rows" 3 (List.length rows);
        let l0 = layout (List.hd rows) in
        Alcotest.(check bool) "every row shares one layout" true
          (List.for_all (fun r -> layout r == l0) rows));
  ]

(* ------------------------------------------------------------------ *)
(* Wide rows: a snapshot's CREATE binds one variable per node         *)
(* ------------------------------------------------------------------ *)

let wide_create n =
  "CREATE "
  ^ String.concat ", " (List.init n (fun i -> Printf.sprintf "(n%d {i: %d})" i i))
  ^ ", "
  ^ String.concat ", "
      (List.init n (fun i -> Printf.sprintf "(n%d)-[:K]->(n%d)" i ((i + 1) mod n)))

let wide_tests =
  [
    Test_util.case "a wide CREATE costs near-linear time in its width"
      (fun () ->
        let time n =
          let src = wide_create n in
          let once () =
            let t0 = Unix.gettimeofday () in
            let g = Test_util.run_graph Graph.empty src in
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.(check int) "rels" n (Graph.rel_count g);
            dt
          in
          min (once ()) (min (once ()) (once ()))
        in
        let small = time 500 and large = time 8000 in
        (* 16x the width: near-linear is ~16-20x; a copying bind or a
           linear lookup per variable is quadratic, ~256x *)
        if large > 60. *. small then
          Alcotest.failf "500 vars: %.3fs, 8000 vars: %.3fs" small large);
  ]

(* ------------------------------------------------------------------ *)
(* Pinned output of the scope shapes, on both backends                *)
(* ------------------------------------------------------------------ *)

let setup =
  [
    "CREATE (:A {id: 1, x: 10})-[:R]->(:B {id: 2, x: 20})";
    "CREATE (:A {id: 3, x: 30})-[:R]->(:B {id: 4, x: 40})";
    "CREATE (:C {id: 5})";
  ]

let scope_queries =
  [
    (* natural-order expansion (the inverted-enumeration fast path on
       the compact backend) *)
    "MATCH (a:A)-[r:R]->(b:B) RETURN a.id AS aid, b.id AS bid";
    "MATCH (a)-[r]-(b) RETURN a.id AS aid, b.id AS bid";
    (* WITH renaming and shadowing: the layout changes at each clause *)
    "MATCH (a:A) WITH a.id AS n WITH n AS m, n * 2 AS n RETURN m, n";
    "MATCH (a:A) WITH a.x AS x MATCH (b:B) WHERE b.x > x RETURN x, b.id AS \
     bid";
    (* OPTIONAL MATCH pads pattern variables with nulls in-layout *)
    "MATCH (a:A) OPTIONAL MATCH (a)-[:R]->(z:Missing) RETURN a.id AS aid, z";
    "OPTIONAL MATCH (c:C)-[:R]->(z) RETURN c.id AS cid, z";
    (* UNWIND drives the row through expansion and filtering *)
    "UNWIND [3, 1, 2] AS i WITH i WHERE i > 1 RETURN i ORDER BY i";
    "MATCH (a:A) UNWIND [1, 2] AS k RETURN a.id AS aid, k";
    (* FOREACH opens a nested scope over the driving row *)
    "MATCH (a:A) FOREACH (i IN [1, 2] | CREATE (:T {k: i, src: a.id}))";
    "MATCH (a:A)-[:R]->(b:B) SET b.seen = a.id RETURN count(*) AS n";
  ]

let run config g src =
  match Api.run_string ~config g src with
  | Ok o -> (o.Api.graph, o.Api.table)
  | Error e ->
      Alcotest.failf "query failed: %s" (Cypher_core.Errors.to_string e)

let golden_checks =
  let expected = Test_util.golden "rows_golden.expected" in
  List.concat_map
    (fun (blabel, backend) ->
      let config = Config.with_backend backend Config.revised in
      List.map
        (fun src ->
          Test_util.case (Printf.sprintf "pinned output (%s): %s" blabel src)
            (fun () ->
              let base =
                List.fold_left (fun g src -> fst (run config g src)) Graph.empty setup
              in
              let g, t = run config base src in
              Alcotest.(check string) "table bytes"
                (expected ("table scope: " ^ src))
                (Table.to_string t);
              Alcotest.(check string) "graph bytes"
                (expected ("graph scope: " ^ src))
                (Graph.to_string g)))
        scope_queries)
    [ ("persistent", `Persistent); ("compact", `Compact) ]

let suite =
  slots_tests @ record_tests @ set_tests @ memo_tests @ wide_tests
  @ golden_checks
