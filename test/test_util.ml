(** Shared helpers for the test suite. *)

open Cypher_graph
open Cypher_table
open Cypher_core

let value_testable : Value.t Alcotest.testable =
  Alcotest.testable Value.pp Value.equal_strict

let tri_testable : Tri.t Alcotest.testable = Alcotest.testable Tri.pp Tri.equal

let record_testable : Record.t Alcotest.testable =
  Alcotest.testable Record.pp Record.equal

let graph_iso_testable : Graph.t Alcotest.testable =
  Alcotest.testable Graph.pp Iso.isomorphic

let case name f = Alcotest.test_case name `Quick f

(** [contains_substring s sub] is true when [sub] occurs in [s]. *)
let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(** Runs a statement, failing the test on error. *)
let run ?(config = Config.revised) graph src =
  match Api.run_string ~config graph src with
  | Ok o -> o
  | Error e -> Alcotest.failf "query failed: %s\nquery: %s" (Errors.to_string e) src

let run_graph ?config graph src = (run ?config graph src).Api.graph
let run_table ?config graph src = (run ?config graph src).Api.table

(** Runs a statement and asserts it fails, returning the error. *)
let run_err ?(config = Config.revised) graph src : Errors.t =
  match Api.run_string ~config graph src with
  | Ok _ -> Alcotest.failf "query unexpectedly succeeded: %s" src
  | Error e -> e

(** Builds a graph from Cypher CREATE statements. *)
let graph_of src = run_graph Graph.empty src

(** The single values of a one-column result table. *)
let column t name = List.map (fun r -> Record.find r name) (Table.rows t)

let first_cell t =
  match Table.rows t with
  | row :: _ -> (
      match Table.columns t with
      | c :: _ -> Record.find row c
      | [] -> Alcotest.fail "result table has no columns")
  | [] -> Alcotest.fail "result table has no rows"

(** Asserts the table has exactly the given number of rows. *)
let check_rows name n t = Alcotest.(check int) name n (Table.row_count t)

let check_value name expected actual =
  Alcotest.check value_testable name expected actual

let vint n = Value.Int n
let vstr s = Value.String s
let vbool b = Value.Bool b
let vnull = Value.Null
let vlist l = Value.List l

(** [golden file] is the lookup from key to content over a golden-output
    file of blocks, each a [=== KEY] header line followed by the block's
    content lines.  The file is read on the first lookup; an unknown key
    fails the test. *)
let golden file =
  let blocks =
    lazy
      (let tbl = Hashtbl.create 64 in
       let flush key body =
         Option.iter
           (fun k -> Hashtbl.replace tbl k (String.concat "\n" (List.rev body)))
           key
       in
       let rec go key body = function
         | [] | [ "" ] -> flush key body
         | l :: rest when String.starts_with ~prefix:"=== " l ->
             flush key body;
             go (Some (String.sub l 4 (String.length l - 4))) [] rest
         | l :: rest -> go key (l :: body) rest
       in
       go None []
         (String.split_on_char '\n'
            (In_channel.with_open_text file In_channel.input_all));
       tbl)
  in
  fun key ->
    match Hashtbl.find_opt (Lazy.force blocks) key with
    | Some v -> v
    | None -> Alcotest.failf "%s has no block %S" file key

(** [check_same_graph name expected actual] asserts that two graphs
    agree on everything a reader can observe, ids included: the printed
    entities, the id supply, the tombstones, plain and typed adjacency,
    the label, type and property indexes, the maintained counts and the
    dangling set. *)
let check_same_graph name (expected : Graph.t) (actual : Graph.t) =
  let chk what = Alcotest.(check string) (name ^ ": " ^ what) in
  let ids s = String.concat "," (List.map string_of_int (Cypher_util.Maps.Iset.elements s)) in
  chk "entities" (Graph.to_string expected) (Graph.to_string actual);
  Alcotest.(check int) (name ^ ": next_id") (Graph.next_id expected) (Graph.next_id actual);
  Alcotest.(check (list (pair int bool)))
    (name ^ ": tombstones")
    (List.map (fun (id, t) -> (id, t = Graph.Tomb_node))
       (Cypher_util.Maps.Imap.bindings (Graph.tombstones expected)))
    (List.map (fun (id, t) -> (id, t = Graph.Tomb_node))
       (Cypher_util.Maps.Imap.bindings (Graph.tombstones actual)));
  Alcotest.(check int) (name ^ ": node count") (Graph.node_count expected) (Graph.node_count actual);
  Alcotest.(check (list (pair string int)))
    (name ^ ": label histogram") (Graph.label_histogram expected) (Graph.label_histogram actual);
  Alcotest.(check (list (pair string int)))
    (name ^ ": type histogram") (Graph.type_histogram expected) (Graph.type_histogram actual);
  List.iter
    (fun (l, n) ->
      Alcotest.(check int) (name ^ ": label count " ^ l) n (Graph.label_count actual l);
      Alcotest.(check int) (name ^ ": label count = bucket size " ^ l)
        (List.length (Graph.nodes_with_label actual l)) (Graph.label_count actual l);
      Alcotest.(check (list int)) (name ^ ": label bucket " ^ l)
        (Graph.nodes_with_label expected l) (Graph.nodes_with_label actual l))
    (Graph.label_histogram expected);
  let types = List.map fst (Graph.type_histogram expected) in
  List.iter
    (fun id ->
      let adj what f = chk (Printf.sprintf "%s of %d" what id) (ids (f expected)) (ids (f actual)) in
      adj "out" (fun g -> Graph.out_rel_ids g id);
      adj "in" (fun g -> Graph.in_rel_ids g id);
      List.iter
        (fun ty ->
          adj ("out:" ^ ty) (fun g -> Graph.out_rel_ids_typed g id ty);
          adj ("in:" ^ ty) (fun g -> Graph.in_rel_ids_typed g id ty))
        types)
    (Graph.node_ids expected);
  Alcotest.(check (list (pair string string)))
    (name ^ ": index keys") (Graph.prop_index_keys expected) (Graph.prop_index_keys actual);
  List.iter
    (fun (label, key) ->
      List.iter
        (fun (n : Graph.node) ->
          let v = Props.get n.Graph.n_props key in
          Alcotest.(check (option (list int)))
            (Fmt.str "%s: index %s.%s = %a" name label key Value.pp v)
            (Graph.nodes_with_prop expected ~label ~key v)
            (Graph.nodes_with_prop actual ~label ~key v))
        (Graph.nodes expected))
    (Graph.prop_index_keys expected);
  Alcotest.(check (list int)) (name ^ ": dangling")
    (List.map (fun (r : Graph.rel) -> r.Graph.r_id) (Graph.dangling_rels expected))
    (List.map (fun (r : Graph.rel) -> r.Graph.r_id) (Graph.dangling_rels actual))
