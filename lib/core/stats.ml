(** Statement update counters — see stats.mli.

    Why first-touch originals instead of bumping a counter per
    operation: the statement may set the same property several times,
    set it back to its original value, or delete the entity it just
    decorated.  Raw operation counts then disagree with the input/output
    graph diff, and the whole point of these counters is that the
    [counters] fuzz oracle can check them *against* that diff.  So the
    collector records identities (created/deleted entity sets with
    cancellation, first-touch original property/label values) and
    {!finalize} nets everything out against the result graph. *)

open Cypher_util.Maps
open Cypher_graph

type t = {
  nodes_created : int;
  nodes_deleted : int;
  rels_created : int;
  rels_deleted : int;
  props_set : int;
  props_removed : int;
  labels_added : int;
  labels_removed : int;
  merge_matched : int;
  merge_created : int;
  rows : int;
}

let empty =
  {
    nodes_created = 0;
    nodes_deleted = 0;
    rels_created = 0;
    rels_deleted = 0;
    props_set = 0;
    props_removed = 0;
    labels_added = 0;
    labels_removed = 0;
    merge_matched = 0;
    merge_created = 0;
    rows = 0;
  }

let contains_updates s =
  s.nodes_created <> 0 || s.nodes_deleted <> 0 || s.rels_created <> 0
  || s.rels_deleted <> 0 || s.props_set <> 0 || s.props_removed <> 0
  || s.labels_added <> 0 || s.labels_removed <> 0

let equal (a : t) (b : t) = a = b

let footer s =
  let counted verb n singular plural =
    if n = 0 then None
    else Some (Printf.sprintf "%s %d %s" verb n (if n = 1 then singular else plural))
  in
  let parts =
    List.filter_map Fun.id
      [
        counted "created" s.nodes_created "node" "nodes";
        counted "created" s.rels_created "relationship" "relationships";
        counted "set" s.props_set "property" "properties";
        counted "added" s.labels_added "label" "labels";
        counted "deleted" s.nodes_deleted "node" "nodes";
        counted "deleted" s.rels_deleted "relationship" "relationships";
        counted "removed" s.props_removed "property" "properties";
        counted "removed" s.labels_removed "label" "labels";
      ]
  in
  match parts with
  | [] -> "(no changes)"
  | first :: rest ->
      (* only the first clause is capitalised *)
      String.concat ", " (String.capitalize_ascii first :: rest)

let pp ppf s =
  Fmt.pf ppf
    "@[<h>+%dn -%dn +%dr -%dr props +%d -%d labels +%d -%d merge %dm/%dc \
     rows %d@]"
    s.nodes_created s.nodes_deleted s.rels_created s.rels_deleted s.props_set
    s.props_removed s.labels_added s.labels_removed s.merge_matched
    s.merge_created s.rows

let to_string s = Fmt.str "%a" pp s

(* ------------------------------------------------------------------ *)
(* Collection                                                         *)
(* ------------------------------------------------------------------ *)

type target = Tnode of int | Trel of int

type collector = {
  c_enabled : bool;
  mutable created_nodes : Iset.t;  (** created and still alive *)
  mutable created_nodes_ever : Iset.t;  (** created at any point *)
  mutable created_rels : Iset.t;
  mutable created_rels_ever : Iset.t;
  mutable deleted_nodes : Iset.t;  (** pre-existing, deleted *)
  mutable deleted_rels : Iset.t;
  prop_origs : (target * string, Value.t) Hashtbl.t;
  label_origs : (int * string, bool) Hashtbl.t;
  mutable c_merge_matched : int;
  mutable c_merge_created : int;
  mutable c_rows : int;
}

let make_with enabled =
  {
    c_enabled = enabled;
    created_nodes = Iset.empty;
    created_nodes_ever = Iset.empty;
    created_rels = Iset.empty;
    created_rels_ever = Iset.empty;
    deleted_nodes = Iset.empty;
    deleted_rels = Iset.empty;
    prop_origs = Hashtbl.create 16;
    label_origs = Hashtbl.create 8;
    c_merge_matched = 0;
    c_merge_created = 0;
    c_rows = 0;
  }

let make () = make_with true
let null = make_with false
let enabled c = c.c_enabled

let node_created c id =
  if c.c_enabled then begin
    c.created_nodes <- Iset.add id c.created_nodes;
    c.created_nodes_ever <- Iset.add id c.created_nodes_ever
  end

let rel_created c id =
  if c.c_enabled then begin
    c.created_rels <- Iset.add id c.created_rels;
    c.created_rels_ever <- Iset.add id c.created_rels_ever
  end

(* deleting an entity the statement created cancels the creation; only
   entities that pre-existed the statement count as deleted *)
let node_deleted c id =
  if c.c_enabled then
    if Iset.mem id c.created_nodes_ever then
      c.created_nodes <- Iset.remove id c.created_nodes
    else c.deleted_nodes <- Iset.add id c.deleted_nodes

let rel_deleted c id =
  if c.c_enabled then
    if Iset.mem id c.created_rels_ever then
      c.created_rels <- Iset.remove id c.created_rels
    else c.deleted_rels <- Iset.add id c.deleted_rels

let created_target c = function
  | Tnode id -> Iset.mem id c.created_nodes_ever
  | Trel id -> Iset.mem id c.created_rels_ever

let prop_touched c target key ~orig =
  if c.c_enabled && not (created_target c target) then
    let k = (target, key) in
    if not (Hashtbl.mem c.prop_origs k) then Hashtbl.add c.prop_origs k orig

let label_touched c id label ~had =
  if c.c_enabled && not (Iset.mem id c.created_nodes_ever) then
    let k = (id, label) in
    if not (Hashtbl.mem c.label_origs k) then Hashtbl.add c.label_origs k had

let merge_matched c n = if c.c_enabled then c.c_merge_matched <- c.c_merge_matched + n
let merge_created c n = if c.c_enabled then c.c_merge_created <- c.c_merge_created + n

let remap_created c ~node_map ~rel_map =
  if c.c_enabled then begin
    let map f s = Iset.fold (fun id acc -> Iset.add (f id) acc) s Iset.empty in
    c.created_nodes <- map node_map c.created_nodes;
    c.created_nodes_ever <- map node_map c.created_nodes_ever;
    c.created_rels <- map rel_map c.created_rels;
    c.created_rels_ever <- map rel_map c.created_rels_ever
  end

let set_rows c n = if c.c_enabled then c.c_rows <- n

(* ------------------------------------------------------------------ *)
(* Finalisation against the result graph                              *)
(* ------------------------------------------------------------------ *)

let finalize c (g : Graph.t) : t =
  if not c.c_enabled then empty
  else begin
    (* survivors of the created sets (the quotient remap already folded
       collapsed ids onto representatives; cancellation already removed
       created-then-deleted ids) *)
    let live_nodes = Iset.filter (Graph.has_node g) c.created_nodes in
    let live_rels = Iset.filter (Graph.has_rel g) c.created_rels in
    let props_set = ref 0 and props_removed = ref 0 in
    let labels_added = ref 0 and labels_removed = ref 0 in
    (* created entities contribute their final decoration wholesale *)
    Iset.iter
      (fun id ->
        props_set := !props_set + List.length (Props.bindings (Graph.node_props_of g id));
        labels_added := !labels_added + List.length (Graph.labels_of g id))
      live_nodes;
    Iset.iter
      (fun id ->
        props_set := !props_set + List.length (Props.bindings (Graph.rel_props_of g id)))
      live_rels;
    (* touched properties on pre-existing entities: net change only *)
    Hashtbl.iter
      (fun (target, key) orig ->
        let alive, current =
          match target with
          | Tnode id ->
              if Graph.has_node g id then (true, Props.get (Graph.node_props_of g id) key)
              else (false, Value.Null)
          | Trel id ->
              if Graph.has_rel g id then (true, Props.get (Graph.rel_props_of g id) key)
              else (false, Value.Null)
        in
        (* a deleted entity's properties vanish with it — counted (or
           not) under the entity's deletion, not as property changes *)
        if alive && not (Value.identical orig current) then
          if Value.is_null current then incr props_removed
          else incr props_set)
      c.prop_origs;
    Hashtbl.iter
      (fun (id, label) had ->
        if Graph.has_node g id then
          let has = Graph.has_label g id label in
          if has && not had then incr labels_added
          else if had && not has then incr labels_removed)
      c.label_origs;
    {
      nodes_created = Iset.cardinal live_nodes;
      nodes_deleted = Iset.cardinal c.deleted_nodes;
      rels_created = Iset.cardinal live_rels;
      rels_deleted = Iset.cardinal c.deleted_rels;
      props_set = !props_set;
      props_removed = !props_removed;
      labels_added = !labels_added;
      labels_removed = !labels_removed;
      merge_matched = c.c_merge_matched;
      merge_created = c.c_merge_created;
      rows = c.c_rows;
    }
  end

(* ------------------------------------------------------------------ *)
(* Profiling                                                          *)
(* ------------------------------------------------------------------ *)

type profile_entry = { pf_clause : string; pf_rows : int; pf_ns : int64 }

let pp_profile ppf entries =
  let width =
    List.fold_left (fun w e -> max w (String.length e.pf_clause)) 6 entries
  in
  Fmt.pf ppf "@[<v>%-*s %8s %10s@," width "clause" "rows" "time";
  Fmt.pf ppf "%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf e ->
         Fmt.pf ppf "%-*s %8d %10s" width e.pf_clause e.pf_rows
           (Cypher_util.Mclock.pp_ns e.pf_ns)))
    entries
