(** Cost-guided match planning.

    The naive matcher anchors every path pattern on its syntactic start
    node and walks the steps left to right.  That is correct but can be
    arbitrarily wasteful: [MATCH (u:User)-[:ORDERED]->(o)-[:OF]->(v:Vendor)]
    scans every [User] even when [Vendor] is a hundred times rarer, and a
    pattern whose only selective element sits at the far end pays for a
    full cross-product before filtering.

    A {!t} is a traversal order for one path pattern: the cheapest node
    position to anchor on — chosen from the store's statistics
    ({!Graph.label_count}, property-index bucket cardinalities) — plus
    the hops to both sides of it, each oriented so enumeration proceeds
    from the already-bound endpoint.  Planning only reorders the
    enumeration of candidate bindings; the set of result rows is
    unchanged (the differential planner-on/off suite checks this).

    {!make} declines to plan (returns [None]) when reordering could be
    observable: a property expression inside the pattern that reads a
    variable not yet bound in the current row (it may be bound by an
    earlier part of this very pattern, so evaluation order matters). *)

open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

(** How the anchor position's candidates are produced. *)
type anchor_kind =
  | Anchor_bound  (** the pattern variable is already bound in the row *)
  | Anchor_prop_index of {
      pi_label : string;
      pi_key : string;
      pi_value : expr;  (** evaluated again at match time *)
    }  (** exact-value lookup in a registered property index *)
  | Anchor_label of string
      (** label-index scan of the rarest label.  When the anchor pattern
          carries property constraints, the matcher serves its first
          one from an equality bucket ({!Cypher_graph.Graph.nodes_with_eq}):
          a value → ids map over this label's nodes, built on the second
          probe of the same graph version — so a one-row statement keeps
          the plain scan and a driving table pays one build — and living
          until a node update replaces the version.  A bucket holds at
          most one id per label node, and the graph keeps at most eight
          (label, key) buckets at once.  Plans and EXPLAIN text are the
          same either way. *)
  | Anchor_scan  (** full node scan; nothing better available *)

(** One relationship step, oriented.  [h_step] is the step's syntactic
    index (0-based, left to right); [h_reversed] means the hop is
    traversed from the step's right node towards its left node, so the
    pattern direction must be flipped and a variable-length walk
    re-reversed before binding. *)
type hop = {
  h_rp : rel_pat;
  h_far : node_pat;
  h_src_pos : int;
  h_far_pos : int;
  h_step : int;
  h_reversed : bool;
}

type t = {
  p_anchor : node_pat;
  p_anchor_pos : int;
  p_anchor_kind : anchor_kind;
  p_anchor_cost : int;  (** estimated anchor candidate count *)
  p_hops : hop list;  (** rightward hops first, then leftward ones *)
  p_positions : int;  (** number of node positions: steps + 1 *)
}

(* ------------------------------------------------------------------ *)
(* Rendering (EXPLAIN)                                                *)
(* ------------------------------------------------------------------ *)

let describe_node (np : node_pat) =
  let var = Option.value ~default:"" np.np_var in
  let labels = String.concat "" (List.map (fun l -> ":" ^ l) np.np_labels) in
  "(" ^ var ^ labels ^ ")"

let describe_anchor plan =
  let cand n = Printf.sprintf "~%d candidate%s" n (if n = 1 then "" else "s") in
  match plan.p_anchor_kind with
  | Anchor_bound -> "bound variable"
  | Anchor_prop_index { pi_label; pi_key; _ } ->
      Printf.sprintf "prop index :%s(%s), %s" pi_label pi_key
        (cand plan.p_anchor_cost)
  | Anchor_label l ->
      Printf.sprintf "label index :%s, %s" l (cand plan.p_anchor_cost)
  | Anchor_scan ->
      Printf.sprintf "all-nodes scan, %s" (cand plan.p_anchor_cost)

let describe plan =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "anchor @%d %s via %s" plan.p_anchor_pos
       (describe_node plan.p_anchor) (describe_anchor plan));
  List.iter
    (fun h ->
      let types =
        match h.h_rp.rp_types with
        | [] -> ""
        | ts -> ":" ^ String.concat "|" ts
      in
      Buffer.add_string buf
        (Printf.sprintf "\n  expand @%d -[%s]- @%d %s%s" h.h_src_pos types
           h.h_far_pos (describe_node h.h_far)
           (if h.h_reversed then " (reversed)" else "")))
    plan.p_hops;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Safety: is every property expression evaluable before traversal?   *)
(* ------------------------------------------------------------------ *)

let props_evaluable row props =
  List.for_all
    (fun (_, e) ->
      List.for_all
        (fun v -> Record.find_opt row v <> None)
        (expr_free_vars e))
    props

let pattern_evaluable row (p : pattern) =
  props_evaluable row p.pat_start.np_props
  && List.for_all
       (fun (rp, np) ->
         props_evaluable row rp.rp_props && props_evaluable row np.np_props)
       p.pat_steps

(* ------------------------------------------------------------------ *)
(* Anchor selection                                                   *)
(* ------------------------------------------------------------------ *)

(** Estimated candidate count for anchoring on [np], with the cheapest
    way to produce those candidates.  Bound variables are free; a
    property-index bucket beats a label bucket beats a full scan. *)
let anchor_cost (ctx : Ctx.t) row (np : node_pat) : int * anchor_kind =
  let bound =
    match np.np_var with
    | Some v -> Record.find_opt row v <> None
    | None -> false
  in
  if bound then (0, Anchor_bound)
  else
    let g = ctx.Ctx.graph in
    let via_index =
      (* cheapest registered (label, key) index matching an equality
         constraint of the pattern; the value expression is evaluated
         here only to read the bucket cardinality *)
      List.fold_left
        (fun best label ->
          List.fold_left
            (fun best (key, e) ->
              if not (Graph.has_prop_index g ~label ~key) then best
              else
                match Eval.eval (Ctx.with_row ctx row) e with
                | exception Ctx.Error _ -> best
                | v -> (
                    match Graph.count_with_prop g ~label ~key v with
                    | None -> best
                    | Some n ->
                        let kind =
                          Anchor_prop_index
                            { pi_label = label; pi_key = key; pi_value = e }
                        in
                        (match best with
                        | Some (m, _) when m <= n -> best
                        | _ -> Some (n, kind))))
            best np.np_props)
        None np.np_labels
    in
    match via_index with
    | Some (n, kind) -> (n, kind)
    | None -> (
        match np.np_labels with
        | [] -> (Graph.node_count g, Anchor_scan)
        | labels ->
            List.fold_left
              (fun (n, kind) label ->
                let m = Graph.label_count g label in
                if m < n then (m, Anchor_label label) else (n, kind))
              (max_int, Anchor_scan) labels)

(* ------------------------------------------------------------------ *)
(* Plan construction                                                  *)
(* ------------------------------------------------------------------ *)

let make (ctx : Ctx.t) (row : Record.t) (p : pattern) : t option =
  (* an empty graph has no statistics to exploit, and MERGE-style
     workloads probe it once per driving record: skip the planning work *)
  if Graph.node_count ctx.Ctx.graph = 0 then None
  else if not (pattern_evaluable row p) then None
  else begin
    let node_pats =
      Array.of_list (p.pat_start :: List.map snd p.pat_steps)
    in
    let positions = Array.length node_pats in
    (* pick the cheapest anchor position; ties keep the leftmost, so a
       pattern with uniform statistics still anchors on pat_start *)
    let best_cost, best_pos, best_kind =
      Array.to_seqi node_pats
      |> Seq.fold_left
           (fun ((best_cost, _, _) as best) (i, np) ->
             let cost, kind = anchor_cost ctx row np in
             if cost < best_cost then (cost, i, kind) else best)
           (max_int, 0, Anchor_scan)
    in
    let steps = Array.of_list p.pat_steps in
    let rightward =
      List.init
        (positions - 1 - best_pos)
        (fun k ->
          let j = best_pos + k in
          let rp, np = steps.(j) in
          {
            h_rp = rp;
            h_far = np;
            h_src_pos = j;
            h_far_pos = j + 1;
            h_step = j;
            h_reversed = false;
          })
    in
    let leftward =
      List.init best_pos (fun k ->
          let j = best_pos - 1 - k in
          let rp, _ = steps.(j) in
          {
            h_rp = rp;
            h_far = node_pats.(j);
            h_src_pos = j + 1;
            h_far_pos = j;
            h_step = j;
            h_reversed = true;
          })
    in
    Some
      {
        p_anchor = node_pats.(best_pos);
        p_anchor_pos = best_pos;
        p_anchor_kind = best_kind;
        p_anchor_cost = best_cost;
        p_hops = rightward @ leftward;
        p_positions = positions;
      }
  end
