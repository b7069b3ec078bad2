(** Cost-guided match planning.

    Chooses, for one path pattern, the cheapest node position to anchor
    enumeration on — using the graph's label histogram and property-index
    bucket cardinalities — and orients every relationship step so it is
    traversed from the side that is already bound.  Planning only
    reorders the enumeration of candidate bindings; the set of result
    rows is unchanged. *)

open Cypher_table
open Cypher_ast.Ast

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
    traversed from the step's right node towards its left node. *)
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

(** [describe plan] renders the traversal order (anchor choice with its
    index and cardinality estimate, then each oriented hop) as a small
    multi-line tree, for EXPLAIN. *)
val describe : t -> string

(** [make ctx row p] plans pattern [p] under the bindings of [row];
    [None] when reordering could be observable (a pattern property
    expression reads a variable not yet bound in [row]), in which case
    the caller falls back to the naive left-to-right enumeration. *)
val make : Cypher_eval.Ctx.t -> Record.t -> pattern -> t option
