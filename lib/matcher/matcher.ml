(** Pattern matching: the relation (p, G, u) ⊨ π of Section 8.1.

    Matching extends a record (the assignment u) with bindings for the
    pattern's variables, producing every extension that embeds the
    pattern into the graph.  Cypher's *relationship isomorphism* is
    enforced: distinct relationship patterns within one MATCH (across all
    its comma-separated patterns) must bind distinct relationships —
    including every edge traversed by a variable-length step (Section 2).

    Property predicates in patterns use ternary equality, so a [null]
    property value in a pattern never matches (Example 5's discipline). *)

open Cypher_util.Maps
open Cypher_graph
open Cypher_table
open Cypher_ast.Ast
module Ctx = Cypher_eval.Ctx
module Eval = Cypher_eval.Eval

(** Which embeddings count as matches.  [Iso] is Cypher's relationship
    isomorphism: distinct relationship patterns bind distinct
    relationships.  [Homo] allows a relationship to be bound by several
    pattern positions — the homomorphism-based regime the paper plans
    for later Cypher versions (Section 6, Example 7).  Variable-length
    steps keep their walks edge-distinct under both regimes, which is
    the "suitable restriction to guarantee finite outputs". *)
type mode = Iso | Homo

(** Matching state: current bindings plus relationships already used by
    this MATCH clause (only consulted under [Iso]). *)
type state = { row : Record.t; used : Iset.t; mode : mode }

let use_rel st id =
  match st.mode with
  | Iso -> { st with used = Iset.add id st.used }
  | Homo -> st

let rel_available st id =
  match st.mode with Iso -> not (Iset.mem id st.used) | Homo -> true

let eval_in ctx row e = Eval.eval (Ctx.with_row ctx row) e

(** [node_check ctx np] compiles the label and property requirements of
    [np] into a [row -> id -> bool] test, evaluated once per pattern
    invocation rather than once per candidate node.  On the compact
    backend the label and property-key symbols are resolved here — the
    per-node test is then pure int-array work against the CSR arenas
    (plus property-expression evaluation, which is row-dependent and
    stays inside); a label that was never interned anywhere cannot be
    carried by any node, so the whole check constant-folds to false.
    Missing nodes never match. *)
let node_check (ctx : Ctx.t) (np : node_pat) :
    Record.t -> Value.node_id -> bool =
  match Graph.csr_view ctx.graph with
  | Some c ->
      let lab_syms = List.map Symtab.find np.np_labels in
      if List.exists Option.is_none lab_syms then fun _ _ -> false
      else
        let lab_syms = List.filter_map Fun.id lab_syms in
        let props = List.map (fun (k, e) -> (Symtab.find k, e)) np.np_props in
        fun row id ->
          let i = Graph.Csr.node_idx c id in
          i >= 0
          && List.for_all (fun sym -> Graph.Csr.has_label_sym c i sym) lab_syms
          && List.for_all
               (fun (sym, e) ->
                 let want = eval_in ctx row e in
                 let have =
                   match sym with
                   | Some sym -> Graph.Csr.node_prop_sym c i sym
                   | None -> Value.Null
                 in
                 Value.equal_tri have want = Tri.True)
               props
  | None -> (
      fun row id ->
        match Graph.node ctx.graph id with
        | None -> false
        | Some n ->
            List.for_all (fun l -> Sset.mem l n.Graph.labels) np.np_labels
            && List.for_all
                 (fun (k, e) ->
                   let want = eval_in ctx row e in
                   Value.equal_tri (Props.get n.Graph.n_props k) want = Tri.True)
                 np.np_props)


let rel_props_satisfy (ctx : Ctx.t) row (rp : rel_pat) (r : Graph.rel) =
  List.for_all
    (fun (k, e) ->
      let want = eval_in ctx row e in
      Value.equal_tri (Props.get r.Graph.r_props k) want = Tri.True)
    rp.rp_props

let rel_satisfies (ctx : Ctx.t) row (rp : rel_pat) (r : Graph.rel) =
  (match rp.rp_types with
  | [] -> true
  | types -> List.mem r.Graph.r_type types)
  && rel_props_satisfy ctx row rp r

(** Binds [var] to [v] in [row], failing (None) on conflicting
    rebinding — the row-level core shared by {!bind_var} and the
    precompiled binding sites. *)
let row_bind_var row var v =
  match var with
  | None -> Some row
  | Some name -> (
      match Record.find_opt row name with
      | None -> Some (Record.bind row name v)
      | Some existing ->
          if Value.equal_strict existing v then Some row else None)

(** Binds [var] to [v] in [st], failing (None) on conflicting rebinding. *)
let bind_var st var v =
  match row_bind_var st.row var v with
  | None -> None
  | Some row -> Some (if row == st.row then st else { st with row })

(** [compile_row_binder row0 var] compiles a conflict-checked binding
    site against the layout of [row0] — the row every row of this
    pattern invocation descends from.  The variable's slot index is
    resolved here, once per invocation, so each per-embedding bind is an
    array probe plus a copying store ({!Record.slot_bind}), with no name
    resolution.  Sound because in-layout binds preserve the slot table
    and out-of-layout binds only append to it, so an index resolved
    against [row0] addresses the same variable in every descendant row,
    and every pattern variable has a slot: the entry points widen the
    starting row over all of them ({!init_state}). *)
let compile_row_binder row0 (var : string option) :
    Record.t -> Value.t -> Record.t option =
  match var with
  | None -> fun row _ -> Some row
  | Some name ->
      let i = Slots.index (fst (Record.slots_view row0)) name in
      fun row v -> Record.slot_bind row i v

(** Candidate nodes for a node pattern: the binding if the variable is
    already bound, otherwise all graph nodes. *)
let node_candidates st (np : node_pat) : Value.node_id list option =
  match np.np_var with
  | Some name -> (
      match Record.find_opt st.row name with
      | Some (Value.Node id) -> Some [ id ]
      | Some Value.Null -> Some [] (* null binding never matches *)
      | Some _ -> Some []
      | None -> None)
  | None -> None

(** [keyed ctx st np label is_key lookup] narrows the [label] bucket
    for the unbound node pattern [np] by a keyed constraint.  The
    constraints of [np] are evaluated in pattern order against the
    current row up to the first one [is_key] accepts, whose value
    [lookup ~label ~key] serves.  If one fails to evaluate, or [lookup]
    declines, the candidates are the whole label bucket, and
    {!node_check} raises the error exactly when a candidate carries
    every label, as an unnarrowed scan does.  Otherwise narrowing is
    invisible: a node outside the bucket fails the keyed constraint,
    and {!node_check} reaches no constraint after it.  Ids stay in id
    order. *)
let keyed (ctx : Ctx.t) st (np : node_pat) label is_key lookup =
  let rec probe = function
    | [] -> None
    | ((key, e) as c) :: rest -> (
        match eval_in ctx st.row e with
        | exception Ctx.Error _ -> None
        | v -> if is_key c then lookup ~label ~key v else probe rest)
  in
  match probe np.np_props with
  | Some ids -> ids
  | None -> Graph.nodes_with_label ctx.graph label

(** The planner-off start of a pattern: the nodes [np] may bind, each
    with its extended state, in id order.  A bound variable yields its
    binding; an unbound labelled node reads its first label's bucket,
    narrowed by its first property constraint through
    {!Graph.nodes_with_eq} ({!keyed}); an unlabelled one scans every
    node.  The candidates kept are those of the label scan, in the same
    order, so the fold's rows and their order are the scan's. *)
let match_node (ctx : Ctx.t) st (np : node_pat) : (state * Value.node_id) list =
  let candidates =
    match node_candidates st np with
    | Some ids -> ids
    | None -> (
        match np.np_labels with
        | [] -> Graph.node_ids ctx.graph
        | label :: _ ->
            keyed ctx st np label (fun _ -> true) (Graph.nodes_with_eq ctx.graph))
  in
  let check = node_check ctx np in
  List.filter_map
    (fun id ->
      if check st.row id then
        Option.map
          (fun st -> (st, id))
          (bind_var st np.np_var (Value.Node id))
      else None)
    candidates

let flip = function Out -> In | In -> Out | Undirected -> Undirected

(* A hop's adjacency enumeration ({!compile_adjacent}, below) folds
   over the relationships at a node compatible with the direction of
   the relationship pattern (flipped under [~reversed], for hops
   traversed right-to-left), pairing each with the node at the far end,
   in relationship-id order.  A single-type pattern is served from the
   typed adjacency index — same id order as filtering the full
   neighbour list, but without touching non-matching types.  Folding
   (rather than materialising a neighbour list) keeps the per-hop
   allocation at zero; hop enumeration is the innermost loop of every
   MATCH and MERGE.

   Compact-backend fast path: the per-node CSR slices are
   relationship-id-sorted copies of the persistent adjacency sets, so
   filtering them by interned type symbol yields exactly the persistent
   path's enumeration, without set unions or per-rel map lookups.  The
   index-level core passes its callback the dense relationship index
   and the far node id, both plain ints, so the shortest-path BFS stays
   record-free.  Ordering the undirected merge compares dense indices
   directly: the builder assigns them in id order, so index order is id
   order. *)

(** [compile_tymatch rp] resolves the pattern's type names to interned
    symbols, once — the per-relationship test is then an int comparison.
    Interning is append-only and the graph is immutable during a match,
    so resolving at compile time and at enumeration time agree. *)
let compile_tymatch (rp : rel_pat) : int -> bool =
  match rp.rp_types with
  | [] -> fun _ -> true
  | [ ty ] -> (
      match Symtab.find ty with
      | Some sym -> fun t -> t = sym
      | None -> fun _ -> false)
  | types ->
      let syms = List.filter_map Symtab.find types in
      fun t -> List.mem t syms

(** The direction-and-type-resolved core of CSR hop enumeration; its
    callers ({!compile_adjacent}, the shortest-path BFS) resolve
    [tymatch] and [dir] once, outside their loops. *)
let fold_adjacent_csr_tyd (c : Graph.Csr.t) ~tymatch ~dir src_id
    (f : int -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let open Graph.Csr in
  let i = node_idx c src_id in
  if i < 0 then acc
  else
    match dir with
    | Out ->
        let hi = c.out_off.(i + 1) in
        let rec go k acc =
          if k >= hi then acc
          else
            go (k + 1)
              (if tymatch c.out_ty.(k) then f c.out_ridx.(k) c.out_far.(k) acc
               else acc)
        in
        go c.out_off.(i) acc
    | In ->
        let hi = c.in_off.(i + 1) in
        let rec go k acc =
          if k >= hi then acc
          else
            go (k + 1)
              (if tymatch c.in_ty.(k) then f c.in_ridx.(k) c.in_far.(k) acc
               else acc)
        in
        go c.in_off.(i) acc
    | Undirected ->
        (* merge the id-sorted out and in slices; a self-loop sits in
           both at the same id and is taken once, from the out side *)
        let ohi = c.out_off.(i + 1) and ihi = c.in_off.(i + 1) in
        let rec merge ko ki acc =
          if ko >= ohi && ki >= ihi then acc
          else if ki >= ihi || (ko < ohi && c.out_ridx.(ko) <= c.in_ridx.(ki))
          then
            let ki =
              if ki < ihi && c.in_ridx.(ki) = c.out_ridx.(ko) then ki + 1
              else ki
            in
            let acc =
              if tymatch c.out_ty.(ko) then f c.out_ridx.(ko) c.out_far.(ko) acc
              else acc
            in
            merge (ko + 1) ki acc
          else
            let acc =
              if tymatch c.in_ty.(ki) then f c.in_ridx.(ki) c.in_far.(ki) acc
              else acc
            in
            merge ko (ki + 1) acc
        in
        merge c.out_off.(i) c.in_off.(i) acc

(** [fold_adjacent_csr_tyd_rev] is {!fold_adjacent_csr_tyd} in exactly
    reversed enumeration order (descending relationship id).  The
    undirected case mirrors the forward merge: descending ids, a
    self-loop — present in both slices at the same id — taken once,
    from the out side. *)
let fold_adjacent_csr_tyd_rev (c : Graph.Csr.t) ~tymatch ~dir src_id
    (f : int -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let open Graph.Csr in
  let i = node_idx c src_id in
  if i < 0 then acc
  else
    match dir with
    | Out ->
        let lo = c.out_off.(i) in
        let rec go k acc =
          if k < lo then acc
          else
            go (k - 1)
              (if tymatch c.out_ty.(k) then f c.out_ridx.(k) c.out_far.(k) acc
               else acc)
        in
        go (c.out_off.(i + 1) - 1) acc
    | In ->
        let lo = c.in_off.(i) in
        let rec go k acc =
          if k < lo then acc
          else
            go (k - 1)
              (if tymatch c.in_ty.(k) then f c.in_ridx.(k) c.in_far.(k) acc
               else acc)
        in
        go (c.in_off.(i + 1) - 1) acc
    | Undirected ->
        let olo = c.out_off.(i) and ilo = c.in_off.(i) in
        let rec merge ko ki acc =
          if ko < olo && ki < ilo then acc
          else if ki < ilo || (ko >= olo && c.out_ridx.(ko) >= c.in_ridx.(ki))
          then
            let ki =
              if ki >= ilo && c.in_ridx.(ki) = c.out_ridx.(ko) then ki - 1
              else ki
            in
            let acc =
              if tymatch c.out_ty.(ko) then f c.out_ridx.(ko) c.out_far.(ko) acc
              else acc
            in
            merge (ko - 1) ki acc
          else
            let acc =
              if tymatch c.in_ty.(ki) then f c.in_ridx.(ki) c.in_far.(ki) acc
              else acc
            in
            merge ko (ki - 1) acc
        in
        merge (c.out_off.(i + 1) - 1) (c.in_off.(i + 1) - 1) acc

let fold_adjacent_maps (g : Graph.t) src_id (rp : rel_pat) ~reversed
    (f : Value.rel_id -> Value.node_id -> 'a -> 'a) (acc : 'a) : 'a =
  let out_set, in_set =
    match rp.rp_types with
    | [ ty ] ->
        ( Graph.out_rel_ids_typed g src_id ty,
          Graph.in_rel_ids_typed g src_id ty )
    | _ -> (Graph.out_rel_ids g src_id, Graph.in_rel_ids g src_id)
  in
  let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
  match dir with
  | Out ->
      Iset.fold
        (fun rid acc -> f rid (Graph.rel_exn g rid).Graph.tgt acc)
        out_set acc
  | In ->
      Iset.fold
        (fun rid acc -> f rid (Graph.rel_exn g rid).Graph.src acc)
        in_set acc
  | Undirected ->
      (* the incident set is a union of the two adjacency sets, so a
         self-loop appears once without any post-hoc deduplication *)
      Iset.fold
        (fun rid acc ->
          let r = Graph.rel_exn g rid in
          let far =
            if r.Graph.src = src_id then r.Graph.tgt else r.Graph.src
          in
          f rid far acc)
        (Iset.union out_set in_set)
        acc

(** A hop's adjacency enumeration with everything resolvable per
    pattern invocation resolved up front: backend dispatch, traversal
    direction, interned type symbols — once per call, not once per node
    expanded, which is measurable when a hop is expanded from 10⁵ states.
    [adj] folds over (handle, far node) pairs.  A handle is the
    backend's cheapest name for a relationship — its dense CSR index, or
    its id on the persistent maps — resolved to an id ([rid]) or a
    record ([rel]) on demand, so a hop that needs no relationship record
    never touches one on the CSR.  The polymorphic field lets one
    compiled value serve any accumulator type. *)
type adj = {
  adj : 'a. Value.node_id -> (int -> Value.node_id -> 'a -> 'a) -> 'a -> 'a;
  rid : int -> Value.rel_id;
  rel : int -> Graph.rel;
}

(** [compile_adjacent g rp ~reversed ~descending] compiles the
    adjacency of [rp] — in relationship-id order, or in exactly reversed
    order under [~descending].  Descending enumeration is CSR-only (the
    persistent sets fold ascending only); its one caller checks for the
    snapshot first. *)
let compile_adjacent (g : Graph.t) (rp : rel_pat) ~reversed ~descending : adj
    =
  let dir = if reversed then flip rp.rp_dir else rp.rp_dir in
  match Graph.csr_view g with
  | Some c ->
      let tymatch = compile_tymatch rp in
      let rid j = c.Graph.Csr.rel_id.(j) and rel j = c.Graph.Csr.rel_recs.(j) in
      if descending then
        {
          adj =
            (fun src f acc ->
              fold_adjacent_csr_tyd_rev c ~tymatch ~dir src f acc);
          rid;
          rel;
        }
      else
        {
          adj =
            (fun src f acc -> fold_adjacent_csr_tyd c ~tymatch ~dir src f acc);
          rid;
          rel;
        }
  | None when descending ->
      Ctx.internal "compile_adjacent: descending order needs the CSR snapshot"
  | None ->
      {
        adj = (fun src f acc -> fold_adjacent_maps g src rp ~reversed f acc);
        rid = Fun.id;
        rel = Graph.rel_exn g;
      }

(** [compile_rel_check ctx ~csr adj rp] is the per-relationship
    predicate of [rp], over [adj]'s handles, minus whatever the
    enumeration already guarantees: the CSR fold filters by interned
    type symbol (for any arity of type list), the persistent one by its
    typed adjacency when there is at most one type.  A property-free
    pattern the enumeration covers needs no check at all, and so no
    record. *)
let compile_rel_check (ctx : Ctx.t) ~csr (adj : adj) (rp : rel_pat) :
    Record.t -> int -> bool =
  let typed = csr || List.compare_length_with rp.rp_types 1 <= 0 in
  match rp.rp_props with
  | [] when typed -> fun _ _ -> true
  | _ when typed -> fun row h -> rel_props_satisfy ctx row rp (adj.rel h)
  | _ -> fun row h -> rel_satisfies ctx row rp (adj.rel h)

(** Folds over the matches of a single (non-variable-length)
    relationship step from [src_id]: states extended with the
    relationship binding, the far node id, and the traversed
    relationship's id, in relationship-id order.  The binding site, the
    relationship check and the adjacency are compiled once per pattern
    invocation by the caller. *)
let fold_single_rel ~bind ~check ~(adj : adj) st src_id
    (f : state -> Value.node_id -> Value.rel_id -> 'a -> 'a) (acc : 'a) : 'a =
  adj.adj src_id
    (fun h far acc ->
      let rid = adj.rid h in
      if not (rel_available st rid) then acc
      else if not (check st.row h) then acc
      else
        match bind st.row (Value.Rel rid) with
        | None -> acc
        | Some row -> (
            (* one state allocation for the used-set and row updates
               together (the split use_rel-then-bind form allocated two) *)
            match st.mode with
            | Iso -> f { st with used = Iset.add rid st.used; row } far rid acc
            | Homo ->
                f (if row == st.row then st else { st with row }) far rid acc))
    acc

(** Every edge-distinct walk from [src] whose length lies within
    [lo, hi] ([None]: unbounded), in exploration order, as its far node
    and its relationship ids in the pattern's left-to-right order — under
    [~reversed] the walk is explored from the step's right endpoint, so
    the ids are reported in reverse.  A relationship extends a walk when
    it is not on the walk yet and [available], then [check], accept it.
    The walk's own edges stay distinct under both matching regimes, so
    that unbounded ranges stay finite. *)
let varlength_walks (adj : adj) ~reversed ~available ~check src lo hi :
    (Value.node_id * Value.rel_id list) list =
  let results = ref [] in
  let rec explore walk node rids_rev len =
    if len >= lo then
      results :=
        (node, if reversed then rids_rev else List.rev rids_rev) :: !results;
    if match hi with Some h -> len < h | None -> true then
      adj.adj node
        (fun h far () ->
          let rid = adj.rid h in
          if (not (Iset.mem rid walk)) && available rid && check h then
            explore (Iset.add rid walk) far (rid :: rids_rev) (len + 1))
        ()
  in
  explore Iset.empty src [] 0;
  List.rev !results

let node_value id = Value.Node id
let rel_value id = Value.Rel id
let rel_list rids = Value.List (List.map rel_value rids)

(** Matches a variable-length step of the naive fold: each walk of
    {!varlength_walks}, its relationships marked used and the
    relationship variable (if any) bound to their list. *)
let match_varlength ~adj ~check st src_id (rp : rel_pat) lo hi :
    (state * Value.node_id * Value.rel_id list) list =
  List.filter_map
    (fun (far, rids) ->
      let st = List.fold_left use_rel st rids in
      Option.map
        (fun st -> (st, far, rids))
        (bind_var st rp.rp_var (rel_list rids)))
    (varlength_walks adj ~reversed:false ~available:(rel_available st)
       ~check:(check st.row) src_id lo hi)

(** Folds [emit] over the matches of one whole path pattern left-to-right
    from state [st] — the naive enumeration: anchor on [pat_start], walk
    the steps in syntactic order.  [emit] is called once per embedding,
    in traversal order; materialising a state list is just one choice of
    [emit] (see {!match_pattern_naive}), counting is another
    (see {!count_patterns}). *)
let fold_pattern_naive (ctx : Ctx.t) st (p : pattern)
    (emit : state -> 'a -> 'a) (acc0 : 'a) : 'a =
  let starts = match_node ctx st p.pat_start in
  (* the path value is only assembled when the pattern is named; an
     anonymous pattern skips the per-embedding list building entirely. *)
  let named = p.pat_var <> None in
  (* far-node checks, binding sites and relationship predicates compiled
     once per pattern, not once per embedding *)
  let csr = Graph.csr_view ctx.graph <> None in
  let compiled_steps =
    List.map
      (fun (rp, np) ->
        let adj =
          compile_adjacent ctx.graph rp ~reversed:false ~descending:false
        in
        ( rp,
          node_check ctx np,
          compile_row_binder st.row np.np_var,
          compile_row_binder st.row rp.rp_var,
          compile_rel_check ctx ~csr adj rp,
          adj ))
      p.pat_steps
  in
  let rec steps st node_id nodes_rev rels_rev rest acc =
    match rest with
    | [] ->
        if not named then emit st acc
        else
          let path =
            Value.Path
              {
                Value.path_nodes = List.rev nodes_rev;
                path_rels = List.rev rels_rev;
              }
          in
          (match bind_var st p.pat_var path with
          | None -> acc
          | Some st -> emit st acc)
    | (rp, check, fbind, rbind, rcheck, adj) :: rest ->
        let far_step st far rids acc =
          if not (check st.row far) then acc
          else
            match fbind st.row (Value.Node far) with
            | None -> acc
            | Some row ->
                let st = if row == st.row then st else { st with row } in
                if not named then steps st far nodes_rev rels_rev rest acc
                else
                  steps st far (far :: nodes_rev)
                    (List.rev_append rids rels_rev)
                    rest acc
        in
        (match rp.rp_range with
        | None ->
            fold_single_rel ~bind:rbind ~check:rcheck ~adj st node_id
              (fun st far rid acc ->
                far_step st far (if named then [ rid ] else []) acc)
              acc
        | Some (lo, hi) ->
            let lo = Option.value ~default:1 lo in
            List.fold_left
              (fun acc (st, far, rids) -> far_step st far rids acc)
              acc
              (match_varlength ~adj ~check:rcheck st node_id rp lo hi))
  in
  List.fold_left
    (fun acc (st, start_id) ->
      steps st start_id
        (if named then [ start_id ] else [])
        [] compiled_steps acc)
    acc0 starts

(* ------------------------------------------------------------------ *)
(* Planned execution                                                  *)
(* ------------------------------------------------------------------ *)

(** Candidate nodes for a planned anchor.  Every candidate still passes
    through {!node_check}, so a bucket may safely over-approximate (it is
    re-filtered).  A keyed anchor — a registered index, or a
    {!Plan.Anchor_label} anchor with property constraints, served from
    {!Graph.nodes_with_eq} on its first constraint — is narrowed by
    {!keyed}, the same rule as the planner-off start {!match_node}. *)
let anchor_candidates (ctx : Ctx.t) st (plan : Plan.t) : Value.node_id list =
  let np = plan.Plan.p_anchor in
  match plan.Plan.p_anchor_kind with
  | Plan.Anchor_bound -> (
      match node_candidates st np with Some ids -> ids | None -> [])
  | Plan.Anchor_prop_index { pi_label; pi_key; pi_value } ->
      keyed ctx st np pi_label
        (fun (k, e) -> k = pi_key && e == pi_value)
        (Graph.nodes_with_prop ctx.graph)
  | Plan.Anchor_label label ->
      keyed ctx st np label (fun _ -> true) (Graph.nodes_with_eq ctx.graph)
  | Plan.Anchor_scan -> Graph.node_ids ctx.graph

(** What a planned pattern emits per embedding: the extended state, for
    a pattern the later patterns of its tuple extend; the row alone, for
    the last pattern; or nothing at all, for a count. *)
type _ leaf =
  | State : (state -> 'a -> 'a) -> 'a leaf
  | Row : (Record.t -> 'a -> 'a) -> 'a leaf
  | Count : int leaf

(** A binding site of a planned pattern, classified once per invocation
    in traversal order.  [Write i] is the first site of a variable whose
    slot [i] the starting row leaves absent: it stores unconditionally.
    Every branch that reaches a later reader of [i] passed this site
    first, so backtracking needs no restore.  [Test i] is a variable the
    starting row or an earlier site binds: a [Value.equal_strict] test
    against slot [i].  [Skip] is an anonymous position, or, under a
    counting leaf, a write nothing reads. *)
type site = Skip | Write of int | Test of int

(** [fold_pattern_planned ~natural ctx st plan p leaf acc0] folds [leaf]
    over the embeddings of [p] that extend [st], following [plan]: the
    anchor's candidates first, then each hop from its already-bound side.

    The traversal threads raw ids — node ids by position, the ids of the
    relationships taken so far — and one scratch copy of the starting
    row's cells, into which each binding site writes.  A row is copied
    from the scratch cells only at the leaf, so a partial embedding that
    fails a later hop allocates no row.

    Every property expression is evaluated against the starting row.
    That is exact because {!Plan.make} plans a pattern only when each of
    them reads variables bound before the invocation.  Per hop the checks
    run in the naive fold's order — relationship available, relationship
    properties, relationship-variable bind, far-node check, far-node
    bind — so every evaluation error is raised where the naive fold
    raises it.  Under [Iso], within-pattern relationship distinctness is
    a linear scan of the relationships taken so far; the used-set union
    happens once per emitted state.  A named pattern's path lists its
    nodes by position and its relationships by step.

    Under [~natural] the enumeration runs in exactly reversed order —
    reversed anchor list, descending-id adjacency — so a consumer that
    prepends obtains the rows in forward order without a final reversal.
    The caller guarantees the CSR backend (the persistent adjacency sets
    fold ascending only) and a pattern with no property map and no
    variable-length step: with no expression to evaluate, enumeration
    order is unobservable except through the row order the caller is
    deliberately inverting. *)
let fold_pattern_planned (type a) ~natural (ctx : Ctx.t) st (plan : Plan.t)
    (p : pattern) (leaf : a leaf) (acc0 : a) : a =
  let tab, cells0 = Record.slots_view st.row in
  let row0 = st.row in
  let scratch = Array.copy cells0 in
  let iso = st.mode = Iso in
  let csr = Graph.csr_view ctx.graph <> None in
  let hops_arr = Array.of_list plan.Plan.p_hops in
  let n_hops = Array.length hops_arr in
  (* binding sites in traversal order: site 0 is the anchor, sites
     2d+1 and 2d+2 hop d's relationship and far node, the last one the
     path *)
  let sites =
    let rec classify seen = function
      | [] -> []
      | None :: rest -> Skip :: classify seen rest
      | Some name :: rest ->
          let i = Slots.index tab name in
          if cells0.(i) != Slots.absent || List.mem i seen then
            Test i :: classify seen rest
          else Write i :: classify (i :: seen) rest
    in
    let rec unread = function
      | [] -> []
      | Write i :: rest when not (List.mem (Test i) rest) -> Skip :: unread rest
      | s :: rest -> s :: unread rest
    in
    let sites =
      classify []
        ((plan.Plan.p_anchor.np_var
         :: List.concat_map
              (fun (h : Plan.hop) ->
                [ h.Plan.h_rp.rp_var; h.Plan.h_far.np_var ])
              plan.Plan.p_hops)
        @ [ p.pat_var ])
    in
    Array.of_list (match leaf with Count -> unread sites | _ -> sites)
  in
  let bind site mk x =
    match site with
    | Skip -> true
    | Write i ->
        scratch.(i) <- mk x;
        true
    | Test i -> Value.equal_strict scratch.(i) (mk x)
  in
  let compiled =
    Array.map
      (fun (h : Plan.hop) ->
        let adj =
          compile_adjacent ctx.graph h.Plan.h_rp ~reversed:h.Plan.h_reversed
            ~descending:natural
        in
        ( h,
          node_check ctx h.Plan.h_far,
          compile_rel_check ctx ~csr adj h.Plan.h_rp,
          adj ))
      hops_arr
  in
  let node_at = Array.make plan.Plan.p_positions 0 in
  (* the relationships taken on the current branch, in traversal order:
     a hop writes from index [top] on before descending, so the indices
     below [top] always hold this branch's ancestors *)
  let taken = ref (Array.make (max n_hops 1) 0) in
  let take top rid =
    if top >= Array.length !taken then begin
      let wider = Array.make (2 * top) 0 in
      Array.blit !taken 0 wider 0 top;
      taken := wider
    end;
    !taken.(top) <- rid;
    top + 1
  in
  let fresh top rid =
    (not iso)
    || (not (Iset.mem rid st.used))
       &&
       let t = !taken in
       let rec scan k = k >= top || (t.(k) <> rid && scan (k + 1)) in
       scan 0
  in
  let named = p.pat_var <> None in
  let step_rids = Array.make (plan.Plan.p_positions - 1) [] in
  let path () =
    Value.Path
      {
        Value.path_nodes = Array.to_list node_at;
        path_rels = List.concat (Array.to_list step_rids);
      }
  in
  let emit : int -> a -> a =
    match leaf with
    | Count -> fun _ n -> n + 1
    | Row f -> fun _ acc -> f (Record.of_slots tab (Array.copy scratch)) acc
    | State f ->
        fun top acc ->
          let used =
            if iso then begin
              let u = ref st.used in
              for k = 0 to top - 1 do
                u := Iset.add !taken.(k) !u
              done;
              !u
            end
            else st.used
          in
          f
            {
              row = Record.of_slots tab (Array.copy scratch);
              used;
              mode = st.mode;
            }
            acc
  in
  let path_site = sites.((2 * n_hops) + 1) in
  let rec hops d top acc =
    if d = n_hops then if bind path_site path () then emit top acc else acc
    else
      let h, check, rcheck, adj = compiled.(d) in
      let rsite = sites.((2 * d) + 1) and fsite = sites.((2 * d) + 2) in
      let far_step far top acc =
        if check row0 far && bind fsite node_value far then begin
          node_at.(h.Plan.h_far_pos) <- far;
          hops (d + 1) top acc
        end
        else acc
      in
      let src = node_at.(h.Plan.h_src_pos) in
      match h.Plan.h_rp.rp_range with
      | None ->
          adj.adj src
            (fun hd far acc ->
              let rid = adj.rid hd in
              if fresh top rid && rcheck row0 hd && bind rsite rel_value rid
              then begin
                if named then step_rids.(h.Plan.h_step) <- [ rid ];
                far_step far (take top rid) acc
              end
              else acc)
            acc
      | Some (lo, hi) ->
          List.fold_left
            (fun acc (far, rids) ->
              if bind rsite rel_list rids then begin
                if named then step_rids.(h.Plan.h_step) <- rids;
                far_step far (List.fold_left take top rids) acc
              end
              else acc)
            acc
            (varlength_walks adj ~reversed:h.Plan.h_reversed
               ~available:(fresh top) ~check:(rcheck row0) src
               (Option.value ~default:1 lo) hi)
  in
  let anchor_check = node_check ctx plan.Plan.p_anchor in
  let anchor_pos = plan.Plan.p_anchor_pos in
  let cands = anchor_candidates ctx st plan in
  List.fold_left
    (fun acc id ->
      if anchor_check row0 id && bind sites.(0) node_value id then begin
        node_at.(anchor_pos) <- id;
        hops 0 0 acc
      end
      else acc)
    acc0
    (if natural then List.rev cands else cands)

(** The starting state of a match over [patterns]: the context row
    widened over every pattern variable it lacks ({!Record.widen}), so
    each binding site resolves to a slot of one layout shared by every
    embedding — also when the row is the unit row, whose layout never
    memoizes its extensions. *)
let init_state (ctx : Ctx.t) mode patterns =
  {
    row = Record.widen ctx.row (List.concat_map pattern_vars patterns);
    used = Iset.empty;
    mode;
  }

(** The plan of pattern [i] of a tuple: its hint when [hints] has one
    ([Some None] forces naive enumeration), else per-row planning when
    the planner is on. *)
let plan_for ~planner (ctx : Ctx.t) hints i st p =
  match List.nth_opt hints i with
  | Some hint -> hint
  | None -> if planner then Plan.make ctx st.row p else None

(** [match_patterns ?mode ?planner ?plans ctx patterns] computes all
    extensions of the context row that embed every pattern; under the
    default [Iso] mode relationship isomorphism is enforced across the
    whole pattern tuple.  [planner] enables cost-guided anchor selection
    and hop orientation (see {!Plan}); the result rows are the same
    either way, possibly in a different order.

    [plans] supplies one precomputed plan option per pattern (as built
    by {!Plan.make} against a representative row): plan selection
    depends only on which variables are bound — uniform across the rows
    of one driving table — and on graph statistics, so hoisting the
    planning out of the per-row loop preserves the result rows while
    eliminating the per-row planning cost.  A [None] entry means naive
    enumeration for that pattern (what per-row planning would also have
    chosen); a list shorter than [patterns] leaves the remaining
    patterns on per-row planning. *)
let match_patterns_rev ?(mode = Iso) ?(planner = false) ?plans (ctx : Ctx.t)
    (patterns : pattern list) : Record.t list =
  (* read-phase boundary: under the compact backend, (re)build the CSR
     snapshot here so the expansion loops below run on it *)
  Graph.ensure_csr ctx.graph;
  let init = init_state ctx mode patterns in
  let hints = Option.value ~default:[] plans in
  (* each embedding of a pattern recurses straight into the remaining
     patterns (the order {!count_patterns} also follows); the final
     pattern emits result rows directly — through the row leaf when
     planned, which skips the per-embedding state bookkeeping nothing
     will read — so no intermediate state list is ever materialised.
     At 10⁵-row matches this saves several full list traversals. *)
  let rec go st i rest acc =
    match rest with
    | [] ->
        (* unreachable: the empty tuple is answered below, before the
           fold starts; a structured error keeps a server process alive
           if that ever changes *)
        Ctx.internal "match_patterns_rev: empty pattern list reached the fold"
    | [ p ] -> (
        match plan_for ~planner ctx hints i st p with
        | Some plan ->
            fold_pattern_planned ~natural:false ctx st plan p
              (Row (fun row acc -> row :: acc))
              acc
        | None ->
            fold_pattern_naive ctx st p (fun st acc -> st.row :: acc) acc)
    | p :: rest -> (
        let emit st acc = go st (i + 1) rest acc in
        match plan_for ~planner ctx hints i st p with
        | Some plan ->
            fold_pattern_planned ~natural:false ctx st plan p (State emit) acc
        | None -> fold_pattern_naive ctx st p emit acc)
  in
  match patterns with [] -> [ init.row ] | _ -> go init 0 patterns []

let match_patterns ?mode ?planner ?plans (ctx : Ctx.t)
    (patterns : pattern list) : Record.t list =
  List.rev (match_patterns_rev ?mode ?planner ?plans ctx patterns)

(** Does a plan qualify for natural-order enumeration: no property map
    anywhere (nothing to evaluate, so enumeration order is unobservable)
    and no variable-length step? *)
let natural_ok (plan : Plan.t) =
  plan.Plan.p_anchor.np_props = []
  && List.for_all
       (fun (h : Plan.hop) ->
         h.Plan.h_far.np_props = []
         && h.Plan.h_rp.rp_props = []
         && h.Plan.h_rp.rp_range = None)
       plan.Plan.p_hops

(** [match_patterns_natural ?mode ?planner ?plans ctx patterns] runs a
    single planned pattern through {!fold_pattern_planned} in natural
    order, with prepend accumulation, so the returned list is already in
    forward order — the whole match costs exactly one list spine, with no
    final reversal and no consistency projection needed downstream.
    [None] when the shape doesn't qualify (several patterns, no plan, a
    property map, a variable-length step, the persistent backend) — the
    caller falls back to {!match_patterns_rev}. *)
let match_patterns_natural ?(mode = Iso) ?(planner = false) ?plans
    (ctx : Ctx.t) (patterns : pattern list) : Record.t list option =
  match patterns with
  | [ p ] -> (
      Graph.ensure_csr ctx.graph;
      let init = init_state ctx mode patterns in
      match
        plan_for ~planner ctx (Option.value ~default:[] plans) 0 init p
      with
      | Some plan when Graph.csr_view ctx.graph <> None && natural_ok plan ->
          Some
            (fold_pattern_planned ~natural:true ctx init plan p
               (Row (fun row acc -> row :: acc))
               [])
      | _ -> None)
  | _ -> None

(** [count_patterns ?mode ?planner ?plans ctx patterns] is
    [List.length (match_patterns ... )] without materialising any state
    list: each pattern's embeddings are folded over directly, recursing
    into the remaining patterns per embedding, and the last pattern's
    embeddings are counted where they are found — a planned one through
    the counting leaf, which builds no row.  Traversal (and therefore
    any error raised by a property expression) follows exactly the order
    of {!match_patterns}.  The engine uses this to fuse
    [MATCH ... RETURN count( * )] — at 10⁵+ embeddings the dominant cost
    of the materialising path is allocating and promoting the result
    records, which a count never looks at. *)
let count_patterns ?(mode = Iso) ?(planner = false) ?plans (ctx : Ctx.t)
    (patterns : pattern list) : int =
  Graph.ensure_csr ctx.graph;
  let init = init_state ctx mode patterns in
  let hints = Option.value ~default:[] plans in
  let rec count st i = function
    | [] -> 1
    | p :: rest -> (
        let emit st' n = n + count st' (i + 1) rest in
        match (plan_for ~planner ctx hints i st p, rest) with
        | Some plan, [] ->
            fold_pattern_planned ~natural:false ctx st plan p Count 0
        | Some plan, _ ->
            fold_pattern_planned ~natural:false ctx st plan p (State emit) 0
        | None, [] -> fold_pattern_naive ctx st p (fun _ n -> n + 1) 0
        | None, _ -> fold_pattern_naive ctx st p emit 0)
  in
  count init 0 patterns

(* ------------------------------------------------------------------ *)
(* Shortest paths                                                     *)
(* ------------------------------------------------------------------ *)

(** [shortest_paths ctx ~all pattern] evaluates
    [shortestPath((a)-[:T*]->(b))] (and [allShortestPaths]): a BFS over
    relationships satisfying the single variable-length step, between
    two *bound* endpoints.  Returns a {!Value.Path} (or a list of paths
    under [~all:true]); [Null] (or the empty list) when no path exists.
    The zero-length path is a valid answer when the endpoints coincide
    and the range admits length 0. *)
let shortest_paths (ctx : Ctx.t) ~all (p : pattern) : Value.t =
  Graph.ensure_csr ctx.graph;
  let rp, end_np =
    match p.pat_steps with
    | [ (rp, np) ] when rp.rp_range <> None -> (rp, np)
    | _ ->
        Ctx.error
          "shortestPath requires a single variable-length relationship \
           pattern, e.g. shortestPath((a)-[:T*]->(b))"
  in
  let endpoint (np : node_pat) =
    match np.np_var with
    | Some v -> (
        match Record.find_opt ctx.row v with
        | Some (Value.Node id) -> Some id
        | Some Value.Null -> None
        | Some v ->
            Ctx.error "shortestPath endpoint is not a node: %s"
              (Value.to_string v)
        | None ->
            Ctx.error
              "shortestPath endpoints must be bound (variable `%s` is not)" v)
    | None -> Ctx.error "shortestPath endpoints must be named and bound"
  in
  match (endpoint p.pat_start, endpoint end_np) with
  | None, _ | _, None -> Value.Null (* null endpoint: no path *)
  | Some src, Some tgt -> (
      let lo, hi =
        match rp.rp_range with
        | Some (lo, hi) -> (Option.value ~default:1 lo, hi)
        | None ->
            (* the caller dispatches here only under [rp_range <> None];
               fail structurally rather than aborting the process *)
            Ctx.internal
              "shortestPath: relationship pattern lost its length range"
      in
      (* BFS storing per-node predecessor lists so that all shortest
         walks can be reconstructed.  On the compact backend the whole
         search runs in CSR dense-index space: visited levels and
         predecessor lists are flat arrays over the node count, the
         frontier queue holds dense indices, and the adjacency fold is
         the record-free {!fold_adjacent_csr_tyd} — a relationship
         record is only fetched when the pattern carries property
         predicates.  Discovery order (id-sorted slices, FIFO frontier,
         same predecessor cons order) matches the map path exactly, so
         both backends enumerate identical walk lists. *)
      let rel_walks =
        match Graph.csr_view ctx.graph with
        | Some c ->
            let open Graph.Csr in
            let src_i = node_idx c src and tgt_i = node_idx c tgt in
            let found_depth = ref None in
            let level = Array.make (c.node_count + 1) (-1) in
            let preds : (int * int) list array =
              (* (dense rel index, dense predecessor index) *)
              Array.make (c.node_count + 1) []
            in
            if src_i >= 0 then begin
              let has_props = rp.rp_props <> [] in
              (* type symbols and direction resolved once, not per
                 frontier node *)
              let tymatch = compile_tymatch rp in
              let dir = rp.rp_dir in
              level.(src_i) <- 0;
              let queue = Queue.create () in
              Queue.add src_i queue;
              let expand_from depth =
                (match !found_depth with Some d -> depth < d | None -> true)
                && match hi with Some h -> depth < h | None -> true
              in
              while not (Queue.is_empty queue) do
                let i = Queue.pop queue in
                let depth = level.(i) in
                if expand_from depth then
                  fold_adjacent_csr_tyd c ~tymatch ~dir
                    c.node_recs.(i).Graph.n_id
                    (fun j far () ->
                      (* the type filter already ran inside the fold *)
                      if
                        (not has_props)
                        || rel_satisfies ctx ctx.row rp c.rel_recs.(j)
                      then begin
                        let fi = node_idx c far in
                        (if level.(fi) < 0 then begin
                           level.(fi) <- depth + 1;
                           preds.(fi) <- [ (j, i) ];
                           Queue.add fi queue
                         end
                         else if level.(fi) = depth + 1 then
                           preds.(fi) <- (j, i) :: preds.(fi));
                        if
                          fi = tgt_i
                          && depth + 1 >= lo
                          && !found_depth = None
                        then found_depth := Some (depth + 1)
                      end)
                    ()
              done
            end;
            let rec walks_to i depth suffix : Value.rel_id list list =
              if depth = 0 then if i = src_i then [ suffix ] else []
              else
                List.concat_map
                  (fun (j, prev) ->
                    if level.(prev) = depth - 1 then
                      walks_to prev (depth - 1) (c.rel_id.(j) :: suffix)
                    else [])
                  preds.(i)
            in
            if src = tgt && lo = 0 then [ [] ]
            else (
              match !found_depth with
              | Some depth when tgt_i >= 0 -> walks_to tgt_i depth []
              | _ -> [])
        | None ->
            let preds : (int, (Value.rel_id * int) list) Hashtbl.t =
              Hashtbl.create 16
            in
            let level : (int, int) Hashtbl.t = Hashtbl.create 16 in
            Hashtbl.replace level src 0;
            let queue = Queue.create () in
            Queue.add src queue;
            let adj =
              compile_adjacent ctx.graph rp ~reversed:false ~descending:false
            in
            let check = compile_rel_check ctx ~csr:false adj rp ctx.row in
            let found_depth = ref None in
            let expand_from depth =
              (match !found_depth with Some d -> depth < d | None -> true)
              && match hi with Some h -> depth < h | None -> true
            in
            while not (Queue.is_empty queue) do
              let node = Queue.pop queue in
              let depth = Hashtbl.find level node in
              if expand_from depth then
                adj.adj node
                  (fun h far () ->
                    if check h then begin
                      let rid = adj.rid h in
                      (match Hashtbl.find_opt level far with
                      | None ->
                          Hashtbl.replace level far (depth + 1);
                          Hashtbl.replace preds far [ (rid, node) ];
                          Queue.add far queue
                      | Some d when d = depth + 1 ->
                          Hashtbl.replace preds far
                            ((rid, node) :: Hashtbl.find preds far)
                      | Some _ -> ());
                      if far = tgt && depth + 1 >= lo && !found_depth = None
                      then found_depth := Some (depth + 1)
                    end)
                  ()
            done;
            (* all shortest walks as forward relationship-id lists.  The
               walk is threaded backwards from the target as an
               already-forward [suffix] (each step conses the
               relationship traversed *after* it), so no per-hop list
               copy: the old [walk @ [r_id]] append made reconstruction
               quadratic in the walk length. *)
            let rec walks_to node depth suffix : Value.rel_id list list =
              if depth = 0 then if node = src then [ suffix ] else []
              else
                List.concat_map
                  (fun (rid, prev) ->
                    if Hashtbl.find_opt level prev = Some (depth - 1) then
                      walks_to prev (depth - 1) (rid :: suffix)
                    else [])
                  (match Hashtbl.find_opt preds node with
                  | Some l -> l
                  | None -> [])
            in
            if src = tgt && lo = 0 then
              (* the zero-length path is trivially shortest *)
              [ [] ]
            else (
              match !found_depth with
              | Some depth -> walks_to tgt depth []
              | None -> [])
      in
      let to_path rels =
        let nodes_rev =
          List.fold_left
            (fun acc rid ->
              let r = Graph.rel_exn ctx.graph rid in
              let last = List.hd acc in
              let next = if r.Graph.src = last then r.Graph.tgt else r.Graph.src in
              next :: acc)
            [ src ] rels
        in
        { Value.path_nodes = List.rev nodes_rev; path_rels = rels }
      in
      let paths = List.map to_path rel_walks in
      if all then Value.List (List.map (fun p -> Value.Path p) paths)
      else
        match paths with [] -> Value.Null | p :: _ -> Value.Path p)
