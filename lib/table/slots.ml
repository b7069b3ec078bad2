(** Slot tables: compiled name → index layouts for array rows.

    Within one clause execution every driving row has the same columns,
    so the mapping from variable names to row positions can be computed
    once — at the clause boundary — instead of being re-derived by every
    bind and lookup through a string-keyed map.  A slot table is that
    compiled layout: a deduplicated name array in first-occurrence
    order, plus the index permutation that lists slots in ascending name
    order (so rows observe their keys in name order whatever the slot
    order — see {!Record}).

    Every layout is compiled per call or per table, so its {!extend}
    memo lives as long as the rows of that execution — except {!root},
    the one process-global layout, which therefore never memoizes.

    Lookup in a narrow layout is a linear scan comparing physical
    equality before string contents: the names flowing in are AST/column
    strings shared by every row of a clause, so the [==] probe almost
    always decides, and a handful of variables scan faster than any
    search structure.  A wide layout (a snapshot's CREATE binds one
    variable per node) is binary-searched through the sorted
    permutation instead, so no layout operation is worse than
    O(w log w) in its width. *)

open Cypher_util.Maps
open Cypher_graph

type t = {
  names : string array;  (** slot order: first occurrence wins *)
  sorted : int array;  (** slot indices in ascending name order *)
  mutable exts : (string * t) list;
      (** memoized single-name extensions (see {!extend}).  Extension
          from pool workers can race; a lost memo update only costs a
          duplicate (equivalent) table, never correctness: consumers
          either compare layouts by name, or take a physical-equality
          fast path ([Record.compare], [equal], [compile_find], [seed],
          [projection]) that falls back to comparing by name, so a
          duplicate only misses the fast path. *)
}

(** A physically unique sentinel marking an unbound slot.  Array rows
    are always full-width, but a slot may not be bound yet (pattern
    variables during matching) or may have been removed; [absent] is
    distinguishable from an explicit [Null] binding (OPTIONAL MATCH
    padding binds real nulls) only by physical identity — compare with
    [==], and never let it escape a {!Record} accessor. *)
let absent : Value.t = Value.String (String.make 8 '\000')

let width t = Array.length t.names
let name t i = t.names.(i)

(* widest layout still scanned linearly by [index] *)
let scan_width = 8

(** [index t name] is [name]'s slot, or [-1] when it has none. *)
let index t name =
  let names = t.names in
  let n = Array.length names in
  if n <= scan_width then
    let rec go i =
      if i >= n then -1
      else
        let s = Array.unsafe_get names i in
        if s == name || String.equal s name then i else go (i + 1)
    in
    go 0
  else
    let sorted = t.sorted in
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) lsr 1 in
        let i = Array.unsafe_get sorted mid in
        let c = String.compare name (Array.unsafe_get names i) in
        if c = 0 then i else if c < 0 then search lo mid else search (mid + 1) hi
    in
    search 0 n

(** [of_names names] compiles a layout over [names], deduplicated to
    first occurrence (the same discipline as [Table.dedup_columns]). *)
let of_names names =
  let rec dedup seen acc = function
    | [] -> List.rev acc
    | c :: rest ->
        if Sset.mem c seen then dedup seen acc rest
        else dedup (Sset.add c seen) (c :: acc) rest
  in
  let names = Array.of_list (dedup Sset.empty [] names) in
  let sorted = Array.init (Array.length names) Fun.id in
  Array.sort (fun i j -> String.compare names.(i) names.(j)) sorted;
  { names; sorted; exts = [] }

let names t = Array.to_list t.names

(** The empty layout of [Record.empty] and the unit table's row, shared
    by every statement and every domain.  {!extend} never memoizes on
    it: a memo here would gain an entry for every variable name any
    client ever binds from the unit row — an unbounded leak with linear
    lookups on a server that runs arbitrary query text.  Its extensions
    are compiled per call instead ([Record.widen] keeps loops from
    paying that per row). *)
let root = { names = [||]; sorted = [||]; exts = [] }

(** [extend t name] is the layout of [t] with [name] appended (slot
    [width t]).  Memoized on [t]: the evaluator extends a clause's
    layout with the same loop variable (list comprehensions, reduce,
    pattern predicates) for every row, and must not compile a fresh
    table per element.  Never memoized on {!root}. *)
let extend t name =
  if t == root then of_names [ name ]
  else
    match
      List.find_opt (fun (s, _) -> s == name || String.equal s name) t.exts
    with
    | Some (_, t') -> t'
    | None ->
        let t' = of_names (Array.to_list t.names @ [ name ]) in
        t.exts <- (name, t') :: t.exts;
        t'
