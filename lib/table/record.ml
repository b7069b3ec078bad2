(** Records: the rows of driving tables.

    A record is a key–value map from variable names to Cypher values.
    In Cypher the records of a table are *consistent*: they share the same
    set of keys (the table's columns); {!Table} maintains that invariant.

    Physically a record is a flat value array over a compiled {!Slots}
    layout — the driving-table definition of Section 8.1 made concrete:
    the rows of one clause share one layout, compiled once at the clause
    boundary, so binding an in-layout name is an array copy plus an
    index store and a lookup is an index load.  A slot may hold
    {!Slots.absent} (physically unique, compared with [==]) while its
    variable is not bound — unbound, and distinct from an explicit
    [Null] binding.

    This module is the only one that knows the row format.  Observable
    orderings (keys, bindings, comparison, printing) follow ascending
    name order through the layout's sorted permutation, whatever the
    slot order, so two rows binding the same names in different slot
    orders are indistinguishable. *)

open Cypher_graph

type t = { tab : Slots.t; cells : Value.t array }

let empty = { tab = Slots.root; cells = [||] }

let probe cells i =
  let v = Array.unsafe_get cells i in
  if v == Slots.absent then None else Some v

let bind r name v =
  let i = Slots.index r.tab name in
  if i >= 0 then begin
    let cells = Array.copy r.cells in
    cells.(i) <- v;
    { r with cells }
  end
  else
    (* a name outside the layout (evaluator loop variables, update
       clauses' new variables): extend the layout — memoized, so per-row
       binds of the same variable share one extended table *)
    let tab = Slots.extend r.tab name in
    let n = Array.length r.cells in
    let cells = Array.make (n + 1) v in
    Array.blit r.cells 0 cells 0 n;
    { tab; cells }

let widen r names =
  let tab =
    List.fold_left
      (fun tab name ->
        if Slots.index tab name >= 0 then tab else Slots.extend tab name)
      r.tab names
  in
  if tab == r.tab then r
  else
    let cells = Array.make (Slots.width tab) Slots.absent in
    Array.blit r.cells 0 cells 0 (Array.length r.cells);
    { tab; cells }

let find_opt r name =
  let i = Slots.index r.tab name in
  if i < 0 then None else probe r.cells i

let compile_find r0 name : t -> Value.t option =
  let tab0 = r0.tab in
  let i = Slots.index tab0 name in
  if i < 0 then fun r -> find_opt r name
  else fun r -> if r.tab == tab0 then probe r.cells i else find_opt r name

let find r name = match find_opt r name with Some v -> v | None -> Value.Null

let mem r name = find_opt r name <> None

(* [fold_sorted f r acc] folds [f name value] over the bound slots of
   [r] in descending name order, so a consing [f] builds an ascending
   list *)
let fold_sorted f r acc =
  let sorted = r.tab.Slots.sorted in
  let rec go k acc =
    if k < 0 then acc
    else
      let i = Array.unsafe_get sorted k in
      let v = Array.unsafe_get r.cells i in
      go (k - 1) (if v == Slots.absent then acc else f (Slots.name r.tab i) v acc)
  in
  go (Array.length sorted - 1) acc

let keys r = fold_sorted (fun k _ acc -> k :: acc) r []
let bindings r = fold_sorted (fun k v acc -> (k, v) :: acc) r []

let of_list l =
  let tab = Slots.of_names (List.map fst l) in
  let cells = Array.make (Slots.width tab) Slots.absent in
  List.iter (fun (k, v) -> cells.(Slots.index tab k) <- v) l;
  { tab; cells }

let of_slots tab cells = { tab; cells }

let slots_view r = (r.tab, r.cells)

let slot_bind r i v =
  let cur = r.cells.(i) in
  if cur == Slots.absent then begin
    let cells = Array.copy r.cells in
    cells.(i) <- v;
    Some { r with cells }
  end
  else if Value.equal_strict cur v then Some r
  else None

(* [relayout fill tab r]: [r]'s bindings re-laid over [tab], slots
   unbound in [r] holding [fill], bindings outside [tab] dropped *)
let relayout fill tab r =
  let cells = Array.make (Slots.width tab) fill in
  Array.iteri
    (fun j v ->
      if v != Slots.absent then
        let i = Slots.index tab (Slots.name r.tab j) in
        if i >= 0 then cells.(i) <- v)
    r.cells;
  { tab; cells }

let seed tab r = if r.tab == tab then r else relayout Slots.absent tab r

let builder tab r = relayout Slots.absent tab r

let set r name v =
  let i = Slots.index r.tab name in
  if i < 0 then invalid_arg ("Record.set: no slot for " ^ name);
  r.cells.(i) <- v

let full cells =
  let n = Array.length cells in
  let rec go i = i >= n || (Array.unsafe_get cells i != Slots.absent && go (i + 1)) in
  go 0

(* the layout's slot order is exactly [names] *)
let has_names (tab : Slots.t) names =
  let arr = tab.Slots.names in
  let n = Array.length arr in
  let rec agree i = function
    | [] -> i = n
    | name :: rest ->
        i < n
        && (let s = Array.unsafe_get arr i in
            s == name || String.equal s name)
        && agree (i + 1) rest
  in
  agree 0 names

let projection names rows : t -> t =
  let tab =
    match rows with
    | r :: _ when has_names r.tab names -> r.tab
    | _ -> Slots.of_names names
  in
  fun r ->
    if r.tab == tab && full r.cells then r
    else if has_names r.tab names && full r.cells then { tab; cells = r.cells }
    else relayout Value.Null tab r

let map_values f r =
  { r with cells = Array.map (fun v -> if v == Slots.absent then v else f v) r.cells }

(* comparison and equality: the ascending (name, value) binding
   sequences compared lexicographically, a missing binding ordering
   below any present one.  Both walk the two rows' sorted slot
   permutations in step, skipping absent slots, so rows binding the same
   names in different slot orders compare equal, and nothing is
   materialised. *)

let rec next_bound r k =
  let sorted = r.tab.Slots.sorted in
  if k < Array.length sorted && Array.unsafe_get r.cells (Array.unsafe_get sorted k) == Slots.absent
  then next_bound r (k + 1)
  else k

let compare_with cmp r1 r2 =
  let n1 = Array.length r1.tab.Slots.sorted
  and n2 = Array.length r2.tab.Slots.sorted in
  let same = r1.tab == r2.tab in
  let rec go k1 k2 =
    let k1 = next_bound r1 k1 and k2 = next_bound r2 k2 in
    if k1 >= n1 then if k2 >= n2 then 0 else -1
    else if k2 >= n2 then 1
    else
      let i1 = r1.tab.Slots.sorted.(k1) and i2 = r2.tab.Slots.sorted.(k2) in
      let c =
        if same && i1 = i2 then 0
        else String.compare (Slots.name r1.tab i1) (Slots.name r2.tab i2)
      in
      if c <> 0 then c
      else
        let c = cmp r1.cells.(i1) r2.cells.(i2) in
        if c <> 0 then c else go (k1 + 1) (k2 + 1)
  in
  go 0 0

let compare r1 r2 = compare_with Value.compare_total r1 r2

let equal r1 r2 =
  compare_with (fun v1 v2 -> if Value.equal_strict v1 v2 then 0 else 1) r1 r2 = 0

let pp ppf r =
  Fmt.pf ppf "(%a)"
    Fmt.(
      list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s: %a" k Value.pp v))
    (bindings r)
