(** Records: the rows of driving tables.

    A record is a key–value map from variable names to Cypher values.
    In Cypher the records of a table are *consistent*: they share the
    same set of keys (the table's columns); {!Table} maintains that
    invariant.

    Physically a record is a flat value array over a compiled {!Slots}
    layout that the rows of one clause share.  This module is the only
    one that knows that format; every accessor observes the bindings in
    ascending name order, whatever the slot order. *)

open Cypher_graph

type t

(** The row with no bindings, over {!Slots.root}. *)
val empty : t

val bind : t -> string -> Value.t -> t

(** [widen r names] is [r] over its layout extended with every name of
    [names] it lacks (those slots unbound); [r] itself when none is
    missing.  Call it once before a loop that binds [names] on rows
    descending from [r], so the per-row binds stay in layout. *)
val widen : t -> string list -> t

val find_opt : t -> string -> Value.t option

(** [compile_find r0 name] compiles a lookup for [name] against the
    layout of [r0] — a representative of the rows about to be scanned.
    The index resolves once and same-layout rows read by array probe;
    other rows are read by name, so the compiled lookup is sound on
    arbitrary rows.  For scans that look one name up across many rows
    (aggregation, projection). *)
val compile_find : t -> string -> t -> Value.t option

(** [find r name] is the value bound to [name], or [Null] when absent
    (used for consistency padding, e.g. by OPTIONAL MATCH or UNION). *)
val find : t -> string -> Value.t

val mem : t -> string -> bool

(** The bound names, in ascending order. *)
val keys : t -> string list

val bindings : t -> (string * Value.t) list

(** [of_list l] builds a row over a layout compiled from the names of
    [l]; later bindings of a repeated name shadow earlier ones. *)
val of_list : (string * Value.t) list -> t

(** [of_slots tab cells] adopts [cells] as a row over [tab] without
    copying; the caller transfers ownership of the array.  Unbound
    slots must hold {!Slots.absent}. *)
val of_slots : Slots.t -> Value.t array -> t

(** [slots_view r] exposes the layout and cells (shared, not copied —
    callers must not write). *)
val slots_view : t -> Slots.t * Value.t array

(** [slot_bind r i v] is the conflict-checked bind of slot [i]: the
    extended row when the slot is empty, [r] itself when it already
    holds a value equal (strictly) to [v], [None] on a conflicting
    rebind.  The hot path of the matcher's precompiled binding sites:
    the slot index is resolved once per pattern invocation, so the
    per-embedding work is one probe and a copying store.  Only valid
    when [r]'s layout has slot [i] — the matcher guarantees this by
    resolving [i] against the row it starts from (in-layout binds
    preserve the layout, extensions only append). *)
val slot_bind : t -> int -> Value.t -> t option

(** [seed tab r] re-lays [r] out over [tab] — the clause-boundary
    conversion of the read pipeline.  Layout names unbound in [r] start
    unbound; bindings outside the layout are dropped. *)
val seed : Slots.t -> t -> t

(** [builder tab r] is {!seed}[ tab r] in a fresh array nothing else
    shares, so the caller may {!set} its slots in place until it hands
    the row on — for a clause binding many names on one row, where a
    copying {!bind} per name would be quadratic. *)
val builder : Slots.t -> t -> t

(** [set r name v] binds [name] in place on a {!builder} row not yet
    handed on.
    @raise Invalid_argument when [name] has no slot in [r]'s layout. *)
val set : t -> string -> Value.t -> unit

(** [projection names rows] is the consistency projection onto the
    duplicate-free column list [names], compiled once for the batch
    [rows]: applied to a row, it keeps only the bindings for [names],
    padding missing ones with [Null].  The target layout is the first
    row's when its slot order is exactly [names], else compiled once
    here. *)
val projection : string list -> t list -> t -> t

(** [map_values f r] rewrites every bound value (used to replace deleted
    entities by nulls, and to rewrite collapsed ids after MERGE SAME). *)
val map_values : (Value.t -> Value.t) -> t -> t

(** Equality and the total order compare the ascending (name, value)
    binding sequences, so they ignore slot order. *)
val equal : t -> t -> bool

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
