(** Request spans recorded around the calls into each layer's public
    functions, kept in memory and written out at the end.

    A span has a name, a start, an end, the span that caused it
    ([parent], [0] for a request's root) and the identifier of its
    request.  A span's self time is its duration minus the part of its
    interval that its children cover. *)

type span = { id : int; parent : int; req : int; name : string; t0 : int64; t1 : int64 }

(** One recorder per client thread: no locking on the hot path. *)
type recorder = {
  tid : int;
  mutable next : int;
  mutable spans : span list;
  mutable classes : (int * string) list;  (** request id -> op class *)
}

let recorder tid = { tid; next = 0; spans = []; classes = [] }
let now = Cypher_util.Mclock.now_ns

let fresh r =
  r.next <- r.next + 1;
  (r.tid lsl 40) lor r.next

let add r ~id ~parent ~req name t0 t1 = r.spans <- { id; parent; req; name; t0; t1 } :: r.spans

(** [span r ~parent ~req name f] times [f id] as a span [id]. *)
let span r ~parent ~req name f =
  let id = fresh r in
  let t0 = now () in
  let x = f id in
  add r ~id ~parent ~req name t0 (now ());
  x

(** [request r cls f] opens a request's root span. *)
let request r cls f =
  let req = fresh r in
  r.classes <- (req, cls) :: r.classes;
  let t0 = now () in
  let x = f req in
  add r ~id:req ~parent:0 ~req "request" t0 (now ());
  x

(** Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(** Self time of every span, in ns. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, Int64.sub (Int64.sub s.t1 s.t0) (covered ~lo:s.t0 ~hi:s.t1 kids)))
    spans

(** Per-request breakdown: request id -> (duration ns, [(layer, self ns)]),
    where the root's own self time is reported as ["unattributed"]. *)
let breakdown spans =
  let reqs = Hashtbl.create 1024 in
  List.iter
    (fun (s, self) ->
      let dur, layers =
        Option.value ~default:(0L, []) (Hashtbl.find_opt reqs s.req)
      in
      let layer = if s.parent = 0 then "unattributed" else s.name in
      let dur = if s.parent = 0 then Int64.sub s.t1 s.t0 else dur in
      let prev = Option.value ~default:0L (List.assoc_opt layer layers) in
      Hashtbl.replace reqs s.req
        (dur, (layer, Int64.add prev self) :: List.remove_assoc layer layers))
    (self_times spans);
  reqs

(** Write every span as one tab-separated line. *)
let write path recorders =
  let oc = open_out path in
  output_string oc "req\tid\tparent\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" s.req s.id s.parent s.name s.t0 s.t1)
        (List.rev r.spans))
    recorders;
  close_out oc
