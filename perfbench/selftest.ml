(** The benchmark's own tests, run before every measurement: a run
    whose generator, checker, protocol client or span arithmetic is
    wrong must not produce numbers. *)

let failures = ref []
let expect name ok = if not ok then failures := name :: !failures

let stream_text spec ~seed ~ops =
  let g = Social.make_graph spec ~seed in
  let s = Social.stream spec ~seed g in
  let b = Buffer.create 65536 in
  let nodes, rels = Social.csv g in
  Buffer.add_string b nodes;
  Buffer.add_string b rels;
  for client = 0 to 1 do
    for index = 0 to ops - 1 do
      List.iter
        (fun l ->
          Buffer.add_string b l;
          Buffer.add_char b '\n')
        (Social.op s ~client ~index).Social.lines
    done
  done;
  Buffer.contents b

let paper_text ~seed =
  String.concat "\n"
    (List.init 50 (fun index ->
         String.concat ","
           (List.map
              (fun r ->
                Printf.sprintf "%d/%s" r.Paper.cid
                  (match r.Paper.pid with Some p -> string_of_int p | None -> "null"))
              (Paper.batch ~seed ~index))))

(* share of each op kind over the first [ops] ops of client 0 *)
let mix spec ~seed ~ops =
  let g = Social.make_graph spec ~seed in
  let s = Social.stream spec ~seed g in
  let counts = Hashtbl.create 8 in
  for index = 0 to ops - 1 do
    let k = (Social.op s ~client:0 ~index).Social.kind in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  fun k -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) /. float_of_int ops

let determinism () =
  let small = { Social.social_read with Social.persons = 500 } in
  List.iter
    (fun spec ->
      let a = stream_text spec ~seed:7 ~ops:400 and b = stream_text spec ~seed:7 ~ops:400 in
      expect (spec.Social.name ^ ": same seed, byte-identical stream") (String.equal a b);
      expect (spec.Social.name ^ ": another seed, another stream")
        (not (String.equal a (stream_text spec ~seed:8 ~ops:400))))
    [ small; Social.social_write ];
  expect "paper-import: same seed, same batches" (paper_text ~seed:7 = paper_text ~seed:7);
  expect "paper-import: another seed, other batches" (paper_text ~seed:7 <> paper_text ~seed:8);
  List.iter
    (fun (spec, kinds) ->
      let m1 = mix spec ~seed:1 ~ops:4000 and m2 = mix spec ~seed:2 ~ops:4000 in
      List.iter
        (fun k ->
          expect
            (Printf.sprintf "%s: mix share of %s agrees across seeds" spec.Social.name k)
            (Float.abs (m1 k -. m2 k) < 0.03 && m1 k > 0.0))
        kinds)
    [
      (small, [ "point"; "hop1"; "hop2"; "fof"; "sp"; "visit" ]);
      (Social.social_write, [ "post"; "visit"; "tag"; "tx"; "friends" ]);
    ]

(* a fake server answering the invariant queries from a table *)
let fake answers q =
  let v = List.assoc q answers in
  Proto.read_response
    (let lines = ref [ "| v |"; Printf.sprintf "| %d |" v; "OK rows=1 version=1" ] in
     fun () ->
       let l = List.hd !lines in
       lines := List.tl !lines;
       l)

let checker () =
  let g = Social.make_graph Social.social_write ~seed:3 in
  let t = Social.tally () in
  List.iter (Social.acknowledge t)
    [
      { Social.no_effect with Social.visits = 1 };
      { Social.no_effect with Social.visits = 1; knows = 1 };
      { Social.no_effect with Social.posts = 1 };
      { Social.no_effect with Social.tag = Some 4 };
      { Social.no_effect with Social.tag = Some 4 };
    ];
  let truth = Social.invariants g t in
  expect "invariants hold on the true answers" (Load.check_invariants (fake truth) g t = []);
  let lost =
    List.map (fun (q, v) -> if q = Social.q_sum_visits then (q, v - 1) else (q, v)) truth
  in
  expect "a lost increment is caught" (List.length (Load.check_invariants (fake lost) g t) = 1);
  let k = 17 in
  let right = Social.hop1_rows g k in
  expect "the right friend list passes" (Social.check (Social.Rows right) right = None);
  let wrong = List.tl right in
  expect "a wrong read answer is caught" (Social.check (Social.Rows wrong) right <> None);
  expect "a wrong count is caught"
    (Social.check (Social.Rows (Social.hop2_rows g k)) [ [ "0" ] ] <> None);
  expect "a missing base friend is caught"
    (Social.check (Social.Contains (Social.base_friends g k)) (List.tl right) <> None);
  expect "extra friends are allowed"
    (Social.check (Social.Contains (Social.base_friends g k)) (right @ [ [ "999"; "'x'" ] ]) = None)

let protocol () =
  let feed lines =
    let q = ref lines in
    Proto.read_response (fun () ->
        let l = List.hd !q in
        q := List.tl !q;
        l)
  in
  let r =
    feed
      [ "| name |"; "| 'a' |"; " OK rows=9 version=9 is data"; " ERR too"; "OK rows=2 version=41" ]
  in
  expect "escaped payload lines are payload, unescaped"
    (r.Proto.payload = [ "| name |"; "| 'a' |"; "OK rows=9 version=9 is data"; "ERR too" ]);
  expect "the terminator is parsed"
    (r.Proto.answer = Proto.Ok_ { rows = 2; version = 41 });
  let e = feed [ "ERR boom: no such thing" ] in
  expect "ERR terminator"
    (e.Proto.answer = Proto.Err "boom: no such thing" && e.Proto.payload = []);
  expect "table cells" (Proto.cells "| 1 | 'p1' | null |" = Some [ "1"; "'p1'"; "null" ]);
  expect "non-table line" (Proto.cells "Set 1 property" = None);
  expect "server port line" (Server_proc.parse_port "listening on 127.0.0.1:4242" = Some 4242);
  expect "recovery line"
    (Server_proc.parse_recovered "recovered 12 statements on top of snapshot" = Some 12)

let spans () =
  let r = Trace.recorder 1 in
  let add id parent name t0 t1 =
    Trace.add r ~id ~parent ~req:1 name (Int64.of_int t0) (Int64.of_int t1)
  in
  (* root [0,100]; a [10,40] and b [30,60] overlap; a has child c [15,20] *)
  add 1 0 "request" 0 100;
  add 2 1 "a" 10 40;
  add 3 1 "b" 30 60;
  add 4 2 "c" 15 20;
  let self =
    List.map (fun (s, ns) -> (s.Trace.name, Int64.to_int ns)) (Trace.self_times r.Trace.spans)
  in
  let get n = List.assoc n self in
  expect "root self time excludes the union of its children" (get "request" = 50);
  expect "child self time excludes its own child" (get "a" = 25);
  expect "overlapping sibling keeps its whole duration" (get "b" = 30);
  expect "leaf self time is its duration" (get "c" = 5);
  let dur, layers = Hashtbl.find (Trace.breakdown r.Trace.spans) 1 in
  expect "request duration" (dur = 100L);
  expect "root self is the unattributed remainder" (List.assoc "unattributed" layers = 50L);
  expect "clipping to the parent" (Trace.covered ~lo:10L ~hi:20L [ (0L, 12L); (18L, 30L) ] = 4L)

(** All failures, by name; empty when every self-test passes. *)
let run () =
  failures := [];
  determinism ();
  checker ();
  protocol ();
  spans ();
  List.rev !failures
