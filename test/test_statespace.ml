(** Differential tests for the interned state-space engines: the packed
    int-array representation must change {e nothing} observable.

    - [Reachability.build] is checked against an inline reference BFS
      over [Global.successors] (the algorithm the pre-interning
      implementation used): same states, same edge multiset, same stats.
    - [Model_check.run] is checked against [Model_check_ref] (the
      original string-keyed engine, kept verbatim): identical [explored]
      counts and verdicts for every catalog protocol at small n/k, under
      both termination rules.
    - The packed encoding round-trips: [Packed.decode (Packed.encode st)]
      reproduces [st] exactly, including the order-sensitive move/poll
      bookkeeping lists. *)

module MC = Engine.Model_check

(* ---------------- reference reachability BFS ---------------- *)

module GTbl = Hashtbl.Make (Core.Global)

type ref_graph = { r_states : int; r_edges : int; r_terminal : int; r_final : int }

let reference_reach (p : Core.Protocol.t) : ref_graph =
  let seen = GTbl.create 256 in
  let queue = Queue.create () in
  let g0 = Core.Global.initial p in
  GTbl.add seen g0 ();
  Queue.add g0 queue;
  let states = ref 0 and edges = ref 0 and terminal = ref 0 and final = ref 0 in
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    incr states;
    if Core.Global.is_final p g then incr final;
    let succs = Core.Global.successors p g in
    edges := !edges + List.length succs;
    if succs = [] then incr terminal;
    List.iter
      (fun (_, _, g') ->
        if not (GTbl.mem seen g') then begin
          GTbl.add seen g' ();
          Queue.add g' queue
        end)
      succs
  done;
  { r_states = !states; r_edges = !edges; r_terminal = !terminal; r_final = !final }

let test_reachability_differential () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun n ->
          let p = e.Core.Catalog.build n in
          let g = Core.Reachability.build p in
          let s = Core.Reachability.stats g in
          let r = reference_reach p in
          let ctx = Fmt.str "%s n=%d" e.Core.Catalog.label n in
          Alcotest.(check int) (ctx ^ " states") r.r_states s.Core.Reachability.states;
          Alcotest.(check int) (ctx ^ " edges") r.r_edges s.Core.Reachability.edges;
          Alcotest.(check int) (ctx ^ " terminal") r.r_terminal s.Core.Reachability.terminal;
          Alcotest.(check int) (ctx ^ " final") r.r_final s.Core.Reachability.final)
        [ 2; 3 ])
    Core.Catalog.all

(* The interned graph must also agree with itself structurally: the edge
   list of every node targets valid indices and node [i] is at index [i]
   (DOT rendering and the analyses index directly). *)
let test_reachability_indices () =
  let g = Core.Reachability.build (Core.Catalog.decentralized_3pc 3) in
  Core.Reachability.iter_nodes
    (fun node ->
      Alcotest.(check bool) "self index" true (Core.Reachability.node g node.Core.Reachability.index == node);
      List.iter
        (fun (site, _, target) ->
          Alcotest.(check bool) "site in range" true (site >= 1 && site <= 3);
          Alcotest.(check bool) "target in range" true
            (target >= 0 && target < Core.Reachability.n_nodes g))
        node.Core.Reachability.succs)
    g

(* One-pass stats must equal the list-based accessors it replaced. *)
let test_stats_consistency () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      let g = Core.Reachability.build (e.Core.Catalog.build 3) in
      let s = Core.Reachability.stats g in
      Alcotest.(check int) "states" (Core.Reachability.n_nodes g) s.Core.Reachability.states;
      Alcotest.(check int) "edges" (Core.Reachability.n_edges g) s.Core.Reachability.edges;
      Alcotest.(check int) "terminal"
        (List.length (Core.Reachability.terminal_nodes g))
        s.Core.Reachability.terminal;
      Alcotest.(check int) "deadlocked"
        (List.length (Core.Reachability.deadlocked_nodes g))
        s.Core.Reachability.deadlocked;
      Alcotest.(check int) "inconsistent"
        (List.length (Core.Reachability.inconsistent_nodes g))
        s.Core.Reachability.inconsistent;
      let commit, abort = Core.Reachability.reachable_outcomes g in
      Alcotest.(check bool) "commit" commit s.Core.Reachability.commit_reachable;
      Alcotest.(check bool) "abort" abort s.Core.Reachability.abort_reachable)
    Core.Catalog.all

(* ---------------- model-check differential ---------------- *)

let check_config p k rule =
  { MC.rulebook = Engine.Rulebook.compile p; max_crashes = k; limit = 2_000_000; rule }

let assert_reports_equal ctx (a : MC.report) (b : MC.report) =
  Alcotest.(check int) (ctx ^ " explored") b.MC.explored a.MC.explored;
  Alcotest.(check bool) (ctx ^ " safe") b.MC.safe a.MC.safe;
  Alcotest.(check bool) (ctx ^ " nonblocking") b.MC.nonblocking a.MC.nonblocking;
  Alcotest.(check int) (ctx ^ " inconsistent") (List.length b.MC.inconsistent)
    (List.length a.MC.inconsistent);
  Alcotest.(check int) (ctx ^ " blocked") (List.length b.MC.blocked_terminals)
    (List.length a.MC.blocked_terminals);
  Alcotest.(check bool) (ctx ^ " cex") (b.MC.counterexample <> None) (a.MC.counterexample <> None)

let test_model_check_differential () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun (n, k) ->
          let cfg = check_config (e.Core.Catalog.build n) k `Skeen in
          assert_reports_equal
            (Fmt.str "%s n=%d k=%d" e.Core.Catalog.label n k)
            (MC.run cfg) (Reference.Model_check_ref.run cfg))
        [ (2, 0); (2, 1); (2, 2); (3, 0); (3, 1) ])
    Core.Catalog.all

let test_model_check_differential_quorum () =
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun (n, k) ->
          let cfg = check_config (e.Core.Catalog.build n) k (`Quorum ((n / 2) + 1)) in
          assert_reports_equal
            (Fmt.str "%s n=%d k=%d quorum" e.Core.Catalog.label n k)
            (MC.run cfg) (Reference.Model_check_ref.run cfg))
        [ (2, 1); (3, 1) ])
    Core.Catalog.all

(* The deliberately broken 2PC variant (coordinator may abort without
   reading votes) and 1PC: the engines must agree on the impaired
   protocols too, and both must still see 2PC-family blocking. *)
let test_model_check_differential_broken () =
  let cfg = check_config (Core.Catalog.central_2pc_hasty 3) 1 `Skeen in
  let a = MC.run cfg and b = Reference.Model_check_ref.run cfg in
  assert_reports_equal "hasty-2pc n=3 k=1" a b;
  Alcotest.(check bool) "hasty 2PC blocks" false a.MC.nonblocking;
  let cfg = check_config (Core.Catalog.one_pc 3) 1 `Skeen in
  let a = MC.run cfg and b = Reference.Model_check_ref.run cfg in
  assert_reports_equal "1pc n=3 k=1" a b;
  Alcotest.(check bool) "1PC blocks" false a.MC.nonblocking

(* ---------------- packed round-trip ---------------- *)

let equal_st (a : MC.st) (b : MC.st) =
  a.MC.locals = b.MC.locals && a.MC.voted = b.MC.voted && a.MC.alive = b.MC.alive
  && a.MC.aware = b.MC.aware
  && a.MC.crashes_left = b.MC.crashes_left
  && Core.Message.Multiset.equal a.MC.network b.MC.network
  && a.MC.moving = b.MC.moving && a.MC.polling = b.MC.polling && a.MC.polled = b.MC.polled
  && a.MC.epoch = b.MC.epoch

let roundtrip ctx st = equal_st st (MC.Packed.decode ctx (MC.Packed.encode ctx st))

(* Round-trip every state the checker itself reports (blocked terminals
   of 2PC carry crashes, awareness and in-flight decides). *)
let test_roundtrip_reported () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  let ctx = MC.Packed.ctx rb in
  let r = MC.run { MC.rulebook = rb; max_crashes = 2; limit = 2_000_000; rule = `Skeen } in
  Alcotest.(check bool) "2PC k=2 has blocked terminals" true (r.MC.blocked_terminals <> []);
  List.iter
    (fun st -> Alcotest.(check bool) "round-trip" true (roundtrip ctx st))
    r.MC.blocked_terminals

(* Hand-built states exercise the encoding corners the checker's own
   reports rarely show: in-flight moves and polls (order-sensitive
   lists), termination messages of every tag in the network, epochs. *)
let test_roundtrip_synthetic () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let ctx = MC.Packed.ctx rb in
  let msg name src dst = Core.Message.make ~name ~src ~dst in
  let st =
    {
      MC.locals = [| "p"; "w"; "c" |];
      voted = [| false; true; true |];
      alive = [| true; false; true |];
      aware = [| true; false; true |];
      crashes_left = 1;
      network =
        Core.Message.Multiset.of_list
          [
            msg "!move:p" 1 2; msg "!mack" 2 1; msg "!streq" 3 2; msg "!strep:w" 2 3;
            msg "!decide:c" 1 3; msg "!decide:a" 3 1; msg "ack" 2 1; msg "ack" 2 1;
          ];
      moving = [| Some ("p", [ 3; 2 ]); None; None |];
      polling = [| None; None; Some ([ 2 ], [ (2, "w"); (1, "p") ]) |];
      polled = [| false; false; true |];
      epoch = [| 1; 3; 1 |];
    }
  in
  Alcotest.(check bool) "synthetic round-trip" true (roundtrip ctx st);
  (* order of the bookkeeping lists is part of state identity: permuting
     it must change the encoding *)
  let swapped = { st with MC.moving = [| Some ("p", [ 2; 3 ]); None; None |] } in
  Alcotest.(check bool) "list order is preserved" false
    (MC.Packed.encode ctx st = MC.Packed.encode ctx swapped);
  Alcotest.(check bool) "swapped round-trips too" true (roundtrip ctx swapped)

(* Distinct states must produce distinct encodings (the encoding is the
   dedup identity, so a collision would silently merge states). *)
let test_encoding_injective () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 2) in
  let ctx = MC.Packed.ctx rb in
  let r = MC.run { MC.rulebook = rb; max_crashes = 1; limit = 2_000_000; rule = `Skeen } in
  let sts = r.MC.blocked_terminals in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool) "distinct states, distinct encodings" false
              (MC.Packed.encode ctx a = MC.Packed.encode ctx b))
        sts)
    sts

let suite =
  [
    Alcotest.test_case "reachability matches reference BFS." `Quick test_reachability_differential;
    Alcotest.test_case "reachability indices are consistent." `Quick test_reachability_indices;
    Alcotest.test_case "one-pass stats match the accessors." `Quick test_stats_consistency;
    Alcotest.test_case "model check matches reference (Skeen)." `Slow test_model_check_differential;
    Alcotest.test_case "model check matches reference (quorum)." `Slow
      test_model_check_differential_quorum;
    Alcotest.test_case "broken protocol verdicts agree." `Quick test_model_check_differential_broken;
    Alcotest.test_case "packed round-trip: reported states." `Quick test_roundtrip_reported;
    Alcotest.test_case "packed round-trip: synthetic states." `Quick test_roundtrip_synthetic;
    Alcotest.test_case "packed encoding is injective." `Quick test_encoding_injective;
  ]
