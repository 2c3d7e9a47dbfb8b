(** Tests for {!Sim.Sweep} and the sharded chaos sweeps built on it: the
    worker count must be unobservable — identical results, merged
    metrics, counterexamples and per-seed rng streams at any sharding. *)

module M = Sim.Metrics
module J = Sim.Json
module C = Engine.Chaos
module KC = Kv.Chaos_db

let det_json m = J.to_string (M.to_json ~drop_wall:true m)

(* ---------------- Sweep.map ---------------- *)

let test_map_matches_sequential () =
  let f ~seed =
    let rng = Sim.Rng.create ~seed in
    (seed, Sim.Rng.int rng 1_000_000)
  in
  let seq = Sim.Sweep.map ~workers:1 ~seeds:37 f in
  List.iter
    (fun workers ->
      let par = Sim.Sweep.map ~workers ~seeds:37 f in
      Alcotest.(check bool) (Fmt.str "workers=%d = sequential" workers) true (par = seq))
    [ 2; 3; 8; 64 ];
  (* results land at their seed's index, not completion order *)
  Array.iteri (fun i (seed, _) -> Alcotest.(check int) "seed order" i seed) seq

let test_map_seed_base () =
  let f ~seed = seed * seed in
  let a = Sim.Sweep.map ~workers:3 ~seed_base:100 ~seeds:10 f in
  Alcotest.(check (list int))
    "offset range"
    (List.init 10 (fun i -> (100 + i) * (100 + i)))
    (Array.to_list a)

let test_map_edge_cases () =
  Alcotest.(check int) "zero seeds" 0 (Array.length (Sim.Sweep.map ~workers:4 ~seeds:0 (fun ~seed -> seed)));
  (* more workers than seeds clamps rather than spawning idle domains *)
  Alcotest.(check (list int))
    "workers > seeds" [ 0; 1 ]
    (Array.to_list (Sim.Sweep.map ~workers:16 ~seeds:2 (fun ~seed -> seed)));
  Alcotest.check_raises "negative seeds rejected"
    (Invalid_argument "Sweep.map: seeds must be >= 0") (fun () ->
      ignore (Sim.Sweep.map ~seeds:(-1) (fun ~seed -> seed)));
  Alcotest.check_raises "zero workers rejected"
    (Invalid_argument "Sweep.map: workers must be >= 1") (fun () ->
      ignore (Sim.Sweep.map ~workers:0 ~seeds:3 (fun ~seed -> seed)))

let test_map_propagates_exceptions () =
  List.iter
    (fun workers ->
      match Sim.Sweep.map ~workers ~seeds:20 (fun ~seed -> if seed = 13 then failwith "boom" else seed) with
      | _ -> Alcotest.fail "expected the worker's exception to propagate"
      | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg)
    [ 1; 3 ]

(* ---------------- Sweep.sweep: isolated registries, seed-order merge ---------------- *)

let test_sweep_merges_in_seed_order () =
  let run ~workers =
    Sim.Sweep.sweep ~workers ~seeds:50 (fun ~metrics ~seed ->
        M.incr metrics "runs";
        M.observe metrics "v" (float_of_int (seed + 1));
        (* one deliberately leaked timer per run: sweep must drain it
           into the per-seed registry before merging *)
        M.timer_start metrics "leak" ~key:seed ~at:0.0;
        seed)
  in
  let seq_results, seq_metrics = run ~workers:1 in
  Alcotest.(check int) "runs counted" 50 (M.counter seq_metrics "runs");
  Alcotest.(check int) "leaks drained and counted" 50 (M.counter seq_metrics "timers_in_flight_leak");
  Alcotest.(check (list (pair string int))) "merged registry has no open timers" []
    (M.timers_in_flight seq_metrics);
  List.iter
    (fun workers ->
      let results, metrics = run ~workers in
      Alcotest.(check bool) (Fmt.str "results workers=%d" workers) true (results = seq_results);
      Alcotest.(check string)
        (Fmt.str "metrics workers=%d" workers)
        (det_json seq_metrics) (det_json metrics))
    [ 2; 4 ]

(* ---------------- chaos sweeps: workers unobservable ---------------- *)

(* central-2pc blocks, so this exercises the interesting paths — violation
   aggregation, shrinking, counterexample tracing — not just clean runs. *)
let engine_summary ~workers =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_2pc 3) in
  C.sweep rb ~workers ~k:1 ~seeds:60 ()

let test_engine_sweep_workers_unobservable () =
  let seq = engine_summary ~workers:1 in
  Alcotest.(check bool) "corpus has counterexamples" true (seq.C.counterexamples <> []);
  let par = engine_summary ~workers:4 in
  Alcotest.(check bool) "violation counts" true
    (par.C.violations_by_oracle = seq.C.violations_by_oracle);
  Alcotest.(check bool) "counterexamples (plans, traces, shrink cost)" true
    (par.C.counterexamples = seq.C.counterexamples);
  Alcotest.(check string) "merged deterministic metrics"
    (det_json seq.C.metrics) (det_json par.C.metrics)

let kv_summary ~workers =
  KC.sweep ~protocol:Kv.Node.Three_phase ~n_sites:4 ~workers ~k:1 ~seeds:20 ()

let test_kv_sweep_workers_unobservable () =
  let seq = kv_summary ~workers:1 in
  let par = kv_summary ~workers:3 in
  Alcotest.(check bool) "violation counts" true
    (par.KC.violations_by_oracle = seq.KC.violations_by_oracle);
  Alcotest.(check bool) "failing seeds and shrunk schedules" true
    (par.KC.failing = seq.KC.failing);
  Alcotest.(check string) "merged deterministic metrics"
    (det_json seq.KC.metrics) (det_json par.KC.metrics)

(* 200 seeds at 2 and 4 workers, three times each, against the
   sequential sweep, byte for byte: the counterexamples or failing seeds
   and the deterministic metrics, on both harnesses.  Every worker
   computes WAL checksums, so what the domains share, such as the CRC
   table, must be ready before any of them starts. *)
let repeated_parallel_sweeps_match ~render sweep =
  let seq = render (sweep ~workers:1) in
  List.iter
    (fun workers ->
      for round = 1 to 3 do
        Alcotest.(check string)
          (Fmt.str "workers=%d round %d" workers round)
          seq
          (render (sweep ~workers))
      done)
    [ 2; 4 ]

let test_engine_parallel_sweeps_repeat () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  repeated_parallel_sweeps_match
    ~render:(fun (s : C.summary) ->
      Marshal.to_string
        (s.C.seeds_run, s.C.counterexamples, s.C.violations_by_oracle)
        [ Marshal.No_sharing ]
      ^ det_json s.C.metrics)
    (fun ~workers -> C.sweep rb ~workers ~k:1 ~seeds:200 ())

let test_kv_parallel_sweeps_repeat () =
  repeated_parallel_sweeps_match
    ~render:(fun (s : KC.summary) ->
      Marshal.to_string (s.KC.seeds_run, s.KC.failing, s.KC.violations_by_oracle)
        [ Marshal.No_sharing ]
      ^ det_json s.KC.metrics)
    (fun ~workers ->
      KC.sweep ~protocol:Kv.Node.Three_phase ~n_sites:4 ~workers ~k:1 ~seeds:200 ())

(* the per-seed rng is derived from the seed alone (root [Rng.create
   ~seed], streams forked with [Rng.split]), so the values a seed draws
   cannot depend on which worker ran it or on what other seeds did *)
let test_seed_stream_worker_independent () =
  let streams ~workers =
    Sim.Sweep.map ~workers ~seeds:40 (fun ~seed ->
        let root = Sim.Rng.create ~seed in
        let a = Sim.Rng.split root in
        let b = Sim.Rng.split root in
        ( List.init 16 (fun _ -> Sim.Rng.int a 1_000_000),
          List.init 16 (fun _ -> Sim.Rng.float b 1.0) ))
  in
  let seq = streams ~workers:1 in
  List.iter
    (fun workers ->
      Alcotest.(check bool)
        (Fmt.str "split streams workers=%d" workers)
        true
        (streams ~workers = seq))
    [ 2; 5 ]

let suite =
  [
    Alcotest.test_case "map = sequential at any worker count" `Quick test_map_matches_sequential;
    Alcotest.test_case "map honours seed_base" `Quick test_map_seed_base;
    Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
    Alcotest.test_case "map propagates worker exceptions" `Quick test_map_propagates_exceptions;
    Alcotest.test_case "sweep merges isolated registries in seed order" `Quick
      test_sweep_merges_in_seed_order;
    Alcotest.test_case "engine chaos: workers unobservable" `Quick
      test_engine_sweep_workers_unobservable;
    Alcotest.test_case "kv chaos: workers unobservable" `Quick test_kv_sweep_workers_unobservable;
    Alcotest.test_case "engine chaos: repeated parallel sweeps = sequential" `Quick
      test_engine_parallel_sweeps_repeat;
    Alcotest.test_case "kv chaos: repeated parallel sweeps = sequential" `Quick
      test_kv_parallel_sweeps_repeat;
    Alcotest.test_case "per-seed rng independent of sharding" `Quick
      test_seed_stream_worker_independent;
  ]
