(** Tests for how the chaos and explore harnesses take their
    configuration: every {!Db.config} field reaches the database run,
    tracing is an observation only (so a replay is one traced run), the
    explore harnesses' random baselines are the plans the chaos
    harnesses draw, the kv harness finds and shrinks the pinned 2PC
    wedge, and the engine harness runs and shrinks under its config. *)

module C = Engine.Chaos
module KC = Kv.Chaos_db
module H = Engine.Harness
module FP = Engine.Failure_plan
module R = Engine.Runtime

let plan : FP.t Alcotest.testable = Alcotest.testable FP.pp FP.equal
let rb_c3 = lazy (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))
let metrics_json m = Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true m)
let kv_config protocol = { KC.default_config with Kv.Db.protocol }

(* ---------------- every Db.config field reaches the run ---------------- *)

(* the profile of `skeen chaos --detector-faults` *)
let detector_profile = Sim.Nemesis.with_detector_faults KC.default_profile

let test_kv_suspicion_timeout_reaches_the_run () =
  (* seed 7 under the detector profile: a 1.5 s suspicion timeout
     suspects falsely and aborts two more transactions than 5 s does *)
  let run suspicion_timeout =
    let config = { KC.default_config with Kv.Db.detector = true; suspicion_timeout } in
    let r = (KC.run_one ~profile:detector_profile ~config ~k:1 ~seed:7 ()).KC.result in
    Fmt.str "committed=%d aborted=%d messages=%d" r.Kv.Db.committed r.Kv.Db.aborted
      r.Kv.Db.messages_sent
  in
  Alcotest.(check string) "suspicion 1.5" "committed=7 aborted=3 messages=27079" (run 1.5);
  Alcotest.(check string) "suspicion 5.0" "committed=9 aborted=1 messages=27096" (run 5.0)

(* ---------------- tracing changes nothing but the trace ---------------- *)

let pinned_seeds = [ 35; 48; 176; 34 ]

let test_engine_tracing_is_observation_only () =
  let rb = Lazy.force rb_c3 in
  List.iter
    (fun seed ->
      let run tracing =
        let o = C.run_one ~config:{ (C.default_config rb) with R.tracing } rb ~k:1 ~seed () in
        ( o.C.result.R.trace,
          Fmt.str "%a messages=%d %s"
            Fmt.(list C.pp_violation)
            o.C.violations o.C.result.R.messages_sent
            (metrics_json o.C.result.R.run_metrics) )
      in
      let trace_on, on = run true and trace_off, off = run false in
      Alcotest.(check string) (Fmt.str "seed %d" seed) off on;
      Alcotest.(check bool) (Fmt.str "seed %d traced" seed) true (trace_on <> []);
      Alcotest.(check bool) (Fmt.str "seed %d untraced" seed) true (trace_off = []))
    pinned_seeds

let test_kv_tracing_is_observation_only () =
  List.iter
    (fun seed ->
      let run tracing =
        let o = KC.run_one ~config:{ KC.default_config with Kv.Db.tracing } ~k:1 ~seed () in
        ( o.KC.result.Kv.Db.trace,
          Fmt.str "%a messages=%d %s"
            Fmt.(list KC.pp_violation)
            o.KC.violations o.KC.result.Kv.Db.messages_sent
            (metrics_json o.KC.result.Kv.Db.run_metrics) )
      in
      let trace_on, on = run true and trace_off, off = run false in
      Alcotest.(check string) (Fmt.str "seed %d" seed) off on;
      Alcotest.(check bool) (Fmt.str "seed %d traced" seed) true (trace_on <> []);
      Alcotest.(check bool) (Fmt.str "seed %d untraced" seed) true (trace_off = []))
    pinned_seeds

(* ---------------- the explore harnesses ---------------- *)

let test_random_plan_is_the_chaos_plan () =
  let rb = Lazy.force rb_c3 in
  let engine = C.harness rb in
  let kv = KC.harness ~config:(kv_config Kv.Node.Three_phase) () in
  for seed = 0 to 99 do
    Alcotest.check plan
      (Fmt.str "engine seed %d" seed)
      (C.run_one rb ~k:1 ~seed ()).C.plan (engine.H.plan_of_seed ~seed);
    Alcotest.check plan
      (Fmt.str "kv seed %d" seed)
      (FP.of_schedule (KC.run_one ~k:1 ~seed ()).KC.schedule)
      (kv.H.plan_of_seed ~seed)
  done

let test_kv_harness_runs_what_run_one_runs () =
  (* the kv harness runs [to_schedule (of_schedule s)], which may reorder
     the seed's schedule; the run must not notice *)
  let storms = { (KC.paxos_profile ~f:1) with Sim.Nemesis.p_storm = 0.7 } in
  let reordered = ref 0 in
  List.iter
    (fun (label, config, profile) ->
      let h = KC.harness ~config ~profile () in
      for seed = 0 to 199 do
        let show (r : Kv.Db.result) violations =
          Fmt.str "committed=%d aborted=%d messages=%d violations=%s %s" r.Kv.Db.committed
            r.Kv.Db.aborted r.Kv.Db.messages_sent
            (String.concat "," (List.map (fun (o, d) -> KC.oracle_name o ^ ":" ^ d) violations))
            (metrics_json r.Kv.Db.run_metrics)
        in
        let o = KC.run_one ~profile ~config ~k:1 ~seed () in
        let plan = h.H.plan_of_seed ~seed in
        if FP.to_schedule plan <> o.KC.schedule then incr reordered;
        let r, violations = h.H.run ~seed plan in
        Alcotest.(check string)
          (Fmt.str "%s seed %d" label seed)
          (show o.KC.result (List.map (fun v -> (v.KC.oracle, v.KC.detail)) o.KC.violations))
          (show r violations)
      done)
    [
      ("2pc", kv_config Kv.Node.Two_phase, KC.default_profile);
      ("3pc", kv_config Kv.Node.Three_phase, KC.default_profile);
      ("paxos f=1, storms", kv_config (Kv.Node.Paxos 1), storms);
      ("3pc detector", { KC.default_config with Kv.Db.detector = true }, detector_profile);
    ];
  Alcotest.(check bool) "some schedules were reordered" true (!reordered > 0)

let test_kv_harness_finds_the_2pc_wedge () =
  (* what `skeen explore --kv --protocol central-2pc -n 4 --budget 48`
     finds at run 15 (so under seed 15): the coordinator of a prepared
     transaction crashes for good *)
  let h = KC.harness ~config:(kv_config Kv.Node.Two_phase) () in
  let wedge = FP.of_string_exn "crash site=4 at=24" in
  let _, violations = h.H.run ~seed:15 wedge in
  Alcotest.(check (list string))
    "trips progress only" [ "progress" ]
    (List.map (fun (o, _) -> KC.oracle_name o) violations);
  let shrunk, _ = H.shrink h ~seed:15 ~oracle:KC.Progress wedge in
  Alcotest.(check int) "stays one fault" 1 (FP.fault_count shrunk);
  Alcotest.check plan "stays the same crash" wedge shrunk

let test_engine_harness_takes_its_config () =
  (* the pinned late-force plan: site 2 sends its yes-vote before the
     deferred sync and crashes in between.  The harness built with the
     late-force config must run and shrink under it; the default one
     must not. *)
  let rb = Lazy.force rb_c3 in
  let breach = FP.of_string_exn "step-crash site=2 step=0 mode=after-logging:1" in
  let late = C.harness ~config:{ (C.default_config rb) with R.late_force = true } rb in
  let durability (h : (R.result, C.oracle) H.t) plan =
    List.mem_assoc C.Durability (snd (h.run ~seed:7 plan))
  in
  Alcotest.(check bool) "late force: durability" true (durability late breach);
  (* a late, irrelevant crash the shrinker can only drop if it too runs
     under the late-force config *)
  let padded = FP.of_string_exn "step-crash site=2 step=0 mode=after-logging:1; crash site=3 at=900" in
  Alcotest.(check bool) "late force, padded: durability" true (durability late padded);
  let shrunk, _ = H.shrink late ~seed:7 ~oracle:C.Durability padded in
  Alcotest.check plan "late force: shrinks to the breach" breach shrunk;
  Alcotest.(check bool) "default: no durability breach" false (durability (C.harness rb) breach)

let suite =
  [
    Alcotest.test_case "kv: suspicion timeout reaches the run" `Quick
      test_kv_suspicion_timeout_reaches_the_run;
    Alcotest.test_case "engine: tracing changes only the trace" `Quick
      test_engine_tracing_is_observation_only;
    Alcotest.test_case "kv: tracing changes only the trace" `Quick
      test_kv_tracing_is_observation_only;
    Alcotest.test_case "random_plan is the plan run_one draws" `Quick
      test_random_plan_is_the_chaos_plan;
    Alcotest.test_case "kv harness: runs what run_one runs (seeds 0-199)" `Slow
      test_kv_harness_runs_what_run_one_runs;
    Alcotest.test_case "kv harness: pinned 2PC wedge trips progress, shrinks to itself" `Quick
      test_kv_harness_finds_the_2pc_wedge;
    Alcotest.test_case "engine harness: late-force config reaches run and shrink" `Quick
      test_engine_harness_takes_its_config;
  ]
