(** Pinned digests of whole chaos sweeps and guided explore searches on
    the engine, kv and Paxos Commit harnesses, one per lever
    configuration: the verdict counts, the shrunk plans or schedules and
    the deterministic metrics JSON
    ({!Sim.Metrics.to_json} [~drop_wall:true]); for the searches, the
    bug list and the feature count.  They pin what every lever does to
    a run, so a change to how the harnesses receive their configuration
    shows up here as a changed digest. *)

module C = Engine.Chaos
module KC = Kv.Chaos_db
module E = Engine.Explore
module H = Engine.Harness
module FP = Engine.Failure_plan
module R = Engine.Runtime

let digest s = Digest.to_hex (Digest.string s)
let metrics_json m = Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true m)

(* ---------------- engine sweeps: central-3PC, n = 3, 40 seeds ---------------- *)

(* A sweep's registry aggregates only verdicts and detector counters, so
   each seed's own run registry (WAL appends and forces, messages,
   decision latencies) is digested too: that is where presumption,
   read-only sites and group commit show. *)
let engine_digest (s : C.oracle C.summary) (runs : C.run_outcome list) =
  let by_oracle =
    String.concat ","
      (List.map (fun (o, c) -> Printf.sprintf "%s=%d" (C.oracle_name o) c) s.C.violations_by_oracle)
  in
  let cxs =
    String.concat "|"
      (List.filter_map
         (fun (f : C.oracle H.failing) ->
           Option.map
             (fun (cx : C.oracle H.counterexample) ->
               Printf.sprintf "%d:%s:%s:%d:%d" f.seed (C.oracle_name cx.cx_oracle)
                 (FP.to_string cx.cx_plan) cx.cx_shrink_runs (List.length cx.cx_trace))
             f.shrunk)
         s.C.failing)
  in
  let per_seed =
    List.map (fun (o : C.run_outcome) -> metrics_json o.C.result.R.run_metrics) runs
  in
  digest (String.concat "\n" ([ by_oracle; cxs; metrics_json s.C.metrics ] @ per_seed))

let rb3 () = Engine.Rulebook.compile (Core.Catalog.central_3pc 3)
let seeds = 40

(* each case sweeps seeds 0..39 under [levers] applied to the chaos
   defaults, and runs each seed again on its own *)
let engine_case ?profile name expected levers =
  ( name,
    expected,
    fun () ->
      let rb = rb3 () in
      let config = levers (C.default_config rb) in
      engine_digest
        (C.sweep ?profile ~config rb ~k:1 ~seeds ())
        (List.init seeds (fun seed -> C.run_one ?profile ~config rb ~k:1 ~seed ())) )

let engine_cases =
  let profile = Sim.Nemesis.with_detector_faults Sim.Nemesis.default_profile in
  [
    engine_case "presume-abort" "9d19243eb3f3a7b91529eb2347bf52bd" (fun c ->
        { c with R.presumption = R.Presume_abort });
    engine_case "presume-commit, read-only site 3" "922296518c305d8ab0f7ed20fea7873a" (fun c ->
        { c with R.presumption = R.Presume_commit; read_only = [ 3 ] });
    engine_case "group commit, sync 0.3" "e8b0759aa5a6d9f7110351b3c201e9bc" (fun c ->
        {
          c with
          R.group_commit = Some { Engine.Wal.max_batch = 4; max_wait = 0.05 };
          sync_latency = 0.3;
        });
    engine_case "late force" "b889492eb0ac20b6384912daf32342f2" (fun c ->
        { c with R.late_force = true });
    engine_case ~profile "detector on, fencing off" "2834efbe5f3a429cab1eb326056754f0" (fun c ->
        { c with R.detector = true; fencing = false });
    engine_case ~profile "detector off, fencing off" "c4e4b91fc12e1d1868457bc298456d4f" (fun c ->
        { c with R.detector = false; fencing = false });
  ]

(* ---------------- kv sweeps: n = 4, 20 seeds ---------------- *)

let kv_digest (s : KC.oracle KC.summary) =
  let by_oracle =
    String.concat ","
      (List.map
         (fun (o, c) -> Printf.sprintf "%s=%d" (KC.oracle_name o) c)
         (List.sort compare s.KC.violations_by_oracle))
  in
  let failing =
    String.concat "|"
      (List.map
         (fun (f : KC.oracle H.failing) ->
           let shrunk = match f.shrunk with Some cx -> cx.cx_plan | None -> f.plan in
           Printf.sprintf "%d:%s:%s" f.seed
             (String.concat "," (List.map (fun (o, _) -> KC.oracle_name o) f.violations))
             (Sim.Nemesis.to_string (FP.to_schedule shrunk)))
         s.KC.failing)
  in
  digest (String.concat "\n" [ by_oracle; failing; metrics_json s.KC.metrics ])

let kv_case ?profile name expected levers =
  (name, expected, fun () -> KC.sweep ?profile ~config:(levers KC.default_config) ~k:1 ~seeds:20 ())

let kv_cases =
  [
    kv_case "2PC" "fe4625d2b4787ac6703e8542334b88c6" (fun c ->
        { c with Kv.Db.protocol = Kv.Node.Two_phase });
    kv_case "presume-commit, read-only" "b8ee59355f40490bc5240e63086a32db" (fun c ->
        { c with Kv.Db.presumption = Kv.Node.Presume_commit; read_only_opt = true });
    kv_case "group commit, pipeline 4" "e48f64fcddc321245caf5b7165ac1dee" (fun c ->
        {
          c with
          Kv.Db.group_commit = Some { Kv.Kv_wal.max_batch = 4; max_wait = 0.05 };
          sync_latency = 0.3;
          pipeline_depth = 4;
        });
    kv_case ~profile:(Sim.Nemesis.with_detector_faults KC.default_profile) "detector"
      "0b84e91a2a4d17e71cd245550e132037" (fun c ->
        { c with Kv.Db.detector = true });
    kv_case "volatile log" "cf27e3d89841c89188a66843476011cf" (fun c ->
        { c with Kv.Db.durable_wal = false });
  ]

(* ---------------- Paxos Commit sweeps: 50 seeds ---------------- *)

(* Every failing seed's verdicts and generated plan, then each seed's own
   run registry: the Paxos sweep registry holds only run and verdict
   counts. *)
let paxos_digest failing per_seed =
  let failing =
    String.concat "|"
      (List.map
         (fun (seed, vs, plan) ->
           Printf.sprintf "%d:%s:%s" seed
             (String.concat ","
                (List.map (fun (o, detail) -> Printf.sprintf "%s=%s" (C.oracle_name o) detail) vs))
             (FP.to_string plan))
         failing)
  in
  digest (String.concat "\n" (failing :: List.map metrics_json per_seed))

let paxos_case ~n_sites ~f ~k expected =
  ( Printf.sprintf "n=%d f=%d k=%d" n_sites f k,
    expected,
    fun () ->
      let h = Engine.Paxos.harness ~k (Engine.Paxos.config ~n_sites ~f ()) in
      let s = H.sweep h ~seeds:50 in
      paxos_digest
        (List.map (fun (f : C.oracle H.failing) -> (f.seed, f.violations, f.plan)) s.failing)
        (List.init 50 (fun seed -> (fst (h.run ~seed (h.plan_of_seed ~seed))).R.run_metrics)) )

let paxos_cases =
  [
    paxos_case ~n_sites:5 ~f:1 ~k:2 "a27e3ecfec443e65a8cba83c496191e5";
    paxos_case ~n_sites:4 ~f:1 ~k:1 "220f01d526dfd605d6e2034ba1897fb9";
  ]

(* ---------------- 48-run guided searches ---------------- *)

let explore_digest (r : E.result) =
  let bugs =
    String.concat "|"
      (List.map
         (fun (b : E.bug) ->
           Printf.sprintf "%s:%d:%s:%s:%d" b.E.bug_oracle b.E.bug_found_at
             (FP.to_string b.E.bug_plan) (FP.to_string b.E.bug_shrunk) b.E.bug_shrink_runs)
         r.E.bugs)
  in
  digest (Printf.sprintf "%s\nfeatures=%d" bugs (List.length r.E.features))

let explore_cases =
  [
    ( "engine central-2PC n=3",
      "dc0410fe2ea26646f26773bf456a1a19",
      fun () ->
        E.search
          (C.harness ~k:1 (Engine.Rulebook.compile (Core.Catalog.central_2pc 3)))
          ~mode:`Guided ~budget:48 () );
    ( "kv 2PC n=4",
      "3980028c08cd23eee3d238c192d43b21",
      fun () ->
        E.search
          (KC.harness ~config:{ KC.default_config with Kv.Db.protocol = Kv.Node.Two_phase } ~k:1 ())
          ~mode:`Guided ~budget:48 () );
  ]

let case harness to_digest (name, expected, run) =
  let name = harness ^ ": " ^ name in
  Alcotest.test_case name `Slow (fun () ->
      Alcotest.(check string) (name ^ " digest") expected (to_digest (run ())))

let suite =
  List.map (case "engine sweep" Fun.id) engine_cases
  @ List.map (case "kv sweep" kv_digest) kv_cases
  @ List.map (case "paxos sweep" Fun.id) paxos_cases
  @ List.map (case "explore" explore_digest) explore_cases
