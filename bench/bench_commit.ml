(** Group-commit + pipelining benchmark: the step change in commits/sec
    and the proof that none of the latency levers costs correctness.
    Writes [BENCH_commit.json] with three sections:

    - [throughput]: the database harness (n=4, durable WAL, 0.4 s
      simulated sync latency) under a mixed read/write workload at
      several offered loads, one row per lever combination — commits/sec
      in simulated time, p50/p99/mean commit latency, WAL forces, group
      flushes and the forces-per-commit column the levers push down.
    - [headline]: commits/sec of group commit + pipelining relative to
      the levers-off baseline at each offered load.  The bench exits
      non-zero unless the speedup is at least 2x (1.5x in smoke, where
      the shorter run amortizes less warm-up and tail) at every
      saturating load; loads below [gate_from] ride along ungated — a
      near-idle disk leaves group commit nothing to coalesce, so those
      rows chart the latency-vs-load shape rather than the headline.
    - [safety_sweeps]: seed sweeps through the chaos, durability
      (storage faults armed) and failure-detector oracle suites for
      every lever combination, on both the protocol engine and the
      database harness — all oracles must stay clean.

    [--smoke] (wired to the [@commit-smoke] dune alias) runs a
    seconds-long corpus: a reduced throughput grid with the 1.5x gate
    plus 25-seed safety sweeps per combination; exits non-zero on a
    missed gate or any oracle violation, and still writes a smoke-sized
    [BENCH_commit.json] so CI always uploads the evidence.
    [--workers N] shards the sweeps across N domains ({!Sim.Sweep});
    results are byte-identical whatever the value. *)

module C = Engine.Chaos
module KC = Kv.Chaos_db
module KN = Kv.Node
module N = Sim.Nemesis
module R = Engine.Runtime
module J = Sim.Json

let time = Helpers_bench.time
let rate = Helpers_bench.rate
let workers = Helpers_bench.arg_int "--workers" ~default:1 Sys.argv

(* ---------------- the lever grid ---------------- *)

let gc = { Kv.Kv_wal.max_batch = 8; max_wait = 0.05 }
let egc = { Engine.Wal.max_batch = 4; max_wait = 0.05 }

type combo = {
  name : string;
  presumption : KN.presumption;
  read_only_opt : bool;
  group_commit : Kv.Kv_wal.group_commit option;
  pipeline_depth : int;
}

let combo ?(presumption = KN.No_presumption) ?(read_only_opt = false) ?group_commit
    ?(pipeline_depth = 1) name =
  { name; presumption; read_only_opt; group_commit; pipeline_depth }

let baseline = combo "levers-off"
let group_pipeline = combo ~group_commit:gc ~pipeline_depth:8 "group+pipeline"

let all_levers =
  combo ~presumption:KN.Presume_commit ~read_only_opt:true ~group_commit:gc ~pipeline_depth:8
    "group+pipeline+presume-commit+read-only"

let full_combos =
  [
    baseline;
    combo ~group_commit:gc "group-commit";
    combo ~pipeline_depth:8 "pipeline";
    group_pipeline;
    combo ~presumption:KN.Presume_commit ~group_commit:gc ~pipeline_depth:8
      "group+pipeline+presume-commit";
    all_levers;
  ]

let smoke_combos = [ baseline; group_pipeline; all_levers ]

(* ---------------- throughput grid ---------------- *)

let sync_latency = 0.4

let workload ~n_txns ~arrival_rate =
  Kv.Workload.mixed (Sim.Rng.create ~seed:11)
    {
      Kv.Workload.n_txns;
      arrival_rate;
      keys = 512;
      ops_per_txn = 3;
      write_ratio = 0.5;
      zipf_skew = 0.0;
    }

let throughput_run ~n_txns ~arrival_rate (c : combo) =
  let w = workload ~n_txns ~arrival_rate in
  let cfg =
    Kv.Db.config ~n_sites:4 ~durable_wal:true ~sync_latency ~lock_wait_timeout:60.0
      ~presumption:c.presumption ~read_only_opt:c.read_only_opt ?group_commit:c.group_commit
      ~pipeline_depth:c.pipeline_depth ()
  in
  Kv.Db.run cfg w

let commits_per_sec (r : Kv.Db.result) =
  if r.Kv.Db.duration > 0.0 then float_of_int r.Kv.Db.committed /. r.Kv.Db.duration else 0.0

let throughput_row ~n_txns ~arrival_rate (c : combo) (r : Kv.Db.result) =
  let m = r.Kv.Db.run_metrics in
  let pct p = match Sim.Metrics.percentile m "commit_latency" p with Some v -> v | None -> 0.0 in
  J.Obj
    [
      ("combo", J.Str c.name);
      ("offered_load_tps", J.Float arrival_rate);
      ("n_txns", J.Int n_txns);
      ("committed", J.Int r.Kv.Db.committed);
      ("aborted", J.Int r.Kv.Db.aborted);
      ("pending", J.Int r.Kv.Db.pending);
      ("duration_s", J.Float r.Kv.Db.duration);
      ("commits_per_sec", J.Float (commits_per_sec r));
      ("commit_latency_p50_s", J.Float (pct 50.0));
      ("commit_latency_p99_s", J.Float (pct 99.0));
      ( "commit_latency_mean_s",
        J.Float (match r.Kv.Db.mean_latency with Some v -> v | None -> 0.0) );
      ("wal_forces", J.Int r.Kv.Db.wal_forces);
      ("wal_group_flushes", J.Int (Sim.Metrics.counter m "wal_group_flushes"));
      ("forces_per_commit", J.Float r.Kv.Db.forces_per_commit);
      ("messages_sent", J.Int r.Kv.Db.messages_sent);
      ("atomicity_ok", J.Bool r.Kv.Db.atomicity_ok);
    ]

(* ---------------- safety sweeps ---------------- *)

(* loads below this are ungated context rows: a near-idle disk gives
   group commit nothing to coalesce *)
let gate_from = 5.0

let faulty = { N.default_profile with N.p_disk_fault = 0.6 }
let kv_faulty = { KC.default_profile with N.p_disk_fault = 0.6 }

(* every lever combination through the chaos, durability and detector
   suites; [run] returns (violation rows, seeds swept) *)
let safety_rows ~seeds rb =
  let kv name f =
    (name, fun () -> let s = f () in List.length s.KC.violations_by_oracle = 0)
  in
  let eng name f =
    (name, fun () -> let s = f () in List.length s.C.violations_by_oracle = 0)
  in
  let ksweep ?profile config = KC.sweep ?profile ~config ~workers ~k:1 ~seeds () in
  let esweep ?profile config = C.sweep ?profile ~config rb ~workers ~k:1 ~seeds () in
  let kv_base = KC.default_config in
  let kv_all =
    {
      kv_base with
      Kv.Db.presumption = KN.Presume_commit;
      read_only_opt = true;
      group_commit = Some gc;
      sync_latency = 0.3;
      pipeline_depth = 4;
    }
  in
  let eng_base = C.default_config rb in
  let eng_all =
    {
      eng_base with
      R.presumption = R.Presume_abort;
      read_only = [ 2 ];
      group_commit = Some egc;
      sync_latency = 0.3;
    }
  in
  [
    kv "kv chaos: presume-abort" (fun () ->
        ksweep { kv_base with Kv.Db.presumption = KN.Presume_abort });
    kv "kv chaos: presume-commit + read-only" (fun () ->
        ksweep { kv_base with Kv.Db.presumption = KN.Presume_commit; read_only_opt = true });
    kv "kv chaos: group-commit + pipelining" (fun () ->
        ksweep
          { kv_base with Kv.Db.group_commit = Some gc; sync_latency = 0.3; pipeline_depth = 4 });
    kv "kv chaos: all levers" (fun () -> ksweep kv_all);
    kv "kv durability: all levers" (fun () -> ksweep ~profile:kv_faulty kv_all);
    kv "kv detector: all levers" (fun () -> ksweep { kv_all with Kv.Db.detector = true });
    eng "engine chaos: presume-abort" (fun () ->
        esweep { eng_base with R.presumption = R.Presume_abort });
    eng "engine chaos: presume-commit" (fun () ->
        esweep { eng_base with R.presumption = R.Presume_commit });
    eng "engine chaos: read-only participant" (fun () ->
        esweep { eng_base with R.read_only = [ 2 ] });
    eng "engine chaos: group-commit + sync latency" (fun () ->
        esweep { eng_base with R.group_commit = Some egc; sync_latency = 0.3 });
    eng "engine chaos: all levers" (fun () -> esweep eng_all);
    eng "engine durability: all levers" (fun () -> esweep ~profile:faulty eng_all);
    eng "engine detector: all levers" (fun () -> esweep { eng_all with R.detector = true });
  ]

(* ---------------- driver ---------------- *)

let run ~n_txns ~loads ~combos ~sweep_seeds ~min_speedup ~file =
  (* throughput grid *)
  let grid =
    List.concat_map
      (fun arrival_rate ->
        List.map
          (fun c ->
            Fmt.epr "throughput: load=%.1f combo=%s...@." arrival_rate c.name;
            (arrival_rate, c, throughput_run ~n_txns ~arrival_rate c))
          combos)
      loads
  in
  let speedups =
    List.map
      (fun load ->
        let at name =
          List.find_map
            (fun (l, c, r) -> if l = load && c.name = name then Some r else None)
            grid
        in
        match (at baseline.name, at group_pipeline.name) with
        | Some b, Some g ->
            let s =
              if commits_per_sec b > 0.0 then commits_per_sec g /. commits_per_sec b else 0.0
            in
            (load, s)
        | _ -> (load, 0.0))
      loads
  in
  (* safety sweeps *)
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let sweep_results =
    List.map
      (fun (name, f) ->
        Fmt.epr "sweep: %s (%d seeds)...@." name sweep_seeds;
        let clean, wall = time f in
        (name, clean, wall))
      (safety_rows ~seeds:sweep_seeds rb)
  in
  (* report *)
  let report = Sim.Report.create ~bench_name:"commit" () in
  Sim.Report.add report "config"
    (J.Obj
       [
         ("n_sites", J.Int 4);
         ("sync_latency_s", J.Float sync_latency);
         ("n_txns", J.Int n_txns);
         ("workload", J.Str "mixed keys=512 ops=3 write_ratio=0.5 uniform");
         ("min_speedup_gate", J.Float min_speedup);
         ("sweep_seeds", J.Int sweep_seeds);
       ]);
  Sim.Report.add report "throughput"
    (J.List (List.map (fun (l, c, r) -> throughput_row ~n_txns ~arrival_rate:l c r) grid));
  Sim.Report.add report "headline"
    (J.List
       (List.map
          (fun (load, s) ->
            J.Obj
              [
                ("offered_load_tps", J.Float load);
                ("speedup_group_pipeline_vs_baseline", J.Float s);
                ("gated", J.Bool (load >= gate_from));
              ])
          speedups));
  Sim.Report.add report "safety_sweeps"
    (J.List
       (List.map
          (fun (name, clean, wall) ->
            J.Obj
              [
                ("suite", J.Str name);
                ("seeds", J.Int sweep_seeds);
                ("clean", J.Bool clean);
                ("wall_s", J.Float wall);
                ("seeds_per_sec", J.Float (rate sweep_seeds wall));
              ])
          sweep_results));
  Sim.Report.write report ~file;
  Fmt.pr "wrote %s@." file;
  (* gates *)
  let missed =
    List.filter_map
      (fun (load, s) ->
        if load >= gate_from && s < min_speedup then
          Some (Fmt.str "load %.1f: speedup %.2fx < %.1fx" load s min_speedup)
        else None)
      speedups
  in
  let dirty =
    List.filter_map (fun (name, clean, _) -> if clean then None else Some name) sweep_results
  in
  List.iter (Fmt.epr "HEADLINE MISSED: %s@.") missed;
  List.iter (Fmt.epr "ORACLE VIOLATION: %s@.") dirty;
  List.iter
    (fun (load, s) -> Fmt.pr "load %.1f tps: group+pipeline is %.2fx the baseline@." load s)
    speedups;
  missed = [] && dirty = []

let full () =
  if
    not
      (run ~n_txns:200 ~loads:[ 2.0; 5.0; 20.0 ] ~combos:full_combos ~sweep_seeds:500
         ~min_speedup:2.0 ~file:"BENCH_commit.json")
  then exit 1

let smoke () =
  if
    not
      (run ~n_txns:120 ~loads:[ 5.0; 20.0 ] ~combos:smoke_combos ~sweep_seeds:25
         ~min_speedup:1.5 ~file:"BENCH_commit.json")
  then begin
    Fmt.epr "commit-smoke: headline or safety gate failed@.";
    exit 1
  end;
  Fmt.pr "commit-smoke: speedup gate met, all lever sweeps oracle-clean@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
