(** Parallel-sweep benchmark: what Domain-sharding the chaos seed sweeps
    buys and the proof that it changes nothing but wall-clock.  Writes
    [BENCH_sweep.json] with three sections:

    - [host]: the runner's available worker count
      ([Sim.Sweep.available_workers]) — speedup rows only mean something
      relative to it.
    - [chaos]: a 100k-seed engine sweep (central-3pc, n=3, k=1) at
      workers 1/2/4/8, each row reporting wall-clock, seeds/sec, speedup
      against the sequential run, and [merge_equal] — whether the merged
      metrics (deterministic projection, [wall_]-prefixed host-timing
      histograms dropped) and per-oracle violation counts are
      byte-identical to the workers=1 run.
    - [chaos_kv]: the same equivalence on the database harness at a
      3k-seed scale.

    [--smoke] (wired to the [@sweep-smoke] dune alias) runs a
    seconds-long corpus: 2-worker sharded sweeps on both harnesses must
    merge byte-identically to the sequential runs; exits non-zero on any
    divergence, and still writes a smoke-sized [BENCH_sweep.json] so CI
    always uploads the merge-equivalence evidence. *)

module C = Engine.Chaos
module KC = Kv.Chaos_db

let time = Helpers_bench.time
let rate = Helpers_bench.rate

(* the deterministic projection of a sweep's merged metrics: everything
   except the host wall-clock histograms, as canonical JSON text *)
let metrics_key m = Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true m)

(* ---------------- engine rows ---------------- *)

let engine_sweep ~workers ~seeds =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  time (fun () -> C.sweep rb ~workers ~k:1 ~seeds ())

(* what the worker count must not change: the merged metrics, the
   verdict counts, and each failing seed with its (shrunk) plan *)
let fingerprint oracle_name (s : _ Engine.Harness.summary) =
  ( metrics_key s.metrics,
    List.map (fun (o, n) -> (oracle_name o, n)) s.violations_by_oracle,
    List.map
      (fun (f : _ Engine.Harness.failing) ->
        let plan = match f.shrunk with Some cx -> cx.cx_plan | None -> f.plan in
        (f.seed, Engine.Failure_plan.to_string plan))
      s.failing )

let engine_fingerprint = fingerprint C.oracle_name

let engine_row ~seeds ~seq_wall ~seq_fp (workers, summary, wall) =
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "protocol");
      ("protocol", Sim.Json.Str "central-3pc");
      ("n", Sim.Json.Int 3);
      ("k", Sim.Json.Int 1);
      ("seeds", Sim.Json.Int seeds);
      ("workers", Sim.Json.Int workers);
      ("wall_s", Sim.Json.Float wall);
      ("seeds_per_sec", Sim.Json.Float (rate seeds wall));
      ("speedup_vs_seq", Sim.Json.Float (if wall > 0.0 then seq_wall /. wall else 0.0));
      ("merge_equal", Sim.Json.Bool (engine_fingerprint summary = seq_fp));
    ]

(* ---------------- database-harness rows ---------------- *)

let kv_sweep ~workers ~seeds =
  time (fun () -> KC.sweep ~protocol:Kv.Node.Three_phase ~n_sites:4 ~workers ~k:1 ~seeds ())

let kv_fingerprint = fingerprint KC.oracle_name

let kv_row ~seeds ~seq_wall ~seq_fp (workers, summary, wall) =
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "kv");
      ("protocol", Sim.Json.Str "central-3pc");
      ("n", Sim.Json.Int 4);
      ("k", Sim.Json.Int 1);
      ("seeds", Sim.Json.Int seeds);
      ("workers", Sim.Json.Int workers);
      ("wall_s", Sim.Json.Float wall);
      ("seeds_per_sec", Sim.Json.Float (rate seeds wall));
      ("speedup_vs_seq", Sim.Json.Float (if wall > 0.0 then seq_wall /. wall else 0.0));
      ("merge_equal", Sim.Json.Bool (kv_fingerprint summary = seq_fp));
    ]

let write_report ~engine_rows ~kv_rows ~file =
  let report = Sim.Report.create ~bench_name:"sweep" () in
  Sim.Report.add report "host"
    (Sim.Json.Obj [ ("available_workers", Sim.Json.Int (Sim.Sweep.available_workers ())) ]);
  Sim.Report.add report "chaos" (Sim.Json.List engine_rows);
  Sim.Report.add report "chaos_kv" (Sim.Json.List kv_rows);
  Sim.Report.write report ~file;
  Fmt.pr "wrote %s@." file

let run ~engine_seeds ~engine_workers ~kv_seeds ~kv_workers ~file =
  Fmt.epr "sweep central-3pc n=3 k=1 seeds=%d workers=1 (baseline)...@." engine_seeds;
  let seq, seq_wall = engine_sweep ~workers:1 ~seeds:engine_seeds in
  let seq_fp = engine_fingerprint seq in
  let engine_results =
    (1, seq, seq_wall)
    :: List.map
         (fun w ->
           Fmt.epr "sweep central-3pc n=3 k=1 seeds=%d workers=%d...@." engine_seeds w;
           let s, wall = engine_sweep ~workers:w ~seeds:engine_seeds in
           (w, s, wall))
         engine_workers
  in
  Fmt.epr "sweep kv central-3pc n=4 k=1 seeds=%d workers=1 (baseline)...@." kv_seeds;
  let kseq, kseq_wall = kv_sweep ~workers:1 ~seeds:kv_seeds in
  let kseq_fp = kv_fingerprint kseq in
  let kv_results =
    (1, kseq, kseq_wall)
    :: List.map
         (fun w ->
           Fmt.epr "sweep kv central-3pc n=4 k=1 seeds=%d workers=%d...@." kv_seeds w;
           let s, wall = kv_sweep ~workers:w ~seeds:kv_seeds in
           (w, s, wall))
         kv_workers
  in
  write_report
    ~engine_rows:
      (List.map (engine_row ~seeds:engine_seeds ~seq_wall ~seq_fp) engine_results)
    ~kv_rows:(List.map (kv_row ~seeds:kv_seeds ~seq_wall:kseq_wall ~seq_fp:kseq_fp) kv_results)
    ~file;
  let diverged =
    List.filter (fun (_, s, _) -> engine_fingerprint s <> seq_fp) engine_results
    |> List.map (fun (w, _, _) -> Fmt.str "engine workers=%d" w)
  in
  let kv_diverged =
    List.filter (fun (_, s, _) -> kv_fingerprint s <> kseq_fp) kv_results
    |> List.map (fun (w, _, _) -> Fmt.str "kv workers=%d" w)
  in
  match diverged @ kv_diverged with
  | [] ->
      Fmt.pr "all sharded sweeps merge byte-identically to the sequential runs@.";
      true
  | ds ->
      List.iter (Fmt.epr "DIVERGED from the workers=1 run: %s@.") ds;
      false

let full () =
  if
    not
      (run ~engine_seeds:100_000 ~engine_workers:[ 2; 4; 8 ] ~kv_seeds:3_000
         ~kv_workers:[ 4 ] ~file:"BENCH_sweep.json")
  then exit 1

let smoke () =
  if
    not
      (run ~engine_seeds:2_000 ~engine_workers:[ 2 ] ~kv_seeds:100 ~kv_workers:[ 2 ]
         ~file:"BENCH_sweep.json")
  then begin
    Fmt.epr "sweep-smoke: sharded and sequential sweeps diverged@.";
    exit 1
  end;
  Fmt.pr "sweep-smoke: 2-worker sharded sweeps merge byte-identically on both harnesses@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
