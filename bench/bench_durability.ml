(** Durability benchmark: what the simulated-disk WAL costs and what it
    catches.  Writes [BENCH_durability.json] with four sections:

    - [codec]: binary codec + frame throughput (encode/decode round
      trips per second) for both the engine and the database record
      types.
    - [overhead]: chaos-sweep wall-clock with the durable WAL versus the
      PR-3 in-memory log, and with storage faults armed on top.  The
      durable/memory ratio is the headline number (target < 2x).
    - [durability_sweeps]: 500-seed fault-on sweeps (torn + corrupt
      tails on every crash) over both 3PC paradigms and the database
      harness — all four oracles must stay clean, the experimental
      evidence that the paper's force rule makes torn and corrupt tails
      vacuous.
    - [ablations]: the two ways to break the discipline, each caught by
      the durability oracle — the mis-placed force point ([late_force],
      found by sweep and shrunk to a pasteable plan) and the lying fsync
      ([Lost_flush], pinned plans on both harnesses).

    [--smoke] (wired to the [@durability-smoke] dune alias) runs a
    seconds-long fixed corpus asserting the correctness half only: sweeps
    clean, both ablations caught, durable run = in-memory run.  No
    wall-clock assertions — CI machines are noisy. *)

module C = Engine.Chaos
module FP = Engine.Failure_plan
module N = Sim.Nemesis
module KC = Kv.Chaos_db

let time = Helpers_bench.time
let rate = Helpers_bench.rate
let count_for = Helpers_bench.count_for

(* [--workers N] shards the seed sweeps below across N domains via
   Sim.Sweep; results are byte-identical whatever the value. *)
let workers = Helpers_bench.arg_int "--workers" ~default:1 Sys.argv
let faulty_profile = { N.default_profile with N.p_disk_fault = 0.6 }
let kv_faulty_profile = { KC.default_profile with N.p_disk_fault = 0.6 }

(* the mis-placed force point the durability oracle must catch *)
let late_force rb = { (C.default_config rb) with Engine.Runtime.late_force = true }

let late_force_pinned = "step-crash site=2 step=0 mode=after-logging:1"

let lost_flush_pinned =
  "disk site=2 fault=lost-flush nth=1; step-crash site=2 step=0 mode=after-logging:1"

let kv_lost_flush_schedule =
  [
    N.Disk_fault { site = 3; fault = Sim.Disk.Lost_flush; nth = 0 };
    N.Crash { site = 3; at = 3.0 };
  ]

let has_durability vs = List.exists (fun (v : C.violation) -> v.C.oracle = C.Durability) vs

let kv_has_durability vs =
  List.exists (fun (v : KC.violation) -> v.KC.oracle = KC.Durability) vs

(* ---------------- codec throughput ---------------- *)

let engine_records =
  [
    Engine.Wal.Began { protocol = "central-3pc"; initial = "q" };
    Engine.Wal.Transitioned { to_state = "w"; vote = Some Core.Types.Yes };
    Engine.Wal.Moved { to_state = "p" };
    Engine.Wal.Decided Core.Types.Committed;
  ]

let kv_records =
  [
    Kv.Kv_wal.P_prepared
      {
        txn = 42;
        coordinator = 1;
        participants = [ 1; 2; 3; 4 ];
        writes = [ ("acct-0", 120); ("acct-7", -120) ];
        locks = [ ("acct-0", Kv.Lock_table.Exclusive); ("acct-7", Kv.Lock_table.Exclusive) ];
      };
    Kv.Kv_wal.P_precommitted { txn = 42 };
    Kv.Kv_wal.P_outcome { txn = 42; commit = true };
    Kv.Kv_wal.C_begin { txn = 42; participants = [ 2; 3 ]; three_phase = true };
    Kv.Kv_wal.C_decided { txn = 42; commit = true };
  ]

let codec_row label records to_bytes of_bytes =
  let iters = 100_000 in
  let (), wall =
    time (fun () ->
        for _ = 1 to iters do
          List.iter
            (fun r ->
              match of_bytes (to_bytes r) with
              | Ok _ -> ()
              | Error e -> failwith ("codec round trip failed: " ^ e))
            records
        done)
  in
  let n = iters * List.length records in
  Sim.Json.Obj
    [
      ("codec", Sim.Json.Str label);
      ("round_trips", Sim.Json.Int n);
      ("wall_s", Sim.Json.Float wall);
      ("round_trips_per_sec", Sim.Json.Float (rate n wall));
    ]

let frame_row () =
  (* frame + scan over a realistic log image: 60 framed records *)
  let payloads = List.map Engine.Wal.to_bytes engine_records in
  let image =
    let buf = Buffer.create 1024 in
    for _ = 1 to 15 do
      List.iter (fun p -> Buffer.add_bytes buf (Sim.Disk.Frame.encode p)) payloads
    done;
    Buffer.to_bytes buf
  in
  let iters = 20_000 in
  let (), wall =
    time (fun () ->
        for _ = 1 to iters do
          let _, repair = Sim.Disk.Frame.scan image in
          if not (Sim.Disk.Frame.clean repair) then failwith "scan of a clean image not clean"
        done)
  in
  let n = iters * 60 in
  Sim.Json.Obj
    [
      ("codec", Sim.Json.Str "frame-scan");
      ("records_scanned", Sim.Json.Int n);
      ("wall_s", Sim.Json.Float wall);
      ("records_per_sec", Sim.Json.Float (rate n wall));
    ]

(* ---------------- WAL overhead: durable vs in-memory ---------------- *)

(* the engine chaos loop minus the oracles: same generated schedules,
   only the WAL mode differs *)
let engine_sweep_wall ~durable ~seeds =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let (), wall =
    time (fun () ->
        for seed = 0 to seeds - 1 do
          let schedule = N.generate (Sim.Rng.create ~seed) ~n_sites:3 ~k:1 N.default_profile in
          let plan = FP.of_schedule schedule in
          ignore (Engine.Runtime.run (Engine.Runtime.config ~plan ~seed ~durable_wal:durable rb))
        done)
  in
  wall

let engine_overhead_row seeds =
  Fmt.epr "overhead: engine runs x%d (memory vs durable)...@." seeds;
  let mem = engine_sweep_wall ~durable:false ~seeds in
  let dur = engine_sweep_wall ~durable:true ~seeds in
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "protocol");
      ("runs", Sim.Json.Int seeds);
      ("memory_wall_s", Sim.Json.Float mem);
      ("durable_wall_s", Sim.Json.Float dur);
      ("overhead_ratio", Sim.Json.Float (if mem > 0.0 then dur /. mem else 0.0));
    ]

let kv_overhead_row seeds =
  Fmt.epr "overhead: kv sweeps x%d (memory vs durable vs faulted)...@." seeds;
  let sweep ?profile ~durable_wal () =
    time (fun () ->
        ignore
          (KC.sweep ?profile ~config:{ KC.default_config with Kv.Db.durable_wal } ~workers ~k:1
             ~seeds ()))
  in
  let (), mem = sweep ~durable_wal:false () in
  let (), dur = sweep ~durable_wal:true () in
  let (), faulted = sweep ~profile:kv_faulty_profile ~durable_wal:true () in
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "kv");
      ("seeds", Sim.Json.Int seeds);
      ("memory_wall_s", Sim.Json.Float mem);
      ("durable_wall_s", Sim.Json.Float dur);
      ("faulted_wall_s", Sim.Json.Float faulted);
      ("overhead_ratio", Sim.Json.Float (if mem > 0.0 then dur /. mem else 0.0));
      ("faulted_ratio", Sim.Json.Float (if mem > 0.0 then faulted /. mem else 0.0));
    ]

(* ---------------- fault-on durability sweeps ---------------- *)

let engine_durability_row (label, build, n, k, seeds) =
  Fmt.epr "durability sweep %s n=%d k=%d seeds=%d...@." label n k seeds;
  let rb = Engine.Rulebook.compile (build n) in
  let summary, wall =
    time (fun () -> C.sweep ~profile:faulty_profile rb ~workers ~k ~seeds ())
  in
  let by = summary.C.violations_by_oracle in
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "protocol");
      ("protocol", Sim.Json.Str label);
      ("n", Sim.Json.Int n);
      ("k", Sim.Json.Int k);
      ("seeds", Sim.Json.Int seeds);
      ("p_disk_fault", Sim.Json.Float faulty_profile.N.p_disk_fault);
      ("wall_s", Sim.Json.Float wall);
      ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
      ("violations_durability", Sim.Json.Int (count_for by C.Durability));
      ("violations_atomicity", Sim.Json.Int (count_for by C.Atomicity));
      ("violations_progress", Sim.Json.Int (count_for by C.Progress));
      ("violations_recovery", Sim.Json.Int (count_for by C.Recovery_convergence));
      ("clean", Sim.Json.Bool (by = []));
    ]

let kv_durability_row seeds =
  Fmt.epr "durability sweep kv central-3pc seeds=%d...@." seeds;
  let summary, wall =
    time (fun () -> KC.sweep ~profile:kv_faulty_profile ~n_sites:4 ~workers ~k:1 ~seeds ())
  in
  let by = summary.KC.violations_by_oracle in
  Sim.Json.Obj
    [
      ("harness", Sim.Json.Str "kv");
      ("protocol", Sim.Json.Str "central-3pc");
      ("n", Sim.Json.Int 4);
      ("k", Sim.Json.Int 1);
      ("seeds", Sim.Json.Int seeds);
      ("p_disk_fault", Sim.Json.Float kv_faulty_profile.N.p_disk_fault);
      ("wall_s", Sim.Json.Float wall);
      ("schedules_per_sec", Sim.Json.Float (rate seeds wall));
      ("violations_durability", Sim.Json.Int (count_for by KC.Durability));
      ("clean", Sim.Json.Bool (by = []));
    ]

(* ---------------- ablations ---------------- *)

let late_force_row () =
  (* let the sweep find the mis-placed force point on its own, then
     shrink it to the pasteable regression plan *)
  Fmt.epr "ablation: late-force hunt...@.";
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let rec hunt seed =
    if seed > 200 then None
    else
      let o = C.run_one ~config:(late_force rb) rb ~k:1 ~seed () in
      if has_durability o.C.violations then Some (seed, o.C.plan) else hunt (seed + 1)
  in
  match hunt 0 with
  | None ->
      Sim.Json.Obj
        [ ("ablation", Sim.Json.Str "late-force"); ("caught", Sim.Json.Bool false) ]
  | Some (seed, plan) ->
      let config = late_force rb in
      let minimal, shrink_runs =
        Engine.Harness.shrink (C.harness ~config rb) ~seed ~oracle:C.Durability plan
      in
      let reloaded = FP.of_string_exn (FP.to_string minimal) in
      let _, replay = C.run_plan ~config rb ~plan:reloaded ~seed () in
      Sim.Json.Obj
        [
          ("ablation", Sim.Json.Str "late-force");
          ("caught", Sim.Json.Bool true);
          ("seed", Sim.Json.Int seed);
          ("shrunk_faults", Sim.Json.Int (FP.fault_count minimal));
          ("shrink_runs", Sim.Json.Int shrink_runs);
          ("shrunk_plan", Sim.Json.Str (FP.to_string minimal));
          ("replays_through_text", Sim.Json.Bool (has_durability replay));
        ]

let lost_flush_rows () =
  Fmt.epr "ablation: lying fsync...@.";
  let engine_rows =
    List.map
      (fun (label, build) ->
        let rb = Engine.Rulebook.compile (build 3) in
        let _, violations = C.run_plan rb ~plan:(FP.of_string_exn lost_flush_pinned) ~seed:7 () in
        Sim.Json.Obj
          [
            ("ablation", Sim.Json.Str "lost-flush");
            ("harness", Sim.Json.Str "protocol");
            ("protocol", Sim.Json.Str label);
            ("plan", Sim.Json.Str lost_flush_pinned);
            ("caught", Sim.Json.Bool (has_durability violations));
          ])
      [ ("central-3pc", Core.Catalog.central_3pc); ("decentralized-3pc", Core.Catalog.decentralized_3pc) ]
  in
  let _, kv_violations = KC.run_schedule ~n_sites:4 ~seed:7 kv_lost_flush_schedule in
  engine_rows
  @ [
      Sim.Json.Obj
        [
          ("ablation", Sim.Json.Str "lost-flush");
          ("harness", Sim.Json.Str "kv");
          ("protocol", Sim.Json.Str "central-3pc");
          ("schedule", Sim.Json.Str (N.to_string kv_lost_flush_schedule));
          ("caught", Sim.Json.Bool (kv_has_durability kv_violations));
        ];
    ]

(* ---------------- full bench ---------------- *)

let full () =
  let report = Sim.Report.create ~bench_name:"durability" () in
  Sim.Report.add report "codec"
    (Sim.Json.List
       [
         codec_row "engine-wal" engine_records Engine.Wal.to_bytes Engine.Wal.of_bytes;
         codec_row "kv-wal" kv_records Kv.Kv_wal.to_bytes Kv.Kv_wal.of_bytes;
         frame_row ();
       ]);
  Sim.Report.add report "overhead"
    (Sim.Json.List [ engine_overhead_row 500; kv_overhead_row 120 ]);
  Sim.Report.add report "durability_sweeps"
    (Sim.Json.List
       [
         engine_durability_row ("central-3pc", Core.Catalog.central_3pc, 3, 1, 500);
         engine_durability_row ("decentralized-3pc", Core.Catalog.decentralized_3pc, 3, 1, 500);
         engine_durability_row ("central-3pc", Core.Catalog.central_3pc, 4, 2, 200);
         kv_durability_row 150;
       ]);
  Sim.Report.add report "ablations" (Sim.Json.List (late_force_row () :: lost_flush_rows ()));
  let file = "BENCH_durability.json" in
  Sim.Report.write report ~file;
  Fmt.pr "wrote %s@." file

(* ---------------- smoke mode ---------------- *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Fmt.epr "UNEXPECTED %s@." what
  end

let smoke () =
  let rb_c3 = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let rb_d3 = Engine.Rulebook.compile (Core.Catalog.decentralized_3pc 3) in
  (* fault-on sweeps must stay clean: torn/corrupt tails are vacuous
     under the force discipline *)
  let sc = C.sweep ~profile:faulty_profile rb_c3 ~workers ~k:1 ~seeds:80 () in
  check "central-3pc reported violations under disk faults" (sc.C.violations_by_oracle = []);
  let sd = C.sweep ~profile:faulty_profile rb_d3 ~workers ~k:1 ~seeds:40 () in
  check "decentralized-3pc reported violations under disk faults" (sd.C.violations_by_oracle = []);
  let skv = KC.sweep ~profile:kv_faulty_profile ~n_sites:4 ~workers ~k:1 ~seeds:25 () in
  check "kv central-3pc reported violations under disk faults" (skv.KC.violations_by_oracle = []);
  (* the late-force ablation must be caught, and only the ablation *)
  let plan = FP.of_string_exn late_force_pinned in
  let _, late = C.run_plan ~config:(late_force rb_c3) rb_c3 ~plan ~seed:7 () in
  check "late force not caught by the durability oracle" (has_durability late);
  let _, correct = C.run_plan rb_c3 ~plan ~seed:7 () in
  check "correct force order tripped the durability oracle" (not (has_durability correct));
  (* the lying fsync must be caught on both harnesses *)
  let _, lf = C.run_plan rb_c3 ~plan:(FP.of_string_exn lost_flush_pinned) ~seed:7 () in
  check "engine lost-flush not caught" (has_durability lf);
  let _, kv_lf = KC.run_schedule ~n_sites:4 ~seed:7 kv_lost_flush_schedule in
  check "kv lost-flush not caught" (kv_has_durability kv_lf);
  (* with faults off, the durable WAL must not perturb the simulation *)
  List.iter
    (fun seed ->
      let a = KC.run_one ~n_sites:4 ~k:1 ~seed () in
      let b =
        KC.run_one ~config:{ KC.default_config with Kv.Db.durable_wal = false } ~k:1 ~seed ()
      in
      check
        (Fmt.str "kv seed %d: durable and in-memory runs diverge" seed)
        (a.KC.result.Kv.Db.committed = b.KC.result.Kv.Db.committed
        && a.KC.result.Kv.Db.aborted = b.KC.result.Kv.Db.aborted
        && a.KC.result.Kv.Db.messages_sent = b.KC.result.Kv.Db.messages_sent))
    [ 0; 48 ];
  if !failures > 0 then begin
    Fmt.epr "durability-smoke: %d unexpected result(s)@." !failures;
    exit 1
  end;
  Fmt.pr
    "durability-smoke: fault-on sweeps clean, late-force and lying-fsync ablations caught, \
     durable run = in-memory run@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
