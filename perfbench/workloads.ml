(* The benchmark's four workloads.  Each is driven through the program's
   public entry points only, single-process and single-domain
   ([workers = 1]).

   - engine-chaos: [Engine.Chaos.sweep], central-3PC n=3 k=1, default
     [Sim.Nemesis] profile, closed loop over consecutive seeds.
   - kv-chaos: [Kv.Chaos_db.sweep], 3PC n=4 k=1, default kv profile,
     the 10-transaction bank workload over 8 hot accounts.
   - kv-load: one long fault-free [Kv.Db.run] of 4,000 transactions in a
     Poisson open-loop stream drawn up front (3 txn per simulated second,
     512 uniform keys, 3 ops/txn, 50% writes), 3PC n=4, durable WAL,
     0.4 s sync latency, group commit (8, 0.05 s), pipeline depth 8.
   - model-check: [Engine.Model_check.run] (Skeen rule) on central-3PC
     and central-2PC, n=4 k=2.

   A run times rounds of identical work until its time is up and reports
   medians over the rounds.  Counts and simulated-time figures come from
   one fixed pass, so a change that only saves CPU leaves them
   byte-identical for a given seed, however many rounds fit.  The traced
   run repeats each chaos seed through the layer calls that
   [Chaos.run_one] and [Sim.Sweep.sweep] make, with a span around each. *)

type metric = { name : string; value : float; unit_ : string }
type check = { check : string; ok : bool; detail : string }

type report = {
  metrics : metric list;
  checks : check list;
  attempted : int;
  failed : int;
  failures : string list;  (** one line per failing seed, txn class or verdict *)
  rounds : int;
}

let m name unit_ value = { name; value; unit_ }
let now_ns = Tracer.now_ns

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let time_s f =
  let t0 = now_ns () in
  let v = f () in
  (v, float_of_int (now_ns () - t0) *. 1e-9)

(* The reference clock.  The host is shared, and for seconds at a time
   other tenants make everything on it run up to half again slower: the
   wall time of identical work moves by a fifth between runs.  So the
   benchmark reads wall times on a reference clock.  After each round of
   timed work it times a fixed calibration loop (table lookups and
   arithmetic over lists that die at once; none of the program's code)
   for a tenth of the round's length.  The run's wall times are scaled by
   (nominal / median loop time) ^ [calibration_exponent]: a slow spell
   slows the program and the loop together and the figure holds, while a
   faster program shortens only the rounds.  The loop allocates, as the
   program does, but nothing it allocates survives a minor collection,
   so it does no major-heap work on the program's behalf.

   The exponent is below 1 because a slow spell slows the loop more than
   the program: in paired runs on a two-core host, the loop's time moved
   by about a third and kv-load's by a sixth.  With 0.6, the quartile
   spread of [ops_per_s] over ten seeds was 4–13% on each workload,
   against 15–35% raw.  The raw figures are reported too
   ([bench.wall_ops_per_s], [bench.calibration_ms]). *)
let calibration_nominal_s = 0.010
let calibration_exponent = 0.6
let calibration_table = Array.init 65536 (fun i -> (i * 7919) land 65535)

let calibration_loop () =
  let h = ref 0 in
  for i = 0 to 400_000 do
    let l = [ !h; i; calibration_table.(!h land 65535); !h lxor i ] in
    h := List.fold_left (fun a x -> ((a * 31) + x) land max_int) 0 l
  done;
  ignore (Sys.opaque_identity !h)

(* Loop times covering at least a tenth of [after_s], at least one. *)
let calibrate ~after_s =
  let rec go acc spent =
    let _, c = time_s calibration_loop in
    if spent +. c >= after_s /. 10.0 then c :: acc else go (c :: acc) (spent +. c)
  in
  go [] 0.0

type 'a timed = {
  results : 'a list;  (** one per round *)
  setup_s : float;  (** median set-up time, on the reference clock *)
  scale : float;  (** reference seconds per wall second in this run *)
  calibration_s : float;  (** the calibration loop's median wall time *)
}

(* Rounds of [f] until [seconds] have passed, at least [min_rounds], each
   followed by calibration.  [setup] (already run once, taking
   [first_setup_s] of wall time) runs again between rounds every
   [seconds /. setup_samples], so its samples spread over the run as the
   rounds do. *)
let min_rounds = 3
let setup_samples = 20

let rounds ~seconds ~setup ~first_setup_s f =
  let start = now_ns () and span = int_of_float (seconds *. 1e9) in
  let every = max 1 (span / setup_samples) in
  let next = ref (start + every) and setups = ref [ first_setup_s ] in
  let calibrations = ref (calibrate ~after_s:first_setup_s) in
  let rec go i acc =
    if i >= min_rounds && now_ns () >= start + span then List.rev acc
    else begin
      let r, round_s = time_s (fun () -> f i) in
      calibrations := calibrate ~after_s:round_s @ !calibrations;
      if now_ns () >= !next then begin
        setups := snd (time_s setup) :: !setups;
        next := now_ns () + every
      end;
      go (i + 1) (r :: acc)
    end
  in
  let results = go 0 [] in
  let calibration_s = median !calibrations in
  let scale = (calibration_nominal_s /. calibration_s) ** calibration_exponent in
  { results; setup_s = median !setups *. scale; scale; calibration_s }

(* The median over rounds of a wall time, on the reference clock. *)
let ref_median f t = median (List.map f t.results) *. t.scale
let raw_median f t = median (List.map f t.results)
let calibration_ms t = m "bench.calibration_ms" "ms" (t.calibration_s *. 1e3)

(* [untraced ()] and [traced ()] in round [i]'s turn: they swap places
   every round, so neither always pays the collector for what ran just
   before it. *)
let in_turn i untraced traced =
  if i mod 2 = 0 then
    let u = untraced () in
    (u, traced ())
  else
    let t = traced () in
    (untraced (), t)

let check check ok detail = { check; ok; detail }

let failed_frac ~attempted ~failed =
  m "failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))

(* Each chaos seed range starts at [seed * seed_stride], so neighbouring
   workload seeds never share a chaos seed. *)
let seed_stride = 1_000_000

(* ------------------------------------------------------------------ *)
(* the two chaos workloads: one shape, two harnesses                   *)
(* ------------------------------------------------------------------ *)

(* What one seed's per-call decomposition yields. *)
type seed_outcome = {
  oracles : string list;  (** names of the oracles the seed violated *)
  plan_text : string;  (** replayable {!Engine.Failure_plan.to_string} text *)
  messages : int;  (** deliveries (engine) or messages sent (kv) *)
  forces : int;
  call_words : float;  (** minor words allocated by the run call *)
  records : int;  (** WAL records pushed through the codec probe *)
}

(* The seed-ordered verdicts of one decomposition pass over a range. *)
type pass = {
  seeds : int;
  by_oracle : (string * int) list;  (** sorted, like the sweep's counts *)
  failing : string list;
  messages : int;
  forces : int;
  call_words : float;
  records : int;
}

type chaos = {
  label : string;
  seeds : int;  (** seeds per round *)
  warmup : int;
  replay_hint : int -> string;
  sweep : seed_base:int -> seeds:int -> (string * int) list;
      (** the untraced sweep: per-oracle violation counts *)
  decompose : Tracer.t -> merged:Sim.Metrics.t -> seed:int -> seed_outcome;
  retained_probe : seed_base:int -> seeds:int -> Obj.t;
      (** phase 1 of the sweep, kept alive: what it retains per seed *)
  run_span : string;  (** the span around the harness's run call *)
  run_metrics : per_seed:(string -> float) -> pass -> metric list;
      (** the harness's own per-layer figures from a traced pass *)
}

(* [protocol] is a {!Core.Catalog} label; tests pass a blocking one to
   see violations go through the decomposition too. *)
let engine_chaos ?(protocol = "central-3pc") () =
  let n_sites = 3 and k = 1 in
  let rb = Engine.Rulebook.compile ((Core.Catalog.find protocol).build n_sites) in
  let codec_probe store =
    Engine.Wal.Store.fold
      (fun n _site wal ->
        let frames =
          List.map (fun r -> Sim.Disk.Frame.encode (Engine.Wal.to_bytes r)) (Engine.Wal.records wal)
        in
        let payloads, repair = Sim.Disk.Frame.scan (Bytes.concat Bytes.empty frames) in
        if List.length payloads <> List.length frames || not (Sim.Disk.Frame.clean repair) then
          failwith "WAL codec probe: a framed log did not scan back whole";
        n + List.length frames)
      0 store
  in
  {
    label = "engine-chaos";
    seeds = 2000;
    warmup = 50;
    replay_hint =
      (fun seed -> Printf.sprintf "skeen chaos --protocol %s -n 3 --replay %d" protocol seed);
    sweep =
      (fun ~seed_base ~seeds ->
        let s = Engine.Chaos.sweep ~seed_base ~workers:1 rb ~k ~seeds () in
        List.map (fun (o, c) -> (Engine.Chaos.oracle_name o, c)) s.Engine.Chaos.violations_by_oracle);
    decompose =
      (fun tr ~merged ~seed ->
        (* [Chaos.run_one]'s steps, then [Sim.Sweep.sweep]'s merge *)
        let root = Tracer.enter tr "seed" ~key:seed in
        let metrics = Sim.Metrics.create () in
        let plan =
          Tracer.span tr "nemesis.generate" ~key:seed (fun () ->
              let sched_rng = Sim.Rng.split (Sim.Rng.create ~seed) in
              Engine.Failure_plan.of_schedule
                (Sim.Nemesis.generate sched_rng ~n_sites ~k Sim.Nemesis.default_profile))
        in
        Sim.Metrics.incr metrics "chaos_runs";
        Sim.Metrics.observe metrics "schedule_faults"
          (float_of_int (Engine.Failure_plan.fault_count plan));
        let result, call_words =
          Tracer.span tr "runtime.run" ~key:seed (fun () ->
              let w0 = Gc.minor_words () in
              let r =
                Engine.Runtime.run
                  (Engine.Runtime.config ~plan ~seed ~tracing:false ~until:1500.0
                     ~termination:Engine.Runtime.Skeen ~late_force:false rb)
              in
              (r, Gc.minor_words () -. w0))
        in
        let violations =
          Tracer.span tr "chaos.oracles" ~key:seed (fun () ->
              Engine.Chaos.violations_of ~metrics result)
        in
        let oracles =
          List.map (fun (v : Engine.Chaos.violation) -> Engine.Chaos.oracle_name v.oracle) violations
        in
        Tracer.span tr "metrics.merge" ~key:seed (fun () ->
            List.iter (fun o -> Sim.Metrics.incr metrics ("violations_" ^ o)) oracles;
            Sim.Metrics.drain_timers metrics;
            Sim.Metrics.merge merged metrics);
        Tracer.leave tr root;
        (* a probe of its own, outside the seed's span: the sweep does not
           re-encode its logs *)
        let records =
          if tr.Tracer.enabled then
            Tracer.span tr "wal.codec" ~key:seed (fun () -> codec_probe result.Engine.Runtime.store)
          else 0
        in
        {
          oracles;
          plan_text = Engine.Failure_plan.to_string plan;
          messages = result.Engine.Runtime.messages_delivered;
          forces = Sim.Metrics.counter result.Engine.Runtime.run_metrics "wal_forces";
          call_words;
          records;
        });
    retained_probe =
      (fun ~seed_base ~seeds ->
        Obj.repr
          (Sim.Sweep.sweep ~workers:1 ~seed_base ~seeds (fun ~metrics ~seed ->
               Engine.Chaos.run_one ~metrics rb ~k ~seed ())));
    run_span = "runtime.run";
    run_metrics =
      (fun ~per_seed pass ->
        let seeds = float_of_int pass.seeds and deliveries = float_of_int pass.messages in
        [
          m "runtime.run_us" "us" (per_seed "runtime.run" *. 1e6);
          m "runtime.us_per_delivery" "us" (per_seed "runtime.run" *. 1e6 *. seeds /. deliveries);
          m "runtime.words_per_delivery" "words" (pass.call_words /. deliveries);
          m "runtime.deliveries_per_seed" "count" (deliveries /. seeds);
          m "wal.forces_per_seed" "count" (float_of_int pass.forces /. seeds);
          m "wal.codec_ns_per_record" "ns"
            (per_seed "wal.codec" *. 1e9 *. seeds /. float_of_int pass.records);
          m "chaos.oracles_us" "us" (per_seed "chaos.oracles" *. 1e6);
        ]);
  }

let kv_chaos ?(protocol = "central-3pc") () =
  let k = 1 and n_sites = 4 in
  let protocol_label = protocol in
  let protocol =
    match protocol with
    | "central-2pc" -> Kv.Node.Two_phase
    | "central-3pc" -> Kv.Node.Three_phase
    | other -> invalid_arg ("kv-chaos runs central-2pc or central-3pc, not " ^ other)
  in
  {
    label = "kv-chaos";
    seeds = 2000;
    warmup = 10;
    replay_hint =
      (fun seed ->
        Printf.sprintf "skeen chaos --kv --protocol %s -n 4 --replay %d" protocol_label seed);
    sweep =
      (fun ~seed_base ~seeds ->
        let s = Kv.Chaos_db.sweep ~seed_base ~workers:1 ~protocol ~n_sites ~k ~seeds () in
        List.map
          (fun (o, c) -> (Kv.Chaos_db.oracle_name o, c))
          s.Kv.Chaos_db.violations_by_oracle);
    decompose =
      (fun tr ~merged ~seed ->
        (* [Chaos_db.run_one]'s steps, then [Chaos_db.sweep]'s per-seed
           accounting and [Sim.Sweep.sweep]'s merge *)
        let root = Tracer.enter tr "seed" ~key:seed in
        let schedule =
          Tracer.span tr "nemesis.generate" ~key:seed (fun () ->
              let rng = Sim.Rng.create ~seed in
              ignore (Sim.Rng.split rng) (* the workload's stream *);
              Sim.Nemesis.generate (Sim.Rng.split rng) ~n_sites ~k Kv.Chaos_db.default_profile)
        in
        let (result, violations), call_words =
          Tracer.span tr "chaos_db.run_schedule" ~key:seed (fun () ->
              let w0 = Gc.minor_words () in
              let r = Kv.Chaos_db.run_schedule ~protocol ~n_sites ~seed schedule in
              (r, Gc.minor_words () -. w0))
        in
        let oracles =
          List.map (fun (v : Kv.Chaos_db.violation) -> Kv.Chaos_db.oracle_name v.oracle) violations
        in
        Tracer.span tr "metrics.merge" ~key:seed (fun () ->
            let metrics = Sim.Metrics.create () in
            Sim.Metrics.incr metrics "chaos_runs";
            List.iter (fun o -> Sim.Metrics.incr metrics ("violations_" ^ o)) oracles;
            Sim.Metrics.merge metrics result.Kv.Db.run_metrics;
            Sim.Metrics.drain_timers metrics;
            Sim.Metrics.merge merged metrics);
        Tracer.leave tr root;
        {
          oracles;
          plan_text = Engine.Failure_plan.(to_string (of_schedule schedule));
          messages = result.Kv.Db.messages_sent;
          forces = result.Kv.Db.wal_forces;
          call_words;
          records = 0;
        });
    retained_probe =
      (fun ~seed_base ~seeds ->
        Obj.repr
          (Sim.Sweep.sweep ~workers:1 ~seed_base ~seeds (fun ~metrics ~seed ->
               let o = Kv.Chaos_db.run_one ~protocol ~n_sites ~k ~seed () in
               Sim.Metrics.merge metrics o.Kv.Chaos_db.result.Kv.Db.run_metrics;
               o)));
    run_span = "chaos_db.run_schedule";
    run_metrics =
      (fun ~per_seed pass ->
        let messages = float_of_int pass.messages /. float_of_int pass.seeds in
        [
          m "chaos_db.run_schedule_us" "us" (per_seed "chaos_db.run_schedule" *. 1e6);
          m "db.us_per_message" "us" (per_seed "chaos_db.run_schedule" *. 1e6 /. messages);
          m "db.messages_per_seed" "count" messages;
        ]);
  }

let decompose_range c tr ~seed_base =
  let merged = Sim.Metrics.create () in
  let tbl = Hashtbl.create 8 in
  let failing = ref [] and messages = ref 0 and forces = ref 0 in
  let call_words = ref 0.0 and records = ref 0 in
  for seed = seed_base to seed_base + c.seeds - 1 do
    let o = c.decompose tr ~merged ~seed in
    List.iter
      (fun name -> Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
      o.oracles;
    if o.oracles <> [] then
      failing :=
        Printf.sprintf "seed %d: %s violated; plan: %s; replay: %s" seed
          (String.concat "," o.oracles)
          (if o.plan_text = "" then "(no faults)" else o.plan_text)
          (c.replay_hint seed)
        :: !failing;
    messages := !messages + o.messages;
    forces := !forces + o.forces;
    call_words := !call_words +. o.call_words;
    records := !records + o.records
  done;
  {
    seeds = c.seeds;
    by_oracle = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
    failing = List.rev !failing;
    messages = !messages;
    forces = !forces;
    call_words = !call_words;
    records = !records;
  }

let show_counts l =
  match l with
  | [] -> "none"
  | l -> String.concat ", " (List.map (fun (o, c) -> Printf.sprintf "%s=%d" o c) l)

(* [make] builds the workload (compiling its rulebook, if any); set-up is
   that plus a short warm-up sweep. *)
let run_chaos make ~seed ~seconds ~spans =
  let seed_base = seed * seed_stride in
  let setup () =
    let c = make () in
    ignore (c.sweep ~seed_base ~seeds:c.warmup);
    c
  in
  let c, first_setup_s = time_s setup in
  let rounds f = rounds ~seconds ~setup ~first_setup_s f in
  let off = Tracer.create ~enabled:false in
  let sweep_wall () =
    let counts, s = time_s (fun () -> c.sweep ~seed_base ~seeds:c.seeds) in
    (List.sort compare counts, s)
  in
  (* the verdict pass: every seed's oracles through the layer calls,
     compared with the sweep's own counts *)
  let sweep_counts, _ = sweep_wall () in
  let verdicts = decompose_range c off ~seed_base in
  let attempted = c.seeds and failed = List.length verdicts.failing in
  let checks =
    [
      check
        (c.label ^ ": per-call decomposition matches the sweep's per-oracle violation counts")
        (verdicts.by_oracle = sweep_counts)
        (Printf.sprintf "decomposition: %s; sweep: %s" (show_counts verdicts.by_oracle)
           (show_counts sweep_counts));
    ]
  in
  let seeds_f = float_of_int c.seeds in
  match spans with
  | None ->
    let t = rounds (fun _ -> snd (sweep_wall ())) in
    {
      metrics = [ m "setup_s" "s" t.setup_s; m "ops_per_s" "1/s" (seeds_f /. ref_median Fun.id t) ];
      checks;
      attempted;
      failed;
      failures = verdicts.failing;
      rounds = List.length t.results;
    }
  | Some tr ->
    (* each round: the untraced sweep, then the untraced decomposition and
       the traced one, over the same seeds *)
    let t =
      rounds (fun i ->
          let _, sweep_s = sweep_wall () in
          let from = Tracer.length tr in
          let (_, plain_s), (pass, traced_s) =
            in_turn i
              (fun () -> time_s (fun () -> decompose_range c off ~seed_base))
              (fun () -> time_s (fun () -> decompose_range c tr ~seed_base))
          in
          let tot = Tracer.totals tr ~from ~until:(Tracer.length tr) in
          let per_seed name = float_of_int (Tracer.self_ns tot name) *. 1e-9 /. seeds_f in
          (* the codec probe is not part of the decomposition *)
          (pass, sweep_s, plain_s, per_seed, (traced_s /. seeds_f) -. per_seed "wal.codec"))
    in
    let med f = ref_median f t in
    let pass, _, _, _, _ = List.hd t.results in
    let per_seed name = med (fun (_, _, _, ps, _) -> ps name) in
    let layer_calls =
      List.fold_left
        (fun acc name -> acc +. per_seed name)
        0.0
        [ "nemesis.generate"; c.run_span; "chaos.oracles"; "metrics.merge" ]
    in
    let checks =
      checks
      @ [
          check
            (c.label ^ ": traced decomposition gives the untraced verdicts")
            (List.for_all
               (fun (p, _, _, _, _) ->
                 p.by_oracle = verdicts.by_oracle && p.messages = verdicts.messages)
               t.results)
            (show_counts pass.by_oracle);
        ]
    in
    {
      metrics =
        c.run_metrics ~per_seed pass
        @ [
            m "nemesis.generate_us" "us" (per_seed "nemesis.generate" *. 1e6);
            m "metrics.merge_us" "us" (per_seed "metrics.merge" *. 1e6);
            m "sweep.overhead_us" "us" ((med (fun (_, s, _, _, _) -> s /. seeds_f) -. layer_calls) *. 1e6);
            m "bench.trace_overhead" "ratio"
              (med (fun (_, _, _, _, t) -> t) /. med (fun (_, _, p, _, _) -> p /. seeds_f) -. 1.0);
            m "bench.wall_ops_per_s" "1/s" (seeds_f /. raw_median (fun (_, s, _, _, _) -> s) t);
            calibration_ms t;
            failed_frac ~attempted ~failed;
          ];
      checks;
      attempted;
      failed;
      failures = verdicts.failing;
      rounds = List.length t.results;
    }

(* Allocation per operation and the heap's high-water mark over [f],
   which does [ops] operations. *)
let accounting ~ops f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  let per_op x = x /. float_of_int ops in
  ( v,
    [
      m "alloc_words_per_op" "words" (per_op (s1.Gc.minor_words -. s0.Gc.minor_words));
      m "peak_heap_mb" "MB" (float_of_int (s1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ],
    per_op (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

(* One untraced sweep for allocation, promotion and the heap's
   high-water mark, then phase 1 of the sweep kept alive to count what
   it retains per seed. *)
let mem_chaos c ~seed =
  let seed_base = seed * seed_stride in
  let (), acc, promoted = accounting ~ops:c.seeds (fun () -> ignore (c.sweep ~seed_base ~seeds:c.seeds)) in
  let retained = c.retained_probe ~seed_base ~seeds:c.seeds in
  acc
  @ [
      m "gc.promoted_words_per_seed" "words" promoted;
      m "sweep.retained_words_per_seed" "words"
        (float_of_int (Obj.reachable_words retained) /. float_of_int c.seeds);
    ]

(* ------------------------------------------------------------------ *)
(* kv-load                                                             *)
(* ------------------------------------------------------------------ *)

let load_txns = 4000

let load_inputs ~seed =
  let arrivals =
    Kv.Workload.mixed (Sim.Rng.create ~seed)
      {
        Kv.Workload.n_txns = load_txns;
        arrival_rate = 3.0;
        keys = 512;
        ops_per_txn = 3;
        write_ratio = 0.5;
        zipf_skew = 0.0;
      }
  in
  let cfg =
    Kv.Db.config ~n_sites:4 ~protocol:Kv.Node.Three_phase ~seed ~durable_wal:true ~lock_wait_timeout:60.0
      ~sync_latency:0.4
      ~group_commit:{ Kv.Kv_wal.max_batch = 8; max_wait = 0.05 }
      ~pipeline_depth:8 ()
  in
  (cfg, arrivals)

let quarter arrivals = List.filteri (fun i _ -> i < load_txns / 4) arrivals

(* Everything a CPU-only change must leave byte-identical. *)
let sim_fingerprint (r : Kv.Db.result) =
  Printf.sprintf "c=%d a=%d p=%d msgs=%d forces=%d %s" r.committed r.aborted r.pending
    r.messages_sent r.wal_forces
    (Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true r.run_metrics))

let pct (r : Kv.Db.result) name p =
  Option.value ~default:0.0 (Sim.Metrics.percentile r.run_metrics name p)

(* Set-up draws the stream and warms up on a slice of it. *)
let run_load ~seed ~seconds ~spans =
  let setup () =
    let cfg, arrivals = load_inputs ~seed in
    ignore (Kv.Db.run cfg (List.filteri (fun i _ -> i < 64) arrivals));
    (cfg, arrivals)
  in
  let (cfg, arrivals), first_setup_s = time_s setup in
  let rounds f = rounds ~seconds ~setup ~first_setup_s f in
  let full = float_of_int load_txns in
  let run arrivals = Kv.Db.run cfg arrivals in
  (* [r] is the one result kept; rounds keep only its fingerprint, so
     later rounds do not pay to collect a heap that grows each round *)
  let r = run arrivals in
  let failed = r.aborted + r.pending in
  let checks =
    [
      check "kv-load: atomicity_ok" r.atomicity_ok "";
      check "kv-load: committed + aborted + pending = submitted"
        (r.committed + r.aborted + r.pending = load_txns)
        (Printf.sprintf "%d + %d + %d vs %d" r.committed r.aborted r.pending load_txns);
    ]
  in
  let failures =
    if failed = 0 then []
    else
      [
        Printf.sprintf "seed %d: %d of %d transactions aborted, %d pending" seed r.aborted load_txns
          r.pending;
      ]
  in
  let fp = sim_fingerprint r in
  let same_as_first what fps =
    check ("kv-load: " ^ what ^ " give the same simulated results") (List.for_all (( = ) fp) fps) ""
  in
  let timed_run arrivals =
    let r, s = time_s (fun () -> run arrivals) in
    (sim_fingerprint r, s)
  in
  match spans with
  | None ->
    let t = rounds (fun _ -> timed_run arrivals) in
    {
      metrics = [ m "setup_s" "s" t.setup_s; m "ops_per_s" "1/s" (full /. ref_median snd t) ];
      checks = checks @ [ same_as_first "repeated rounds" (List.map fst t.results) ];
      attempted = load_txns;
      failed;
      failures;
      rounds = List.length t.results;
    }
  | Some tr ->
    let part = quarter arrivals in
    let t =
      rounds (fun i ->
          let traced_span name arrivals =
            let root = Tracer.enter tr name ~key:seed in
            let w0 = Gc.minor_words () in
            let r = Tracer.span tr "db.run" ~key:seed (fun () -> run arrivals) in
            let words = Gc.minor_words () -. w0 in
            Tracer.leave tr root;
            let tot = Tracer.totals tr ~from:root ~until:(Tracer.length tr) in
            ( sim_fingerprint r,
              words,
              float_of_int (Tracer.self_ns tot "db.run") *. 1e-9,
              float_of_int (Tracer.self_ns tot name + Tracer.self_ns tot "db.run") *. 1e-9 )
          in
          let (plain_fp, plain_s), (fp_full, words, full_s, traced_s) =
            in_turn i (fun () -> timed_run arrivals) (fun () -> traced_span "stream" arrivals)
          in
          let _, _, quarter_s, _ = traced_span "stream.quarter" part in
          ([ plain_fp; fp_full ], words, full_s, quarter_s, traced_s, plain_s))
    in
    let med f = ref_median f t in
    let _, words, _, _, _, _ = List.hd t.results in
    let us_per_txn = med (fun (_, _, s, _, _, _) -> s) /. full *. 1e6 in
    let quarter_us = med (fun (_, _, _, s, _, _) -> s) /. float_of_int (List.length part) *. 1e6 in
    let flushes = Sim.Metrics.counter r.run_metrics "wal_group_flushes" in
    let batch_mean =
      match Sim.Metrics.summarize r.run_metrics "group_batch_size" with
      | Some s -> s.Sim.Metrics.mean
      | None -> 0.0
    in
    {
      metrics =
        [
          m "db.us_per_txn" "us" us_per_txn;
          m "db.words_per_txn" "words" (words /. full);
          m "db.us_per_txn_scaling" "ratio" (us_per_txn /. quarter_us);
          m "node.messages_per_txn" "count" (float_of_int r.messages_sent /. full);
          m "kv_wal.forces_per_commit" "count" r.forces_per_commit;
          m "lock_table.wait_p99_s" "s" (pct r "kv_lock_wait" 99.0);
          m "node.vote_phase_p50_s" "s" (pct r "kv_vote_phase" 50.0);
          m "node.decision_phase_p50_s" "s" (pct r "kv_decision_phase" 50.0);
          m "batch.size_mean" "count" batch_mean;
          m "batch.flushes_per_commit" "count"
            (float_of_int flushes /. float_of_int (max 1 r.committed));
          m "commit_p50_s" "s" (pct r "commit_latency" 50.0);
          m "commit_p99_s" "s" (pct r "commit_latency" 99.0);
          m "commits_per_sim_s" "1/s" r.throughput;
          m "bench.trace_overhead" "ratio"
            (med (fun (_, _, _, _, t, _) -> t) /. med (fun (_, _, _, _, _, p) -> p) -. 1.0);
          m "bench.wall_ops_per_s" "1/s" (full /. raw_median (fun (_, _, _, _, _, p) -> p) t);
          calibration_ms t;
          failed_frac ~attempted:load_txns ~failed;
        ];
      checks =
        checks
        @ [
            same_as_first "traced and untraced runs"
              (List.concat_map (fun (fps, _, _, _, _, _) -> fps) t.results);
          ];
      attempted = load_txns;
      failed;
      failures;
      rounds = List.length t.results;
    }

let mem_load ~seed =
  let cfg, arrivals = load_inputs ~seed in
  let _, acc, _ = accounting ~ops:load_txns (fun () -> Kv.Db.run cfg arrivals) in
  acc

(* ------------------------------------------------------------------ *)
(* model-check                                                         *)
(* ------------------------------------------------------------------ *)

(* (name, protocol, Skeen's verdict: is it nonblocking?) *)
let mc_protocols =
  [ ("central-3pc", (fun () -> Core.Catalog.central_3pc 4), true);
    ("central-2pc", (fun () -> Core.Catalog.central_2pc 4), false) ]

let mc_config rulebook =
  { Engine.Model_check.rulebook; max_crashes = 2; limit = 2_000_000; rule = `Skeen }

let compile_all () =
  List.map (fun (name, p, nb) -> (name, Engine.Rulebook.compile (p ()), nb)) mc_protocols

(* What a round keeps of a check: the report's state lists are dropped
   at once, so later rounds do not pay to collect them. *)
type verdict = {
  protocol : string;
  safe : bool;
  nonblocking : bool;
  explored : int;
  expected_nonblocking : bool;
}

let verdict_of protocol (r : Engine.Model_check.report) expected_nonblocking =
  { protocol; safe = r.safe; nonblocking = r.nonblocking; explored = r.explored; expected_nonblocking }

let check_all compiled =
  List.map (fun (name, rb, nb) -> verdict_of name (Engine.Model_check.run (mc_config rb)) nb) compiled

let verdict_ok v = v.safe && v.nonblocking = v.expected_nonblocking
let states verdicts = List.fold_left (fun acc v -> acc + v.explored) 0 verdicts

(* Set-up compiles both rulebooks. *)
let run_check ~seconds ~spans =
  let compiled, first_setup_s = time_s compile_all in
  let rounds f = rounds ~seconds ~setup:compile_all ~first_setup_s f in
  let verdicts = check_all compiled in
  let n_states = float_of_int (states verdicts) in
  let wrong = List.filter (fun v -> not (verdict_ok v)) verdicts in
  let show v = Printf.sprintf "safe=%b nonblocking=%b explored=%d" v.safe v.nonblocking v.explored in
  let checks =
    List.map
      (fun v ->
        check
          (Printf.sprintf "model-check: %s is safe and %s" v.protocol
             (if v.expected_nonblocking then "nonblocking" else "blocking"))
          (verdict_ok v) (show v))
      verdicts
  in
  let failures = List.map (fun v -> v.protocol ^ ": " ^ show v) wrong in
  let same_states what l =
    check ("model-check: " ^ what ^ " explore the same states") (List.for_all (( = ) n_states) l) ""
  in
  let attempted = List.length verdicts and failed = List.length wrong in
  match spans with
  | None ->
    let t = rounds (fun _ -> time_s (fun () -> check_all compiled)) in
    {
      metrics = [ m "setup_s" "s" t.setup_s; m "ops_per_s" "1/s" (n_states /. ref_median snd t) ];
      checks =
        checks
        @ [
            same_states "repeated rounds"
              (List.map (fun (r, _) -> float_of_int (states r)) t.results);
          ];
      attempted;
      failed;
      failures;
      rounds = List.length t.results;
    }
  | Some tr ->
    let t =
      rounds (fun i ->
          let from = Tracer.length tr in
          let words = ref 0.0 in
          let traced () =
            let root = Tracer.enter tr "check" ~key:i in
            let vs =
              List.mapi
                (fun j (name, p, nb) ->
                  let rb =
                    Tracer.span tr "rulebook.compile" ~key:j (fun () ->
                        Engine.Rulebook.compile (p ()))
                  in
                  Tracer.span tr "model_check.run" ~key:j (fun () ->
                      let w0 = Gc.minor_words () in
                      let r = Engine.Model_check.run (mc_config rb) in
                      words := !words +. (Gc.minor_words () -. w0);
                      verdict_of name r nb))
                mc_protocols
            in
            Tracer.leave tr root;
            vs
          in
          let (_, plain_s), round_verdicts =
            in_turn i (fun () -> time_s (fun () -> check_all (compile_all ()))) traced
          in
          let tot = Tracer.totals tr ~from ~until:(Tracer.length tr) in
          let s name = float_of_int (Tracer.self_ns tot name) *. 1e-9 in
          ( round_verdicts,
            !words,
            s "rulebook.compile",
            s "model_check.run",
            s "check" +. s "rulebook.compile" +. s "model_check.run",
            plain_s ))
    in
    let med f = ref_median f t in
    let _, words, _, _, _, _ = List.hd t.results in
    {
      metrics =
        [
          m "rulebook.compile_ms" "ms" (med (fun (_, _, c, _, _, _) -> c) /. 2.0 *. 1e3);
          m "model_check.states" "count" n_states;
          m "model_check.states_per_s" "1/s" (n_states /. med (fun (_, _, _, r, _, _) -> r));
          m "model_check.words_per_state" "words" (words /. n_states);
          m "bench.trace_overhead" "ratio"
            (med (fun (_, _, _, _, t, _) -> t) /. med (fun (_, _, _, _, _, p) -> p) -. 1.0);
          m "bench.wall_ops_per_s" "1/s" (n_states /. raw_median (fun (_, _, _, _, _, p) -> p) t);
          calibration_ms t;
          failed_frac ~attempted ~failed;
        ];
      checks =
        checks
        @ [
            check "model-check: traced rounds reach the untraced verdicts"
              (List.for_all (fun (vs, _, _, _, _, _) -> vs = verdicts) t.results)
              "";
          ];
      attempted;
      failed;
      failures;
      rounds = List.length t.results;
    }

let mem_check () =
  let compiled = compile_all () in
  (* the state count is fixed per protocol; a first check learns it *)
  let ops = states (check_all compiled) in
  let _, acc, _ = accounting ~ops (fun () -> check_all compiled) in
  acc

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

let names = [ "engine-chaos"; "kv-chaos"; "kv-load"; "model-check" ]

(* With [trace], the run also records spans and returns them. *)
let run name ~seed ~seconds ~trace =
  let spans = if trace then Some (Tracer.create ~enabled:true) else None in
  let report =
    match name with
    | "engine-chaos" -> run_chaos engine_chaos ~seed ~seconds ~spans
    | "kv-chaos" -> run_chaos kv_chaos ~seed ~seconds ~spans
    | "kv-load" -> run_load ~seed ~seconds ~spans
    | "model-check" -> run_check ~seconds ~spans
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  (report, spans)

(* Memory accounting for one workload; call it in a fresh process, where
   the heap's high-water mark is this workload's alone. *)
let mem name ~seed =
  match name with
  | "engine-chaos" -> mem_chaos (engine_chaos ()) ~seed
  | "kv-chaos" -> mem_chaos (kv_chaos ()) ~seed
  | "kv-load" -> mem_load ~seed
  | "model-check" -> mem_check ()
  | other -> invalid_arg ("unknown workload " ^ other)
