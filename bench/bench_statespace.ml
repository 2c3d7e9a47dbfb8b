(** Wall-clock benchmark of the state-space engines: times
    [Core.Reachability.build] and [Engine.Model_check.run] over the
    catalog (central/decentralized 2PC and 3PC, n in 2..5, k in 0..2)
    and writes states/sec, peak resident states and wall time to
    [BENCH_statespace.json], so every future PR has a perf trajectory to
    beat.  A few small configurations are also run through the
    string-keyed reference engine ([Reference.Model_check_ref]) to report
    the interning speedup.

    [--smoke] instead runs a seconds-long configuration sweep that
    cross-checks the interned engine's [explored]/[safe]/[nonblocking]
    against the reference on every catalog protocol and exits non-zero
    on any mismatch (wired to the [@bench-smoke] dune alias). *)

let protocols =
  [
    ("central-2pc", Core.Catalog.central_2pc);
    ("decentralized-2pc", Core.Catalog.decentralized_2pc);
    ("central-3pc", Core.Catalog.central_3pc);
    ("decentralized-3pc", Core.Catalog.decentralized_3pc);
  ]

let ns = [ 2; 3; 4; 5 ]
let ks = [ 0; 1; 2 ]

(* Caps keep the full bench to a couple of minutes: a configuration that
   hits its cap is reported with ["limit_exceeded": true] rather than
   skipped silently. *)
let reach_limit = 2_000_000
let mc_limit = 1_000_000

let time = Helpers_bench.time
let rate = Helpers_bench.rate

(* ---------------- full bench ---------------- *)

let bench_reachability () =
  List.concat_map
    (fun (label, build) ->
      List.map
        (fun n ->
          let p = build n in
          Fmt.epr "reachability %s n=%d...@." label n;
          let result, wall = time (fun () ->
              try `Graph (Core.Reachability.build ~limit:reach_limit p)
              with Core.Reachability.Too_large _ -> `Too_large)
          in
          let states, edges, exceeded =
            match result with
            | `Graph g -> (Core.Reachability.n_nodes g, Core.Reachability.n_edges g, false)
            | `Too_large -> (reach_limit, 0, true)
          in
          Sim.Json.Obj
            [
              ("protocol", Sim.Json.Str label);
              ("n", Sim.Json.Int n);
              ("states", Sim.Json.Int states);
              ("edges", Sim.Json.Int edges);
              ("wall_s", Sim.Json.Float wall);
              ("states_per_sec", Sim.Json.Float (rate states wall));
              ("limit_exceeded", Sim.Json.Bool exceeded);
            ])
        ns)
    protocols

let mc_config p k =
  { Engine.Model_check.rulebook = Engine.Rulebook.compile p; max_crashes = k;
    limit = mc_limit; rule = `Skeen }

let bench_model_check () =
  List.concat_map
    (fun (label, build) ->
      List.concat_map
        (fun n ->
          let p = build n in
          List.map
            (fun k ->
              Fmt.epr "model_check %s n=%d k=%d...@." label n k;
              let result, wall =
                time (fun () ->
                    try `Report (Engine.Model_check.run (mc_config p k))
                    with Failure _ -> `Too_large)
              in
              let fields =
                match result with
                | `Report (r : Engine.Model_check.report) ->
                    [
                      ("explored", Sim.Json.Int r.Engine.Model_check.explored);
                      ("safe", Sim.Json.Bool r.Engine.Model_check.safe);
                      ("nonblocking", Sim.Json.Bool r.Engine.Model_check.nonblocking);
                      (* BFS retains every state in the seen/keys tables,
                         so peak residency = explored *)
                      ("peak_resident_states", Sim.Json.Int r.Engine.Model_check.explored);
                      ("states_per_sec", Sim.Json.Float (rate r.Engine.Model_check.explored wall));
                      ("limit_exceeded", Sim.Json.Bool false);
                    ]
                | `Too_large ->
                    [
                      ("explored", Sim.Json.Int mc_limit);
                      ("peak_resident_states", Sim.Json.Int mc_limit);
                      ("states_per_sec", Sim.Json.Float (rate mc_limit wall));
                      ("limit_exceeded", Sim.Json.Bool true);
                    ]
              in
              Sim.Json.Obj
                ([
                   ("protocol", Sim.Json.Str label);
                   ("n", Sim.Json.Int n);
                   ("k", Sim.Json.Int k);
                   ("rule", Sim.Json.Str "skeen");
                   ("wall_s", Sim.Json.Float wall);
                 ]
                @ fields))
            ks)
        ns)
    protocols

(* The reference engine is orders of magnitude slower, so the speedup
   section sticks to small configurations (including the acceptance one:
   central 3PC, n=3, k=2). *)
let speedup_configs =
  [
    ("central-2pc", Core.Catalog.central_2pc, 3, 2);
    ("central-3pc", Core.Catalog.central_3pc, 3, 1);
    ("central-3pc", Core.Catalog.central_3pc, 3, 2);
    ("decentralized-3pc", Core.Catalog.decentralized_3pc, 3, 1);
  ]

let bench_speedup () =
  List.map
    (fun (label, build, n, k) ->
      Fmt.epr "speedup %s n=%d k=%d...@." label n k;
      let cfg = mc_config (build n) k in
      (* warm once so allocator state is comparable; report each engine's
         best of three runs — these are millisecond-scale measurements,
         so a single scheduler hiccup would otherwise dominate *)
      ignore (Engine.Model_check.run cfg);
      let best f =
        let runs = List.init 3 (fun _ -> time f) in
        List.fold_left
          (fun (r0, t0) (r, t) -> if t < t0 then (r, t) else (r0, t0))
          (List.hd runs) (List.tl runs)
      in
      let a, tn = best (fun () -> Engine.Model_check.run cfg) in
      let b, tr = best (fun () -> Reference.Model_check_ref.run cfg) in
      assert (a.Engine.Model_check.explored = b.Engine.Model_check.explored);
      Sim.Json.Obj
        [
          ("protocol", Sim.Json.Str label);
          ("n", Sim.Json.Int n);
          ("k", Sim.Json.Int k);
          ("explored", Sim.Json.Int a.Engine.Model_check.explored);
          ("interned_wall_s", Sim.Json.Float tn);
          ("reference_wall_s", Sim.Json.Float tr);
          ("interned_states_per_sec", Sim.Json.Float (rate a.Engine.Model_check.explored tn));
          ("reference_states_per_sec", Sim.Json.Float (rate b.Engine.Model_check.explored tr));
          ("speedup", Sim.Json.Float (tr /. tn));
        ])
    speedup_configs

let full () =
  let report = Sim.Report.create ~bench_name:"statespace" () in
  Sim.Report.add report "reachability" (Sim.Json.List (bench_reachability ()));
  Sim.Report.add report "model_check" (Sim.Json.List (bench_model_check ()));
  Sim.Report.add report "speedup_vs_reference" (Sim.Json.List (bench_speedup ()));
  let file = "BENCH_statespace.json" in
  Sim.Report.write report ~file;
  Fmt.pr "wrote %s@." file

(* ---------------- smoke mode ---------------- *)

(* Every catalog protocol (including 1PC) at n=2..3, k=0..1, both
   termination rules: a few seconds of checking that the interned engine
   and the reference produce identical reports. *)
let smoke () =
  let failures = ref 0 in
  List.iter
    (fun (e : Core.Catalog.entry) ->
      List.iter
        (fun n ->
          List.iter
            (fun k ->
              List.iter
                (fun rule ->
                  let cfg =
                    { Engine.Model_check.rulebook = Engine.Rulebook.compile (e.Core.Catalog.build n);
                      max_crashes = k; limit = mc_limit; rule }
                  in
                  let a = Engine.Model_check.run cfg in
                  let b = Reference.Model_check_ref.run cfg in
                  let ok =
                    a.Engine.Model_check.explored = b.Engine.Model_check.explored
                    && a.Engine.Model_check.safe = b.Engine.Model_check.safe
                    && a.Engine.Model_check.nonblocking = b.Engine.Model_check.nonblocking
                    && (a.Engine.Model_check.counterexample <> None)
                       = (b.Engine.Model_check.counterexample <> None)
                  in
                  if not ok then begin
                    incr failures;
                    Fmt.epr "MISMATCH %s n=%d k=%d %s: interned %d/%b/%b vs reference %d/%b/%b@."
                      e.Core.Catalog.label n k
                      (match rule with `Skeen -> "skeen" | `Quorum q -> Fmt.str "quorum-%d" q)
                      a.Engine.Model_check.explored a.Engine.Model_check.safe
                      a.Engine.Model_check.nonblocking b.Engine.Model_check.explored
                      b.Engine.Model_check.safe b.Engine.Model_check.nonblocking
                  end)
                [ `Skeen; `Quorum ((n / 2) + 1) ])
            [ 0; 1 ])
        [ 2; 3 ])
    Core.Catalog.all;
  if !failures > 0 then begin
    Fmt.epr "bench-smoke: %d mismatches@." !failures;
    exit 1
  end;
  Fmt.pr "bench-smoke: interned engine agrees with reference on all catalog configs@."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ -> full ()
