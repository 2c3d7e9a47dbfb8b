(** Tests for the coverage-guided fault-space explorer:
    {!Sim.Coverage} accounting, mutation closure over the protocol's
    clause families, worker-count determinism of {!Engine.Explore.search},
    the corpus save/load round-trip, guided rediscovery of the pinned
    2PC coordinator wedge — and regression pins for the masked
    crash-recover-window wedges the explorer itself found in 3PC. *)

module E = Engine.Explore
module FP = Engine.Failure_plan
module C = Sim.Coverage

let plan : FP.t Alcotest.testable = Alcotest.testable FP.pp FP.equal

(* ---------------- Sim.Coverage ---------------- *)

let test_coverage_accounting () =
  let t = C.create () in
  Alcotest.(check int) "empty accumulator" 0 (C.count t);
  Alcotest.(check int) "first fingerprint is all-new" 3 (C.add t [ "a"; "b"; "c" ]);
  Alcotest.(check int) "duplicates within a fingerprint count once" 1 (C.add t [ "c"; "d"; "d" ]);
  Alcotest.(check int) "novel does not record" 1 (C.novel t [ "d"; "e" ]);
  Alcotest.(check int) "novel left the accumulator alone" 1 (C.novel t [ "d"; "e" ]);
  Alcotest.(check int) "count is distinct features" 4 (C.count t);
  Alcotest.(check bool) "mem sees a feature" true (C.mem t "b");
  Alcotest.(check bool) "mem rejects the unseen" false (C.mem t "e");
  Alcotest.(check (list string)) "features are sorted" [ "a"; "b"; "c"; "d" ] (C.features t)

let test_bucket () =
  Alcotest.(check string) "exact below 5" "3" (C.bucket 3);
  Alcotest.(check string) "boundary 4 stays exact" "4" (C.bucket 4);
  Alcotest.(check string) "5 coarsens" (C.bucket 7) (C.bucket 5);
  Alcotest.(check string) "log2 bucket" "le8" (C.bucket 5);
  Alcotest.(check string) "le16" (C.bucket 16) (C.bucket 9)

(* upper bound of the bucket a count landed in: "3" -> 3, "le16" -> 16 *)
let bucket_ceiling s =
  match int_of_string_opt s with
  | Some n -> n
  | None ->
      Scanf.sscanf s "le%d" Fun.id

let prop_bucket_total_and_monotone =
  Helpers.qtest "bucket is total, contains its input, and is monotone"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (a, b) ->
      let a, b = (min a b, max a b) in
      a <= bucket_ceiling (C.bucket a)
      && bucket_ceiling (C.bucket a) <= bucket_ceiling (C.bucket b))

(* ---------------- mutation closure ---------------- *)

(* the family gate the CLI relies on: however many mutation steps run,
   a plan that started inside a protocol's families never grows a clause
   that protocol rejects *)
let prop_mutate_stays_in_families =
  Helpers.qtest ~count:100 "mutants never leave the protocol's clause families"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 12))
    (fun (seed, steps) ->
      List.for_all
        (fun protocol ->
          let families = Engine.Harness.protocol_families ~protocol in
          let rng = Sim.Rng.create ~seed in
          let p = ref FP.none in
          for _ = 1 to steps do
            p := E.mutate rng ~n_sites:3 ~horizon:300.0 ~families !p
          done;
          FP.unsupported_clauses ~protocol !p = [])
        [ "central-2pc"; "central-3pc"; "paxos-commit" ])

let test_engine_3pc_harness_adds_termination_crashes () =
  (* the engine harness names its protocol by the compiled name
     ("central-3pc-3"); guided search must still add the clauses only
     3PC runs *)
  let families =
    (Engine.Chaos.harness (Engine.Rulebook.compile (Core.Catalog.central_3pc 3))).Engine.Harness.families
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (Fmt.str "%a" Engine.Harness.pp_family f) true (List.mem f families))
    [ Engine.Harness.Move_crashes; Decide_crashes ]

let prop_splice_draws_from_parents =
  (* crossover never invents a fault: every clause of the child appears
     in one of the parents (checked on the families text renders through) *)
  Helpers.qtest ~count:100 "splice only recombines parent faults"
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 10_000) (int_range 0 10_000))
    (fun (s1, s2, s3) ->
      let grow seed =
        let rng = Sim.Rng.create ~seed in
        let families = Engine.Harness.protocol_families ~protocol:"central-3pc" in
        let p = ref FP.none in
        for _ = 1 to 6 do
          p := E.mutate rng ~n_sites:3 ~horizon:300.0 ~families !p
        done;
        !p
      in
      let a = grow s1 and b = grow s2 in
      let child = E.splice (Sim.Rng.create ~seed:s3) a b in
      let clauses p =
        match FP.to_string p with
        | "" -> []
        | s -> List.map String.trim (String.split_on_char ';' s)
      in
      let pool = clauses a @ clauses b in
      List.for_all (fun c -> List.mem c pool) (clauses child))

(* ---------------- search determinism + rediscovery ---------------- *)

let engine_2pc () =
  Engine.Chaos.harness ~k:1 (Engine.Rulebook.compile (Core.Catalog.central_2pc 3))

let test_search_rediscovers_wedge_and_is_worker_invariant () =
  (* one guided search at the smoke budget must rediscover the pinned
     2PC coordinator step-crash wedge shrunk to a single fault, and the
     result must be byte-identical whatever the worker count *)
  let budget = 96 in
  let r1 = E.search ~workers:1 (engine_2pc ()) ~mode:`Guided ~budget () in
  let r2 = E.search ~workers:2 (engine_2pc ()) ~mode:`Guided ~budget () in
  Alcotest.(check int) "coverage is worker-invariant" r1.E.coverage r2.E.coverage;
  Alcotest.(check (list string)) "features are worker-invariant" r1.E.features r2.E.features;
  Alcotest.(check (list plan))
    "corpus is worker-invariant"
    (List.map fst r1.E.corpus)
    (List.map fst r2.E.corpus);
  Alcotest.(check (list plan))
    "shrunk bugs are worker-invariant"
    (List.map (fun b -> b.E.bug_shrunk) r1.E.bugs)
    (List.map (fun b -> b.E.bug_shrunk) r2.E.bugs);
  let wedge =
    List.find_opt
      (fun b -> b.E.bug_oracle = "progress" && FP.fault_count b.E.bug_shrunk <= 1)
      r1.E.bugs
  in
  Alcotest.(check bool) "progress wedge rediscovered, shrunk to <= 1 fault" true (wedge <> None)

let test_corpus_save_load_round_trip () =
  let r = E.search (engine_2pc ()) ~mode:`Guided ~budget:32 () in
  (* tests run in dune's per-test sandbox, so a fixed name cannot collide *)
  let dir = "explore-corpus-test" in
  E.save_corpus ~dir r;
  let loaded = E.load_corpus ~dir in
  let corpus_plans = List.map fst r.E.corpus in
  let bug_plans = List.map (fun b -> b.E.bug_shrunk) r.E.bugs in
  Alcotest.(check int)
    "one file per corpus entry plus one per shrunk bug"
    (List.length corpus_plans + List.length bug_plans)
    (List.length loaded);
  (* every persisted plan parses back to a plan the search produced *)
  List.iter
    (fun (file, p) ->
      Alcotest.(check bool)
        (Fmt.str "%s matches a search plan" file)
        true
        (List.exists (FP.equal p) (corpus_plans @ bug_plans)))
    loaded;
  Alcotest.(check (list string))
    "load_corpus on a missing dir is empty" []
    (List.map fst (E.load_corpus ~dir:"no-such-corpus-dir"));
  (* replay of the persisted corpus must reproduce at least one violation
     iff the search saw one *)
  if r.E.violating_runs > 0 then begin
    let reports = Engine.Harness.replay_all (engine_2pc ()) (List.map snd loaded) in
    Alcotest.(check bool) "replay reproduces a violation" true
      (List.exists (fun (_, violations) -> violations <> []) reports)
  end

(* ---------------- pinned wedge regressions ---------------- *)

(* The explorer's first catch: a crash-recover window shorter than the
   world's detection delay produces NO failure report, so (a) an
   undecided waiter used to ignore the recoveree's outcome queries and
   (b) a recoveree that resolved locally never re-announced — either
   way the never-crashed sites waited forever.  Fixed in Runtime by
   treating a peer's outcome query as failure evidence and re-announcing
   on recovery; pinned here on the exact shrunk plans. *)
let test_masked_recovery_window_terminates () =
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  List.iter
    (fun text ->
      let plan = FP.of_string_exn text in
      let r = Engine.Runtime.run (Engine.Runtime.config ~plan rb) in
      Alcotest.(check bool)
        (Fmt.str "%S: all operational sites decide" text)
        true r.Engine.Runtime.all_operational_decided;
      Alcotest.(check bool) (Fmt.str "%S: consistent" text) true r.Engine.Runtime.consistent;
      Alcotest.(check int)
        (Fmt.str "%S: no blocked operational site" text)
        0 r.Engine.Runtime.blocked_operational)
    [
      "step-crash site=3 step=1 mode=before; recover site=3 at=4";
      "step-crash site=1 step=1 mode=before; recover site=1 at=3";
      "step-crash site=1 step=1 mode=before; recover site=1 at=4";
      "crash site=2 at=1; recover site=2 at=2";
    ]

let test_storm_plan_terminates () =
  (* a short storm is repeated masked windows back-to-back — the same
     fix must hold wave after wave *)
  let rb = Engine.Rulebook.compile (Core.Catalog.central_3pc 3) in
  let plan = FP.of_string_exn "storm site=3 first=2 waves=3 period=60 down=1.5" in
  let r = Engine.Runtime.run (Engine.Runtime.config ~plan ~until:1500.0 rb) in
  Alcotest.(check bool) "storm run consistent" true r.Engine.Runtime.consistent;
  Alcotest.(check int) "no blocked operational site" 0 r.Engine.Runtime.blocked_operational

let suite =
  [
    Alcotest.test_case "coverage accounting" `Quick test_coverage_accounting;
    Alcotest.test_case "bucket pins" `Quick test_bucket;
    prop_bucket_total_and_monotone;
    prop_mutate_stays_in_families;
    prop_splice_draws_from_parents;
    Alcotest.test_case "engine 3PC harness adds move/decide crashes" `Quick
      test_engine_3pc_harness_adds_termination_crashes;
    Alcotest.test_case "guided search: worker-invariant, rediscovers the 2PC wedge" `Slow
      test_search_rediscovers_wedge_and_is_worker_invariant;
    Alcotest.test_case "corpus save/load round trip" `Quick test_corpus_save_load_round_trip;
    Alcotest.test_case "masked crash-recover window terminates (pinned wedges)" `Quick
      test_masked_recovery_window_terminates;
    Alcotest.test_case "crash-recover storm terminates" `Quick test_storm_plan_terminates;
  ]
