(** Integration tests for {!Kv.Db}: end-to-end transactions over the
    partitioned store under 2PC and 3PC, with crash/recovery — the paper's
    blocking-vs-nonblocking story on a live database. *)

let bank_cfg ?(protocol = Kv.Node.Three_phase) ?(seed = 11) ?(crashes = []) ?(recoveries = []) () =
  Kv.Db.config ~n_sites:4 ~protocol ~seed ~crashes ~recoveries
    ~initial_data:(Kv.Workload.bank_initial ~accounts:24 ~initial_balance:100) ()

let bank_wl ?(n_txns = 80) ~seed () =
  let rng = Sim.Rng.create ~seed in
  Kv.Workload.bank rng ~n_txns ~accounts:24 ~arrival_rate:0.7

let expected_total = Kv.Workload.bank_total ~accounts:24 ~initial_balance:100

let test_bank_no_failures_3pc () =
  let r = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "all committed" 80 r.Kv.Db.committed;
  Alcotest.(check int) "none pending" 0 r.Kv.Db.pending;
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals

let test_bank_no_failures_2pc () =
  let r = Kv.Db.run (bank_cfg ~protocol:Kv.Node.Two_phase ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "all committed" 80 r.Kv.Db.committed;
  Alcotest.(check int) "bank invariant" expected_total r.Kv.Db.storage_totals

let test_3pc_cheaper_in_messages_under_2pc () =
  (* the price of nonblocking: 3PC sends ~1.5x the messages of 2PC *)
  let r2 = Kv.Db.run (bank_cfg ~protocol:Kv.Node.Two_phase ()) (bank_wl ~seed:11 ()) in
  let r3 = Kv.Db.run (bank_cfg ~protocol:Kv.Node.Three_phase ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check bool) "3pc sends more messages" true
    (r3.Kv.Db.messages_sent > r2.Kv.Db.messages_sent);
  let ratio = float_of_int r3.Kv.Db.messages_sent /. float_of_int r2.Kv.Db.messages_sent in
  Alcotest.(check bool) (Fmt.str "ratio %.2f in [1.2, 1.8]" ratio) true (ratio > 1.2 && ratio < 1.8)

let test_crash_preserves_invariant_with_recovery () =
  (* crash two sites mid-run, recover them before the end: invariant and
     atomicity must hold for both protocols *)
  List.iter
    (fun protocol ->
      let r =
        Kv.Db.run
          (bank_cfg ~protocol ~crashes:[ (2, 30.0); (3, 55.0) ] ~recoveries:[ (2, 90.0); (3, 120.0) ] ())
          (bank_wl ~seed:13 ())
      in
      Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
      Alcotest.(check int)
        (Fmt.str "%s invariant after recovery" (Kv.Node.show_protocol protocol))
        expected_total r.Kv.Db.storage_totals)
    [ Kv.Node.Two_phase; Kv.Node.Three_phase ]

let test_atomicity_under_repeated_crashes () =
  (* a harsher schedule: every site except 1 bounces once *)
  List.iter
    (fun seed ->
      let r =
        Kv.Db.run
          (bank_cfg ~seed
             ~crashes:[ (2, 25.0); (3, 50.0); (4, 75.0) ]
             ~recoveries:[ (2, 60.0); (3, 100.0); (4, 130.0) ]
             ())
          (bank_wl ~seed ())
      in
      Alcotest.(check bool) (Fmt.str "atomicity seed %d" seed) true r.Kv.Db.atomicity_ok;
      Alcotest.(check int) (Fmt.str "invariant seed %d" seed) expected_total r.Kv.Db.storage_totals)
    [ 3; 17; 42 ]

let test_2pc_blocking_vs_3pc_on_vote_window_crash () =
  (* single cross-site transfer, coordinator crashes in the vote window:
     2PC leaves the transaction pending (blocked), 3PC resolves it *)
  let n_sites = 3 in
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  let wl = [ (1.0, { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] }) ] in
  let run protocol =
    Kv.Db.run
      (Kv.Db.config ~n_sites ~protocol ~seed:3 ~crashes:[ (2, 3.05) ]
         ~initial_data:[ (k1, 100); (k2, 100) ] ())
      wl
  in
  let r2 = run Kv.Node.Two_phase and r3 = run Kv.Node.Three_phase in
  Alcotest.(check int) "2pc: blocked pending" 1 r2.Kv.Db.pending;
  Alcotest.(check int) "3pc: resolved" 0 r3.Kv.Db.pending;
  Alcotest.(check bool) "2pc consistent anyway" true r2.Kv.Db.atomicity_ok;
  Alcotest.(check bool) "3pc consistent" true r3.Kv.Db.atomicity_ok

let test_2pc_blocked_txn_resolves_on_recovery () =
  let n_sites = 3 in
  let k1 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 2) (List.init 100 Kv.Workload.key_name) in
  let k2 = List.find (fun k -> Kv.Txn.owner ~n_sites k = 3) (List.init 100 Kv.Workload.key_name) in
  let wl = [ (1.0, { Kv.Txn.id = 1; ops = [ Kv.Txn.Add (k1, -5); Kv.Txn.Add (k2, 5) ] }) ] in
  let r =
    Kv.Db.run
      (Kv.Db.config ~n_sites ~protocol:Kv.Node.Two_phase ~seed:3 ~crashes:[ (2, 3.05) ]
         ~recoveries:[ (2, 40.0) ] ~initial_data:[ (k1, 100); (k2, 100) ] ())
      wl
  in
  Alcotest.(check int) "resolved after recovery" 0 r.Kv.Db.pending;
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok;
  Alcotest.(check int) "invariant" 200 r.Kv.Db.storage_totals

let test_deadlocks_cause_unilateral_aborts () =
  (* a maximally contended workload on few keys must produce deadlock or
     timeout aborts — the unilateral no votes the paper motivates *)
  let rng = Sim.Rng.create ~seed:23 in
  let spec =
    {
      Kv.Workload.default_spec with
      Kv.Workload.n_txns = 120;
      keys = 6;
      ops_per_txn = 3;
      write_ratio = 1.0;
      arrival_rate = 3.0;
    }
  in
  let wl = Kv.Workload.mixed rng spec in
  let r = Kv.Db.run (Kv.Db.config ~n_sites:3 ~protocol:Kv.Node.Three_phase ~seed:23 ()) wl in
  Alcotest.(check bool) "some aborts happened" true (r.Kv.Db.aborted > 0);
  Alcotest.(check bool) "deadlock aborts happened" true (r.Kv.Db.deadlock_aborts > 0);
  Alcotest.(check bool) "some transactions still commit" true (r.Kv.Db.committed > 0);
  Alcotest.(check int) "every transaction accounted for" 120
    (r.Kv.Db.committed + r.Kv.Db.aborted + r.Kv.Db.pending);
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok

let test_determinism () =
  let a = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  let b = Kv.Db.run (bank_cfg ()) (bank_wl ~seed:11 ()) in
  Alcotest.(check int) "same committed" a.Kv.Db.committed b.Kv.Db.committed;
  Alcotest.(check int) "same messages" a.Kv.Db.messages_sent b.Kv.Db.messages_sent;
  Alcotest.(check bool) "same fates" true (a.Kv.Db.fates = b.Kv.Db.fates)

let test_refuse_when_participant_down () =
  (* transactions touching a known-down site are refused outright *)
  let r =
    Kv.Db.run
      (bank_cfg ~protocol:Kv.Node.Three_phase ~crashes:[ (2, 5.0) ] ())
      (bank_wl ~seed:29 ~n_txns:60 ())
  in
  Alcotest.(check bool) "some refused" true
    (List.mem_assoc "refused_participant_down" r.Kv.Db.metrics);
  Alcotest.(check bool) "atomicity" true r.Kv.Db.atomicity_ok

(* One long fault-free run in the benchmark's kv-load configuration
   (2,000 of its transactions, seed 1).  The digest covers everything a
   CPU-only change to [Db.run] must leave byte-identical: the outcome
   counts, messages, WAL forces, every fate and the deterministic metrics.
   The pinned values were computed with the list-scan checks that
   test/db_reference.ml keeps. *)
let test_long_run_digest () =
  let arrivals =
    Kv.Workload.mixed (Sim.Rng.create ~seed:1)
      {
        Kv.Workload.n_txns = 2000;
        arrival_rate = 3.0;
        keys = 512;
        ops_per_txn = 3;
        write_ratio = 0.5;
        zipf_skew = 0.0;
      }
  in
  let cfg =
    Kv.Db.config ~n_sites:4 ~protocol:Kv.Node.Three_phase ~seed:1 ~durable_wal:true
      ~lock_wait_timeout:60.0 ~sync_latency:0.4
      ~group_commit:{ Kv.Kv_wal.max_batch = 8; max_wait = 0.05 }
      ~pipeline_depth:8 ()
  in
  let r = Kv.Db.run cfg arrivals in
  let counts =
    Fmt.str "c=%d a=%d p=%d msgs=%d forces=%d" r.Kv.Db.committed r.Kv.Db.aborted r.Kv.Db.pending
      r.Kv.Db.messages_sent r.Kv.Db.wal_forces
  in
  Alcotest.(check string) "counts" "c=2000 a=0 p=0 msgs=27936 forces=21968" counts;
  let fates =
    String.concat ";"
      (List.map (fun (t, f) -> Fmt.str "%d:%a" t Kv.Db.pp_txn_fate f) r.Kv.Db.fates)
  in
  let digest =
    Fmt.str "%s fates=%s metrics=%s" counts fates
      (Sim.Json.to_string (Sim.Metrics.to_json ~drop_wall:true r.Kv.Db.run_metrics))
    |> Digest.string |> Digest.to_hex
  in
  Alcotest.(check string) "digest" "0db0f6f72a05b94a6d70ef527e4409dc" digest

(* ---------------- post-run checks against the list-scan reference ---------------- *)

let checks_of (r : Kv.Db.result) =
  {
    Db_reference.fates = r.Kv.Db.fates;
    outcome_contradiction = r.Kv.Db.outcome_contradiction;
    missing_applied = r.Kv.Db.missing_applied;
    in_doubt = r.Kv.Db.in_doubt;
    durability_breaches = r.Kv.Db.durability_breaches;
  }

(* [Db.run]'s checks and the reference's, over the same end state. *)
let with_reference cfg workload =
  let final = ref None in
  let r = Kv.Db.run ~inspect:(fun f -> final := Some f) cfg workload in
  (checks_of r, Db_reference.checks (Option.get !final))

(* Chaos-style runs on both protocols: bank transfers under random crash
   schedules with torn, corrupt and lying syncs, some sites never
   recovering (in-doubt txns, committed writes missing at an operational
   participant); pinned lying syncs each followed by a crash before the
   next sync (unjustified votes; the last two also announce an outcome
   the log resolves the other way, and so contradict another site's
   log); and read/write transactions with the read-only optimization, so
   that read-only participants, which apply nothing, are judged too. *)
let test_checks_match_reference () =
  let module KC = Kv.Chaos_db in
  let module N = Sim.Nemesis in
  let profile = { KC.default_profile with N.p_disk_fault = 0.7; lost_flush_weight = 4 } in
  let random seed =
    let root = Sim.Rng.create ~seed in
    ignore (Sim.Rng.split root);
    N.generate (Sim.Rng.split root) ~n_sites:4 ~k:2 profile
  in
  let lying_sync ~site ~nth ~crash_at =
    [
      N.Disk_fault { site; fault = Sim.Disk.Lost_flush; nth };
      N.Crash { site; at = crash_at };
      N.Recover { site; at = 40.0 };
    ]
  in
  let bank seed = KC.workload_of ~seed in
  let read_write seed =
    Kv.Workload.mixed (Sim.Rng.create ~seed)
      { Kv.Workload.default_spec with Kv.Workload.n_txns = 30; keys = 16; write_ratio = 0.4 }
  in
  let cases =
    List.init 60 (fun seed -> (seed, random seed, bank, false))
    @ List.concat_map
        (fun site ->
          List.init 4 (fun nth ->
              (7, lying_sync ~site ~nth ~crash_at:(3.0 +. float_of_int nth), bank, false)))
        [ 1; 2; 3; 4 ]
    @ [
        (7, lying_sync ~site:3 ~nth:4 ~crash_at:6.0, bank, false);
        (7, lying_sync ~site:3 ~nth:5 ~crash_at:6.0, bank, false);
      ]
    @ List.init 10 (fun seed -> (seed, random seed, read_write, true))
  in
  let seen = Hashtbl.create 8 in
  let saw what nonempty = if nonempty then Hashtbl.replace seen what () in
  List.iter
    (fun protocol ->
      List.iter
        (fun (seed, schedule, workload, read_only_opt) ->
          let crashes, recoveries, partitions, msg_faults, disk_faults, _, _ = KC.lower schedule in
          let cfg =
            Kv.Db.config ~n_sites:4 ~protocol ~read_only_opt ~seed ~until:3000.0 ~crashes
              ~recoveries ~partitions ~msg_faults ~disk_faults
              ~initial_data:(Kv.Workload.bank_initial ~accounts:8 ~initial_balance:100)
              ()
          in
          let got, want = with_reference cfg (workload seed) in
          let name =
            Fmt.str "%s seed %d read-only-opt %b [%s]" (Kv.Node.show_protocol protocol) seed
              read_only_opt (N.to_string schedule)
          in
          Alcotest.(check bool) (name ^ ": fates") true (got.fates = want.fates);
          Alcotest.(check bool)
            (name ^ ": outcome contradiction")
            want.outcome_contradiction got.outcome_contradiction;
          Alcotest.(check bool) (name ^ ": missing applied") true
            (got.missing_applied = want.missing_applied);
          Alcotest.(check bool) (name ^ ": in doubt") true (got.in_doubt = want.in_doubt);
          Alcotest.(check bool)
            (name ^ ": durability breaches")
            true
            (got.durability_breaches = want.durability_breaches);
          saw "missing applied" (want.missing_applied <> []);
          saw "in doubt" (want.in_doubt <> []);
          saw "outcome contradiction" want.outcome_contradiction;
          List.iter
            (fun (_, _, what) ->
              saw
                (if String.starts_with ~prefix:"yes vote" what then "unjustified vote"
                 else "contradicted announcement")
                true)
            want.durability_breaches)
        cases)
    [ Kv.Node.Two_phase; Kv.Node.Three_phase ];
  List.iter
    (fun what -> Alcotest.(check bool) (what ^ " seen") true (Hashtbl.mem seen what))
    [
      "missing applied";
      "in doubt";
      "outcome contradiction";
      "unjustified vote";
      "contradicted announcement";
    ]

let suite =
  [
    Alcotest.test_case "bank, 3PC, no failures" `Quick test_bank_no_failures_3pc;
    Alcotest.test_case "bank, 2PC, no failures" `Quick test_bank_no_failures_2pc;
    Alcotest.test_case "3PC message overhead" `Quick test_3pc_cheaper_in_messages_under_2pc;
    Alcotest.test_case "crash + recovery preserves invariant" `Slow
      test_crash_preserves_invariant_with_recovery;
    Alcotest.test_case "repeated crashes, atomicity holds" `Slow test_atomicity_under_repeated_crashes;
    Alcotest.test_case "2PC blocks, 3PC terminates (vote-window crash)" `Quick
      test_2pc_blocking_vs_3pc_on_vote_window_crash;
    Alcotest.test_case "2PC blocked txn resolves on recovery" `Quick
      test_2pc_blocked_txn_resolves_on_recovery;
    Alcotest.test_case "deadlocks produce unilateral aborts" `Quick
      test_deadlocks_cause_unilateral_aborts;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "down participants refused" `Quick test_refuse_when_participant_down;
    Alcotest.test_case "long kv-load run: pinned digest" `Quick test_long_run_digest;
    Alcotest.test_case "post-run checks = list-scan reference" `Quick test_checks_match_reference;
  ]
