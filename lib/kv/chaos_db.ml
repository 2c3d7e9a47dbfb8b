(** Chaos driver for the database harness: the same nemesis schedules the
    protocol-level harness uses ({!Sim.Nemesis}), lowered onto a {!Db} run
    of the bank-transfer workload, judged by end-to-end oracles.

    The step- and backup-pinned crash kinds are protocol-engine notions
    with no meaning on a multi-transaction database, so the default
    profile generates timed crashes only; message-level faults (duplicate
    / extra delay, drops opt-in) apply unchanged.

    Every run is a pure function of [(protocol, n_sites, k, seed)]: the
    seed derives both the workload and the schedule through split
    {!Sim.Rng} streams.  {!harness} packs a run into the
    {!Engine.Harness.t} record whose sweep shrinks a violating plan to a
    minimal counterexample, printed as {!Engine.Failure_plan.to_string}
    ready for [skeen chaos --kv --plan] or a regression test. *)

type oracle = Atomicity | Conservation | Progress | Durability | Split_brain
[@@deriving show { with_path = false }, eq]

let oracle_name = function
  | Atomicity -> "atomicity"
  | Conservation -> "conservation"
  | Progress -> "progress"
  | Durability -> "durability"
  | Split_brain -> "split-brain"

type violation = { oracle : oracle; detail : string }

let pp_violation ppf v = Fmt.pf ppf "%s violation: %s" (oracle_name v.oracle) v.detail

(* Timed faults only: the engine interprets step-pinned crashes, the
   database cannot.  A longer horizon and send window than the protocol
   profile, because a database run spans many transactions. *)
let default_profile =
  {
    Sim.Nemesis.default_profile with
    Sim.Nemesis.p_step_crash = 0.0;
    p_backup_crash = 0.0;
    horizon = 40.0;
    recover_delay_min = 10.0;
    recover_delay_max = 80.0;
    max_msg_faults = 4;
    send_window = 150;
    delay_max = 10.0;
  }

(* Aim faults at the replicated-coordinator state: the database puts the
   2f+1 acceptors on the lowest-numbered sites. *)
let paxos_profile ~f =
  {
    default_profile with
    Sim.Nemesis.p_acceptor_crash = 0.5;
    acceptor_sites = List.init ((2 * f) + 1) (fun i -> i + 1);
    max_acceptor_crashes = f;
    p_lease_fault = 0.3;
  }

let accounts = 8
let initial_balance = 100
let n_txns = 10

let workload_of ~seed =
  let rng = Sim.Rng.split (Sim.Rng.create ~seed) in
  Workload.bank rng ~n_txns ~accounts ~arrival_rate:0.4

(* Lower a nemesis schedule onto the Db config's fault surface.  Step- and
   backup-pinned crashes (absent under the default profile) are ignored.
   Detector faults (latency spikes, stalls, heartbeat loss) ride through
   via {!Engine.Failure_plan}-style windows in the Db config. *)
let lower (schedule : Sim.Nemesis.schedule) =
  List.fold_left
    (fun (crashes, recoveries, partitions, msg_faults, disk_faults, windows, leases) fault ->
      match fault with
      | Sim.Nemesis.Crash { site; at } | Sim.Nemesis.Acceptor_crash { site; at } ->
          ((site, at) :: crashes, recoveries, partitions, msg_faults, disk_faults, windows, leases)
      | Sim.Nemesis.Recover { site; at } ->
          (crashes, (site, at) :: recoveries, partitions, msg_faults, disk_faults, windows, leases)
      | Sim.Nemesis.Partition { from_t; until_t; groups } ->
          ( crashes,
            recoveries,
            (from_t, until_t, groups) :: partitions,
            msg_faults,
            disk_faults,
            windows,
            leases )
      | Sim.Nemesis.Msg { nth; fault } ->
          (crashes, recoveries, partitions, (nth, fault) :: msg_faults, disk_faults, windows, leases)
      | Sim.Nemesis.Disk_fault { site; fault; nth } ->
          ( crashes,
            recoveries,
            partitions,
            msg_faults,
            (site, { Sim.Disk.fault; nth }) :: disk_faults,
            windows,
            leases )
      | (Sim.Nemesis.Delay_window _ | Sim.Nemesis.Stall _ | Sim.Nemesis.Hb_loss _) as w ->
          (crashes, recoveries, partitions, msg_faults, disk_faults, w :: windows, leases)
      | Sim.Nemesis.Lease_fault { at } ->
          (crashes, recoveries, partitions, msg_faults, disk_faults, windows, at :: leases)
      | Sim.Nemesis.Storm _ as s ->
          (* one discrete fault, many crash/recover pairs: expand through
             the shared event list so every lowering layer agrees *)
          let crashes, recoveries =
            List.fold_left
              (fun (cs, rs) (site, c, r) -> ((site, c) :: cs, (site, r) :: rs))
              (crashes, recoveries) (Sim.Nemesis.storm_events s)
          in
          (crashes, recoveries, partitions, msg_faults, disk_faults, windows, leases)
      | Sim.Nemesis.Step_crash _ | Sim.Nemesis.Backup_crash _ ->
          (crashes, recoveries, partitions, msg_faults, disk_faults, windows, leases))
    ([], [], [], [], [], [], []) schedule
  |> fun (c, r, p, m, d, w, l) ->
  (List.rev c, List.rev r, List.rev p, List.rev m, List.rev d, List.rev w, List.rev l)

let crash_sites schedule =
  List.filter_map
    (function
      | Sim.Nemesis.Crash { site; _ }
      | Sim.Nemesis.Acceptor_crash { site; _ }
      | Sim.Nemesis.Storm { site; _ } ->
          Some site
      | _ -> None)
    schedule

let storm_pairs schedule = List.concat_map Sim.Nemesis.storm_events schedule

let violations ~(protocol : Node.protocol) ~schedule (r : Db.result) =
  let crashed = crash_sites schedule in
  (* A site is down at the end iff its last crash postdates its last
     recovery — membership tests alone would count a crash/recover/crash
     site as "back" and mis-arm the conservation oracle. *)
  let down_at_end =
    let last events site =
      List.fold_left (fun a (s, at) -> if s = site then Float.max a at else a) neg_infinity events
    in
    let crash_times =
      List.filter_map
        (function
          | Sim.Nemesis.Crash { site; at } | Sim.Nemesis.Acceptor_crash { site; at } ->
              Some (site, at)
          | _ -> None)
        schedule
      @ List.map (fun (s, c, _) -> (s, c)) (storm_pairs schedule)
    and recover_times =
      List.filter_map
        (function Sim.Nemesis.Recover { site; at } -> Some (site, at) | _ -> None)
        schedule
      @ List.map (fun (s, _, r) -> (s, r)) (storm_pairs schedule)
    in
    List.filter
      (fun s -> last crash_times s > last recover_times s)
      (List.sort_uniq compare crashed)
  in
  (* Paxos Commit promises liveness only up to f acceptor failures: a
     schedule that leaves a majority of the 2f+1 acceptors down at the end
     is beyond the fault model, and blocking there is legitimate (safety
     oracles still apply in full). *)
  let beyond_paxos_f =
    match protocol with
    | Node.Two_phase | Node.Three_phase -> false
    | Node.Paxos f ->
        let acceptors = List.init ((2 * f) + 1) (fun i -> i + 1) in
        List.length (List.filter (fun s -> List.mem s down_at_end) acceptors) > f
  in
  (* A transaction whose whole participant set crashed at some point is a
     total failure: the paper's termination and recovery protocols
     explicitly do not cover it, so a survivor legitimately stays in doubt
     (and its writes legitimately stay unapplied). *)
  let total_failure participants =
    participants <> [] && List.for_all (fun p -> List.mem p crashed) participants
  in
  let atomicity =
    let missing =
      List.filter (fun (_, _, participants) -> not (total_failure participants)) r.Db.missing_applied
    in
    if r.Db.outcome_contradiction then
      [ { oracle = Atomicity; detail = "a transaction has both commit and abort records" } ]
    else
      match missing with
      | [] -> []
      | (txn, site, _) :: _ ->
          [
            {
              oracle = Atomicity;
              detail =
                Fmt.str "%d committed write set(s) unapplied, e.g. txn %d at site %d"
                  (List.length missing) txn site;
            };
          ]
  in
  (* Nonblocking progress: no operational site may end the run holding
     locks in doubt — unless its transaction's participant set totally
     failed. *)
  let blocked =
    if beyond_paxos_f then []
    else List.filter (fun (_, _, participants) -> not (total_failure participants)) r.Db.in_doubt
  in
  let progress =
    match blocked with
    | [] -> []
    | (site, txn, _) :: _ ->
        [
          {
            oracle = Progress;
            detail =
              Fmt.str "%d in-doubt participant(s) at quiescence, e.g. txn %d at site %d"
                (List.length blocked) txn site;
          };
        ]
  in
  (* Conservation of the bank total: meaningful only once every site is
     back up and no buffered writes are parked in doubt. *)
  let conservation =
    if down_at_end <> [] || r.Db.in_doubt <> [] then []
    else
      let expected = Workload.bank_total ~accounts ~initial_balance in
      if r.Db.storage_totals = expected then []
      else
        [
          {
            oracle = Conservation;
            detail = Fmt.str "bank total %d, expected %d" r.Db.storage_totals expected;
          };
        ]
  in
  (* Durability: what left a site must be justified by its repaired
     stable log — regardless of crashes, recoveries or partitions. *)
  let durability =
    match r.Db.durability_breaches with
    | [] -> []
    | (site, txn, what) :: _ ->
        [
          {
            oracle = Durability;
            detail =
              Fmt.str "%d unjustified external action(s), e.g. txn %d at site %d: %s"
                (List.length r.Db.durability_breaches) txn site what;
          };
        ]
  in
  (* Split-brain: election epochs are globally unique per site by
     construction ([round * n_sites + (site - 1)]), so two distinct sites
     sharing a (txn, epoch) pair means two backups believed they owned
     the same election round — exactly what fencing is meant to exclude. *)
  let split_brain =
    let owner = Hashtbl.create 16 in
    let dup =
      List.find_opt
        (fun (txn, site, e) ->
          match Hashtbl.find_opt owner (txn, e) with
          | Some s -> s <> site
          | None ->
              Hashtbl.replace owner (txn, e) site;
              false)
        r.Db.directive_epochs
    in
    match dup with
    | None -> []
    | Some (txn, site, e) ->
        [
          {
            oracle = Split_brain;
            detail = Fmt.str "epoch %d of txn %d claimed by two sites, e.g. site %d" e txn site;
          };
        ]
  in
  atomicity @ progress @ conservation @ durability @ split_brain

(* The run's behavioural signature for the coverage-guided explorer:
   per-transaction fates, bucketed outcome/conflict/election counters
   and oracle near-miss flags, all read post hoc from the finished
   {!Db.result} — no new runtime counters, so pinned metrics stay
   byte-identical.  Deterministic in the run. *)
let fingerprint_of (r : Db.result) =
  let open Sim.Coverage in
  let fate_str = function
    | Db.Fate_committed -> "committed"
    | Db.Fate_aborted -> "aborted"
    | Db.Fate_pending -> "pending"
  in
  List.map (fun (txn, fate) -> feat (Printf.sprintf "fate%d" txn) (fate_str fate)) r.Db.fates
  @ [
      feat "committed" (bucket r.Db.committed);
      feat "aborted" (bucket r.Db.aborted);
      feat "pending" (bucket r.Db.pending);
      feat "deadlock-aborts" (bucket r.Db.deadlock_aborts);
      feat "in-doubt" (bucket (List.length r.Db.in_doubt));
      feat "missing-applied" (bucket (List.length r.Db.missing_applied));
      feat "contradiction" (string_of_bool r.Db.outcome_contradiction);
      feat "breaches" (bucket (List.length r.Db.durability_breaches));
      feat "epochs" (bucket (List.length r.Db.directive_epochs));
      feat "epoch-sites"
        (bucket
           (List.length
              (List.sort_uniq compare (List.map (fun (_, s, _) -> s) r.Db.directive_epochs))));
      feat "blocked-time" (bucket (int_of_float r.Db.blocked_time));
    ]
  @ List.map (fun (name, v) -> feat name (bucket v)) r.Db.metrics

let default_config = Db.config ~protocol:Node.Three_phase ~n_sites:4 ~until:3000.0 ()

(* One run of [config] on the seed's bank workload: the seed, the
   schedule's faults and the bank overwrite the config's. *)
let run_schedule ?(config = default_config) ?(protocol = config.Db.protocol)
    ?(n_sites = config.Db.n_sites) ~seed (schedule : Sim.Nemesis.schedule) =
  let crashes, recoveries, partitions, msg_faults, disk_faults, detector_faults, lease_faults =
    lower schedule
  in
  let cfg =
    {
      config with
      Db.protocol;
      n_sites;
      seed;
      crashes;
      recoveries;
      partitions;
      msg_faults;
      disk_faults;
      detector_faults;
      lease_faults;
      initial_data = Workload.bank_initial ~accounts ~initial_balance;
    }
  in
  let r = Db.run cfg (workload_of ~seed) in
  (r, violations ~protocol ~schedule r)

(* The seed's root rng splits twice: the workload stream first (consumed
   by [workload_of]), the schedule stream second. *)
let schedule_of_seed ?(profile = default_profile) ~n_sites ~k ~seed () =
  let root = Sim.Rng.create ~seed in
  ignore (Sim.Rng.split root);
  Sim.Nemesis.generate (Sim.Rng.split root) ~n_sites ~k profile

type run_outcome = {
  seed : int;
  schedule : Sim.Nemesis.schedule;
  result : Db.result;
  violations : violation list;
}

let run_one ?profile ?(config = default_config) ?(protocol = config.Db.protocol)
    ?(n_sites = config.Db.n_sites) ~k ~seed () =
  let schedule = schedule_of_seed ?profile ~n_sites ~k ~seed () in
  let result, violations = run_schedule ~config ~protocol ~n_sites ~seed schedule in
  { seed; schedule; result; violations }

(* Plans cross into the database through {!Engine.Failure_plan.to_schedule}. *)
let harness ?(config = default_config) ?profile ?(k = 1) () =
  let n_sites = config.Db.n_sites in
  let run ?metrics ?(tracing = config.Db.tracing) ~seed plan =
    let result, violations =
      run_schedule ~config:{ config with Db.tracing } ~seed (Engine.Failure_plan.to_schedule plan)
    in
    Option.iter (fun m -> Sim.Metrics.merge m result.Db.run_metrics) metrics;
    (result, List.map (fun v -> (v.oracle, v.detail)) violations)
  in
  let name, families =
    let open Engine.Harness in
    let base = [ Timed_crashes; Recoveries; Msg_faults; Delay_spikes; Stalls; Hb_losses; Storms ] in
    match config.Db.protocol with
    | Node.Two_phase -> ("kv-2pc", base)
    | Node.Three_phase -> ("kv-3pc", base)
    | Node.Paxos f -> (Printf.sprintf "kv-paxos-f%d" f, base @ [ Acceptor_crashes; Lease_faults ])
  in
  {
    Engine.Harness.name;
    n_sites;
    horizon = (Option.value profile ~default:default_profile).Sim.Nemesis.horizon;
    families;
    plan_of_seed =
      (fun ~seed ->
        Engine.Failure_plan.of_schedule (schedule_of_seed ?profile ~n_sites ~k ~seed ()));
    run;
    fingerprint = fingerprint_of;
    oracle_name;
    pp_result = Db.pp_result;
    trace = (fun r -> r.Db.trace);
  }

type 'o summary = 'o Engine.Harness.summary = {
  seeds_run : int;
  failing : 'o Engine.Harness.failing list;
  violations_by_oracle : ('o * int) list;
  metrics : Sim.Metrics.t;
}

let sweep ?profile ?(config = default_config) ?(protocol = config.Db.protocol)
    ?(n_sites = config.Db.n_sites) ?seed_base ?workers ~k ~seeds () =
  Engine.Harness.sweep ?seed_base ?workers
    (harness ~config:{ config with Db.protocol; n_sites } ?profile ~k ())
    ~seeds
