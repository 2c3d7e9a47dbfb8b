(** The distributed database: n sites, hash-partitioned keys, concurrent
    transactions committed with either 2PC or the paper's nonblocking 3PC.
    This is the end-to-end harness for experiment E12: what does the extra
    phase cost, and what does blocking cost, on a live workload with
    failures. *)

type config = {
  n_sites : int;
  protocol : Node.protocol;
  presumption : Node.presumption;
  termination : Node.termination;
  read_only_opt : bool;
  seed : int;
  lock_wait_timeout : float;
  query_interval : float;
  query_backoff_cap : float;
  query_budget : int;
  tracing : bool;
  until : float;
  crashes : (Core.Types.site * float) list;
  recoveries : (Core.Types.site * float) list;
  partitions : (float * float * Core.Types.site list list) list;
  msg_faults : (int * Sim.World.msg_fault) list;
  durable_wal : bool;  (** log through simulated disks (sync semantics, crash loses the tail) *)
  group_commit : Kv_wal.group_commit option;
      (** coalesce concurrent WAL forces on one site into shared syncs *)
  sync_latency : float;
      (** simulated seconds per WAL sync (0.0: syncs are instantaneous
          and every force completes synchronously, as before) *)
  pipeline_depth : int;
      (** coordinator pipelining bound: client transactions admitted
          while fewer than this many WAL forces are in flight at the
          coordinator; vacuous at 0.0 sync latency *)
  disk_faults : (Core.Types.site * Sim.Disk.injection) list;
  initial_data : (string * int) list;
  detector : bool;
      (** [true]: replace the oracle failure reports with the timeout-based
          {!Sim.Detector}; termination directives are fenced by election
          epochs instead of sender identity.  [false] (the default) keeps
          the oracle; every pre-detector run replays unchanged. *)
  fencing : bool;  (** [false]: the split-brain ablation — accept any epoch *)
  heartbeat_period : float;
  suspicion_timeout : float;
  detector_faults : Sim.Nemesis.fault list;
      (** detector-provoking windows (latency spikes, stalls, heartbeat
          loss); other fault constructors in the list are ignored here *)
  lease_faults : float list;
      (** Paxos-Commit leader-lease expiries: at each time every node is
          told its coordinator leases lapsed, so standby acceptors open
          higher-ballot recovery rounds for in-flight transactions.
          Ignored (no messages injected) under 2PC/3PC. *)
}

let config ?(n_sites = 4) ?(protocol = Node.Three_phase) ?(presumption = Node.No_presumption)
    ?(termination = Node.T_skeen) ?(read_only_opt = false) ?(seed = 1) ?(lock_wait_timeout = 25.0)
    ?(query_interval = 10.0) ?(query_backoff_cap = 60.0) ?(query_budget = 200) ?(tracing = false)
    ?(until = 100_000.0) ?(crashes = []) ?(recoveries = []) ?(partitions = []) ?(msg_faults = [])
    ?(durable_wal = true) ?group_commit ?(sync_latency = 0.0) ?(pipeline_depth = 1)
    ?(disk_faults = []) ?(initial_data = []) ?(detector = false) ?(fencing = true)
    ?(heartbeat_period = 1.0) ?(suspicion_timeout = 5.0) ?(detector_faults = [])
    ?(lease_faults = []) () =
  {
    n_sites;
    protocol;
    presumption;
    termination;
    read_only_opt;
    seed;
    lock_wait_timeout;
    query_interval;
    query_backoff_cap;
    query_budget;
    tracing;
    until;
    crashes;
    recoveries;
    partitions;
    msg_faults;
    durable_wal;
    group_commit;
    sync_latency;
    pipeline_depth;
    disk_faults;
    initial_data;
    detector;
    fencing;
    heartbeat_period;
    suspicion_timeout;
    detector_faults;
    lease_faults;
  }

type txn_fate = Fate_committed | Fate_aborted | Fate_pending
[@@deriving show { with_path = false }, eq]

type result = {
  committed : int;
  aborted : int;
  pending : int;  (** submitted but unresolved when the run ended (blocked) *)
  deadlock_aborts : int;
  duration : float;  (** simulated time when the system went quiescent *)
  throughput : float;  (** committed transactions per time unit *)
  mean_latency : float option;  (** submission → coordinator decision, committed+aborted *)
  blocked_time : float;  (** total lock-time spent blocked across sites *)
  messages_sent : int;
  wal_forces : int;  (** forced WAL writes across all sites *)
  forces_per_commit : float;
      (** [wal_forces / committed] — the lever benches and sweeps read:
          presumption, the read-only optimization and group commit all
          push it down (0.0 when nothing committed) *)
  atomicity_ok : bool;
      (** every transaction's outcome agrees across all logs, and committed
          writes are applied at every operational participant *)
  outcome_contradiction : bool;
      (** some transaction has both a commit and an abort record across the
          stable logs — the unconditional half of [atomicity_ok] *)
  missing_applied : (int * Core.Types.site * Core.Types.site list) list;
      (** (txn, site, participants): a committed transaction's writes not
          applied at an operational participant — the other half of
          [atomicity_ok], separated out because a total participant-set
          failure legitimately strands a recovered site in doubt *)
  in_doubt : (Core.Types.site * int * Core.Types.site list) list;
      (** (site, txn, participants) still prepared or precommitted at an
          operational site when the run ended — locks held, outcome
          unknown.  Nonempty means blocking (or a total participant-set
          failure the termination protocol does not cover). *)
  durability_breaches : (Core.Types.site * int * string) list;
      (** (site, txn, what): an externally visible action the repaired
          stable log cannot justify — a yes vote on the wire with no
          prepared record surviving, or an announced outcome the log
          resolved the other way.  Always empty under the paper's force
          discipline; nonempty only when the stable-storage axiom itself
          is broken (lying sync) *)
  fates : (int * txn_fate) list;
  directive_epochs : (int * Core.Types.site * int) list;
      (** every termination-leadership assumption of the run, in order:
          (txn, site, epoch) when the site began issuing directives for
          the transaction.  The split-brain oracle checks no (txn, epoch)
          pair is shared by two distinct sites. *)
  storage_totals : int;  (** sum of all values across all sites *)
  trace : Sim.World.trace_entry list;  (** empty unless [tracing] *)
  metrics : (string * int) list;
  metrics_json : Sim.Json.t;
      (** full metrics snapshot ({!Sim.Metrics.to_json}): counters, gauges
          and latency histograms — commit latency and its
          lock-wait/vote/decision phase split, blocked durations *)
  run_metrics : Sim.Metrics.t;
      (** the run's live registry (the source of [metrics_json]), so
          sweeps can {!Sim.Metrics.merge} per-run registries *)
}

(* ---- post-run analysis ----

   Each check walks every stable log and applied-write journal a fixed
   number of times, newest record first, never copying one.  Lookups go
   to a hash table or to a sorted-array index built in one of those
   walks, so the checks cost O(n log n) in the run's length instead of
   a rescan of a whole log per transaction. *)

type final_state = {
  n_sites : int;
  workload : (float * Txn.t) list;
  nodes : Node.t array;
  alive : Core.Types.site -> bool;
}

(* A read-only set of ints: one sorted array, sized by a counting pass.
   [of_fold fold] holds the elements [fold] visits, where [fold f acc]
   folds [f] over them. *)
module Int_set = struct
  let of_fold (fold : (int -> int -> int) -> int -> int) =
    let a = Array.make (fold (fun n _ -> n + 1) 0) 0 in
    ignore (fold (fun i x -> a.(i) <- x; i + 1) 0);
    Array.sort Int.compare a;
    a

  let mem a x =
    let rec go lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      let y = a.(mid) in
      y = x || if y < x then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length a)
end

(* [(fates, contradiction, missing_applied)]: every transaction's outcome
   across all stable logs, whether two logs disagree, and the committed
   writes not applied at an operational participant (a down site applies
   them on recovery). *)
let outcomes final =
  let fate_tbl : (int, txn_fate) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (_, (t : Txn.t)) -> Hashtbl.replace fate_tbl t.id Fate_pending) final.workload;
  (* A transaction's fate is its first resolution in log order: sites in
     turn, each log oldest first.  The walk below runs that order
     backwards, so the resolution it writes last is that first one. *)
  let contradiction = ref false in
  for i = Array.length final.nodes - 1 downto 0 do
    Kv_wal.fold_newest_first
      (fun () r ->
        match r with
        | Kv_wal.C_decided { txn; commit } | Kv_wal.P_outcome { txn; commit } ->
            let fate = if commit then Fate_committed else Fate_aborted in
            (match Hashtbl.find_opt fate_tbl txn with
            | Some ((Fate_committed | Fate_aborted) as f) when f <> fate -> contradiction := true
            | _ -> ());
            Hashtbl.replace fate_tbl txn fate
        | _ -> ())
      () final.nodes.(i).Node.wal
  done;
  let fates =
    Hashtbl.fold (fun txn fate acc -> (txn, fate) :: acc) fate_tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let applied =
    Array.map
      (fun (n : Node.t) ->
        if final.alive n.Node.site then
          Int_set.of_fold (fun f init -> Storage.fold_applied f init n.Node.storage)
        else [||])
      final.nodes
  in
  (* a transaction is judged at its first occurrence in the workload;
     dropping its entry once [fates] is read out skips repeats *)
  let missing_applied =
    List.fold_left
      (fun acc (_, (t : Txn.t)) ->
        match Hashtbl.find_opt fate_tbl t.id with
        | Some Fate_committed ->
            Hashtbl.remove fate_tbl t.id;
            let writers =
              List.filter_map
                (function
                  | Txn.Put (k, _) | Txn.Add (k, _) -> Some (Txn.owner ~n_sites:final.n_sites k)
                  | Txn.Get _ -> None)
                t.ops
            in
            let participants = Txn.participants ~n_sites:final.n_sites t in
            List.fold_left
              (fun acc site ->
                if
                  final.alive site && List.mem site writers
                  && not (Int_set.mem applied.(site - 1) t.id)
                then (t.id, site, participants) :: acc
                else acc)
              acc participants
        | _ -> acc)
      [] final.workload
    |> List.sort compare
  in
  (fates, !contradiction, missing_applied)

let in_doubt final =
  Array.to_list final.nodes
  |> List.concat_map (fun (n : Node.t) ->
         if not (final.alive n.Node.site) then []
         else
           Hashtbl.fold
             (fun txn (p : Node.p_txn) acc ->
               match p.Node.status with
               | Node.P_prepared | Node.P_precommitted ->
                   (n.Node.site, txn, p.Node.participants) :: acc
               | Node.P_working | Node.P_done _ -> acc)
             n.Node.p_txns [])
  |> List.sort compare

(* Externally visible actions (recorded in the nodes' sticky tables at
   send time, surviving crashes because the world cannot un-see a
   message) judged against what each site's repaired stable log can
   justify: a yes vote needs a prepared record (looked up in an index of
   the log's prepared txns), and an announced outcome is contradicted by
   any resolution of the other way (each found by one walk of the log
   against the announcement table). *)
let durability_breaches final =
  Array.to_list final.nodes
  |> List.concat_map (fun (n : Node.t) ->
         let site = n.Node.site in
         let prepared =
           Int_set.of_fold (fun f init ->
               Kv_wal.fold_newest_first
                 (fun acc r -> match r with Kv_wal.P_prepared { txn; _ } -> f acc txn | _ -> acc)
                 init n.Node.wal)
         in
         let unjustified_votes =
           Hashtbl.fold
             (fun txn () acc ->
               if Int_set.mem prepared txn then acc
               else (site, txn, "yes vote on the wire with no prepared record on the log") :: acc)
             n.Node.sent_yes_txns []
         in
         let contradicted_announcements =
           Kv_wal.fold_newest_first
             (fun acc r ->
               match r with
               | Kv_wal.C_decided { txn; commit } | Kv_wal.P_outcome { txn; commit }
                 when List.mem (not commit) (Hashtbl.find_all n.Node.announced_outcomes txn) ->
                   ( site,
                     txn,
                     Printf.sprintf "announced %s but the log resolved the other way"
                       (if commit then "abort" else "commit") )
                   :: acc
               | _ -> acc)
             [] n.Node.wal
         in
         unjustified_votes @ contradicted_announcements)
  |> List.sort_uniq compare

(** [run cfg workload] executes [workload] (arrival-time, transaction)
    pairs and reports aggregate behaviour.  Deterministic in [cfg.seed]. *)
let run ?(inspect = ignore) (cfg : config) (workload : (float * Txn.t) list) : result =
  let world =
    Sim.World.create ~n_sites:cfg.n_sites ~seed:cfg.seed ~msg_to_string:Kv_msg.to_string ()
  in
  Sim.World.set_tracing world cfg.tracing;
  let storages = Array.init cfg.n_sites (fun _ -> Storage.create ()) in
  (* per-site disks seeded by site id: the fault stream is private to the
     disk, so arming storage faults never perturbs the world's RNG *)
  let wals =
    Array.init cfg.n_sites (fun i ->
        Kv_wal.create ~seed:(i + 1) ~durable:cfg.durable_wal ?group_commit:cfg.group_commit
          ~sync_latency:cfg.sync_latency ())
  in
  List.iteri
    (fun i wal ->
      let site = i + 1 in
      match List.filter_map (fun (s, inj) -> if s = site then Some inj else None) cfg.disk_faults with
      | [] -> ()
      | injections -> Kv_wal.set_faults wal injections)
    (Array.to_list wals);
  Sim.World.set_crash_hook world (fun site ->
      match Kv_wal.crash wals.(site - 1) with
      | None -> ()
      | Some rep ->
          Sim.Metrics.incr (Sim.World.metrics world) "wal_repairs";
          Sim.World.record world "site %d wal repair: %d survived, %d lost, %d bytes dropped%s"
            site rep.Kv_wal.survived rep.Kv_wal.lost_records rep.Kv_wal.dropped_bytes
            (match rep.Kv_wal.reason with Some r -> " (" ^ r ^ ")" | None -> ""));
  (* partition the initial data *)
  List.iter
    (fun (k, v) ->
      let site = Txn.owner ~n_sites:cfg.n_sites k in
      Storage.load storages.(site - 1) [ (k, v) ])
    cfg.initial_data;
  Sim.World.set_msg_faults world cfg.msg_faults;
  let qrng_root = Sim.Rng.create ~seed:cfg.seed in
  let nodes =
    Array.init cfg.n_sites (fun i ->
        Node.create ~presumption:cfg.presumption ~termination:cfg.termination
          ~read_only_opt:cfg.read_only_opt ~pipeline_depth:cfg.pipeline_depth
          ~query_backoff_cap:cfg.query_backoff_cap
          ~query_rng:(Sim.Rng.split qrng_root) ~site:(i + 1)
          ~n_sites:cfg.n_sites ~protocol:cfg.protocol ~storage:storages.(i) ~wal:wals.(i)
          ~lock_wait_timeout:cfg.lock_wait_timeout ~query_interval:cfg.query_interval
          ~query_budget:cfg.query_budget ~detector:cfg.detector ~fencing:cfg.fencing ())
  in
  let node site = nodes.(site - 1) in
  (* detector mode: suspicion (revocable) drives the nodes' peer views
     instead of the oracle's crash/recovery reports *)
  let detector =
    if not cfg.detector then None
    else
      Some
        (Sim.Detector.create ~heartbeat_period:cfg.heartbeat_period
           ~suspicion_timeout:cfg.suspicion_timeout ~world ~heartbeat:Kv_msg.Heartbeat
           ~is_heartbeat:(function Kv_msg.Heartbeat -> true | _ -> false)
           ~on_suspect:(fun ctx s -> Node.on_peer_down (node ctx.Sim.World.self) ctx s)
           ~on_unsuspect:(fun ctx s -> Node.on_peer_up (node ctx.Sim.World.self) ctx s)
           ())
  in
  let handlers site : Kv_msg.t Sim.World.handlers =
    let n = node site in
    (* (re)wire the WAL's batcher to this site's timers and the metrics
       registry; completed batches refill the pipelining admission gate.
       Must rebind on every (re)start: timers set through a pre-crash ctx
       die with the crash. *)
    let attach_wal ctx =
      Kv_wal.attach wals.(site - 1)
        ~on_drain:(fun () -> Node.drain_admissions n ctx)
        ~metrics:(Sim.World.metrics world)
        ~schedule:(fun delay k -> ignore (Sim.World.set_timer ctx ~delay k))
    in
    {
      Sim.World.on_start =
        (fun ctx ->
          attach_wal ctx;
          Node.install_grant_hook n ctx;
          match detector with Some d -> Sim.Detector.start d ctx | None -> ());
      on_message =
        (fun ctx ~src msg ->
          (match detector with Some d -> Sim.Detector.heard d ~self:site ~src | None -> ());
          Node.on_message n ctx ~src msg);
      on_peer_down = (fun ctx failed -> if not cfg.detector then Node.on_peer_down n ctx failed);
      on_peer_up = (fun ctx recovered -> if not cfg.detector then Node.on_peer_up n ctx recovered);
      on_restart =
        (fun ctx ->
          attach_wal ctx;
          Node.install_grant_hook n ctx;
          Node.on_restart n ctx;
          match detector with Some d -> Sim.Detector.start d ctx | None -> ());
    }
  in
  (* client arrivals *)
  List.iter
    (fun (at, txn) ->
      let coord = Txn.coordinator ~n_sites:cfg.n_sites txn in
      Sim.World.inject world ~dst:coord ~at (Kv_msg.Client_begin txn))
    workload;
  List.iter (fun (s, at) -> Sim.World.schedule_crash world ~at s) cfg.crashes;
  List.iter
    (fun (from_t, until_t, groups) -> Sim.World.schedule_partition world ~from_t ~until_t groups)
    cfg.partitions;
  List.iter (fun (s, at) -> Sim.World.schedule_recovery world ~at s) cfg.recoveries;
  List.iter
    (function
      | Sim.Nemesis.Delay_window { site; from_t; until_t; extra } ->
          Sim.World.schedule_latency_spike world ~site ~from_t ~until_t ~extra
      | Sim.Nemesis.Stall { site; from_t; until_t } ->
          Sim.World.schedule_stall world ~site ~from_t ~until_t
      | Sim.Nemesis.Hb_loss { site; from_t; until_t } ->
          Sim.World.schedule_hb_loss world ~site ~from_t ~until_t
      | _ -> ())
    cfg.detector_faults;
  List.iter
    (fun at ->
      for site = 1 to cfg.n_sites do
        Sim.World.inject world ~dst:site ~at Kv_msg.Lease_expire
      done)
    cfg.lease_faults;
  let duration = Sim.World.run world ~handlers ~until:cfg.until () in
  (* transactions still blocked at quiescence never resolved: account their
     lock-holding time up to the end of the run *)
  Array.iter
    (fun (n : Node.t) ->
      Hashtbl.iter
        (fun _ (p : Node.p_txn) ->
          match p.Node.blocked_since with
          | Some t0 ->
              n.Node.blocked_time <- n.Node.blocked_time +. (duration -. t0);
              p.Node.blocked_since <- None
          | None -> ())
        n.Node.p_txns)
    nodes;
  let final = { n_sites = cfg.n_sites; workload; nodes; alive = Sim.World.is_alive world } in
  inspect final;
  let fates, contradiction, missing_applied = outcomes final in
  let count f = List.length (List.filter (fun (_, x) -> x = f) fates) in
  let committed = count Fate_committed
  and aborted = count Fate_aborted
  and pending = count Fate_pending in
  let latencies = Array.to_list nodes |> List.concat_map (fun n -> n.Node.latencies) in
  let in_doubt = in_doubt final in
  let durability_breaches = durability_breaches final in
  let metrics = Sim.World.metrics world in
  (* account interrupted measurements (e.g. kv_lock_wait timers of sites
     that crashed holding locks) before the registry is snapshot or
     merged into a sweep aggregate *)
  Sim.Metrics.drain_timers metrics;
  let wal_forces = Sim.Metrics.counter metrics "wal_forces" in
  let forces_per_commit =
    if committed > 0 then float_of_int wal_forces /. float_of_int committed else 0.0
  in
  (* derived, but first-class: published into the registry so sweep
     merges aggregate it like any other distribution *)
  if committed > 0 then Sim.Metrics.observe metrics "forces_per_commit" forces_per_commit;
  {
    committed;
    aborted;
    pending;
    deadlock_aborts = Array.to_list nodes |> List.fold_left (fun a n -> a + n.Node.deadlock_aborts) 0;
    duration;
    throughput = (if duration > 0.0 then float_of_int committed /. duration else 0.0);
    mean_latency =
      (match latencies with
      | [] -> None
      | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)));
    blocked_time = Array.to_list nodes |> List.fold_left (fun a n -> a +. n.Node.blocked_time) 0.0;
    messages_sent = Sim.Metrics.counter metrics "messages_sent";
    wal_forces;
    forces_per_commit;
    atomicity_ok = (not contradiction) && missing_applied = [];
    outcome_contradiction = contradiction;
    missing_applied;
    in_doubt;
    durability_breaches;
    fates;
    directive_epochs =
      Array.to_list nodes
      |> List.concat_map (fun (n : Node.t) ->
             List.rev_map (fun (txn, e) -> (txn, n.Node.site, e)) n.Node.directive_epochs)
      |> List.sort compare;
    storage_totals = Array.to_list storages |> List.fold_left (fun a s -> a + Storage.total s) 0;
    trace = Sim.World.trace_entries world;
    metrics = Sim.Metrics.counters metrics;
    metrics_json = Sim.Metrics.to_json metrics;
    run_metrics = metrics;
  }

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v>committed %d, aborted %d (deadlock %d), pending %d@,\
     duration %.1f, throughput %.4f txn/u, mean latency %a@,\
     blocked lock time %.1f, messages %d@,\
     atomicity ok: %b, storage total %d@]"
    r.committed r.aborted r.deadlock_aborts r.pending r.duration r.throughput
    Fmt.(option ~none:(any "n/a") (fmt "%.2f"))
    r.mean_latency r.blocked_time r.messages_sent r.atomicity_ok r.storage_totals
