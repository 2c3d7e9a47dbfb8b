(** Chaos harness: randomized fault schedules, consistency oracles, and
    counterexample shrinking.

    Each run is a pure function of [(protocol, n, k, seed)]: the seed
    feeds a {!Sim.Rng.split} stream to {!Sim.Nemesis.generate}, the
    schedule lowers to a {!Failure_plan.t}, and one protocol instance
    executes it on the simulator.  After quiescence three oracles judge
    the history:

    - {e atomicity}: no history where one site commits and another
      aborts; crashed sites are judged by their last WAL-forced state
      ([wal_outcome]), since a site that logged a commit-final transition
      and died mid-broadcast has decided, whatever its volatile memory
      said.
    - {e nonblocking progress}: every operational never-crashed site
      decides when concurrent failures stay ≤ k (the generator enforces
      the bound).  The run's [until] horizon is the stall budget: a
      liveness violation is detected, not hung on.
    - {e recovery convergence}: every recovered site replays its WAL and
      reaches the cohort's decision, when one exists.  When no site
      decided at all and every site crashed at least once, that is the
      paper's total-failure scenario — out of scope for the termination
      protocol, so not flagged.
    - {e durability}: anything a site let the world observe must be
      justified by its durable log.  A yes vote on the wire with no
      yes-vote record surviving on the log, or an announced outcome the
      log cannot reproduce after crash + repair, means the site acted
      before its forced write was stable — a repaired-away record must
      never resurrect (or un-decide) a transaction.

    {!harness} packs all of this into the {!Harness.t} record the sweep,
    shrinker and replay in {!Harness} run against. *)

type oracle = Atomicity | Progress | Recovery_convergence | Durability | Split_brain
[@@deriving show { with_path = false }, eq]

let oracle_name = function
  | Atomicity -> "atomicity"
  | Progress -> "progress"
  | Recovery_convergence -> "recovery"
  | Durability -> "durability"
  | Split_brain -> "split-brain"

type violation = { oracle : oracle; detail : string } [@@deriving show { with_path = false }, eq]

type run_outcome = {
  seed : int;
  plan : Failure_plan.t;
  result : Runtime.result;
  violations : violation list;
}

let outcome_str = function Core.Types.Committed -> "commit" | Core.Types.Aborted -> "abort"

(* A site's effective decision: what its stable log forced, falling back
   to nothing.  Volatile [outcome] is always backed by a WAL record
   ([finalize] writes before it sets), so the WAL view subsumes it; the
   interesting divergence is a crashed site whose log decided. *)
let effective (r : Runtime.site_report) =
  match r.outcome with Some o -> Some o | None -> r.wal_outcome

let check_atomicity (result : Runtime.result) =
  let decided =
    List.filter_map
      (fun (r : Runtime.site_report) -> Option.map (fun o -> (r.site, o)) (effective r))
      result.reports
  in
  let commits = List.filter (fun (_, o) -> o = Core.Types.Committed) decided in
  let aborts = List.filter (fun (_, o) -> o = Core.Types.Aborted) decided in
  if commits <> [] && aborts <> [] then
    Some
      {
        oracle = Atomicity;
        detail =
          Printf.sprintf "sites %s committed but sites %s aborted"
            (String.concat "," (List.map (fun (s, _) -> string_of_int s) commits))
            (String.concat "," (List.map (fun (s, _) -> string_of_int s) aborts));
      }
  else None

(* Read-only sites are outside the progress and recovery contracts: they
   are excluded from backup leadership and quorum counts, so a run where
   only read-only sites survive is the total-failure scenario for them —
   and their recovery asks peers with no log of its own to converge
   from. *)
let check_progress ?(read_only = []) (result : Runtime.result) =
  let stuck =
    List.filter
      (fun (r : Runtime.site_report) ->
        r.operational
        && (not r.ever_crashed)
        && (not (List.mem r.site read_only))
        && r.outcome = None)
      result.reports
  in
  if stuck <> [] then
    Some
      {
        oracle = Progress;
        detail =
          Printf.sprintf "operational never-crashed site(s) %s undecided at the stall budget"
            (String.concat ","
               (List.map (fun (r : Runtime.site_report) -> string_of_int r.site) stuck));
      }
  else None

let check_recovery ?(read_only = []) (result : Runtime.result) =
  let decisions =
    List.filter_map effective result.reports |> List.sort_uniq compare
  in
  match decisions with
  | [ d ] ->
      (* a unique cohort decision exists: every recovered operational
         site must have converged to it (a contradictory decision is the
         atomicity oracle's finding, not this one's) *)
      let stuck =
        List.filter
          (fun (r : Runtime.site_report) ->
            r.operational && r.ever_crashed
            && (not (List.mem r.site read_only))
            && r.outcome = None)
          result.reports
      in
      if stuck <> [] then
        Some
          {
            oracle = Recovery_convergence;
            detail =
              Printf.sprintf "cohort decided %s but recovered site(s) %s never converged"
                (outcome_str d)
                (String.concat ","
                   (List.map (fun (r : Runtime.site_report) -> string_of_int r.site) stuck));
          }
      else None
  | _ -> None

(* Durability: what the world observed from a site must be derivable from
   its durable log.  [Wal.crash] rebuilds the volatile view from the
   durable image at every crash, so a crashed site's WAL view *is* its
   durable prefix after repair — comparing it against the sticky
   [sent_yes]/[announced] flags (which survive crashes precisely because
   the world cannot un-see a message) makes the check sound post-hoc. *)
let check_durability ?(presumption = Runtime.No_presumption) ?(read_only = [])
    (result : Runtime.result) =
  (* the presumption licenses exactly one gap: an announced covered
     outcome whose [Decided] record the crash took — the record was
     appended, not forced, by design.  A log that resolved the *other*
     way is still a breach, as is a covered gap under the wrong
     presumption. *)
  let presumed_covered o =
    match (presumption, o) with
    | Runtime.Presume_abort, Core.Types.Aborted -> true
    | Runtime.Presume_commit, Core.Types.Committed -> true
    | (Runtime.No_presumption | Runtime.Presume_abort | Runtime.Presume_commit), _ -> false
  in
  let problems =
    List.filter_map
      (fun (r : Runtime.site_report) ->
        if List.mem r.site read_only then
          (* a read-only site's log is volatile by design: nothing it
             shows (or fails to show) is binding *)
          None
        else
          let wal = Wal.Store.log result.store ~site:r.site in
          if r.sent_yes && not (Wal.voted_yes wal) then
            Some
              (Printf.sprintf "site %d sent a yes vote its durable log cannot justify" r.site)
          else
            match r.announced with
            | Some o when r.wal_outcome = None && presumed_covered o -> None
            | Some o when r.wal_outcome <> Some o ->
                Some
                  (Printf.sprintf "site %d announced %s but its durable log says %s" r.site
                     (outcome_str o)
                     (match r.wal_outcome with Some o' -> outcome_str o' | None -> "nothing"))
            | _ -> None)
      result.reports
  in
  if problems <> [] then
    Some { oracle = Durability; detail = String.concat "; " problems }
  else None

(* Split-brain: election epochs are globally unique per site by
   construction ([round * n_sites + (site - 1)]), so an epoch claimed by
   two distinct sites means two backups believed they owned the same
   election round — exactly what fencing is meant to exclude.  (The
   observable damage of a split brain — contradictory decisions — is the
   atomicity oracle's finding; this one pins the structural invariant.) *)
let check_split_brain (result : Runtime.result) =
  let owner = Hashtbl.create 8 in
  let dup =
    List.find_opt
      (fun (site, e) ->
        match Hashtbl.find_opt owner e with
        | Some s -> s <> site
        | None ->
            Hashtbl.replace owner e site;
            false)
      result.Runtime.directive_epochs
  in
  match dup with
  | None -> None
  | Some (site, e) ->
      Some
        {
          oracle = Split_brain;
          detail = Printf.sprintf "epoch %d claimed by two sites, e.g. site %d" e site;
        }

(* Run the five oracles, timing each into [metrics] when provided.  The
   timing histograms carry the reserved [wall_] prefix: they are host
   wall-clock measurements through the one shared clock ({!Sim.Clock}),
   nondeterministic across runs and excluded from sweep
   merge-equivalence checks.  Never [Sys.time] here — that is
   process-wide CPU time, which sums across a parallel sweep's domains
   and turns every per-oracle histogram into garbage. *)
let violations_of ?metrics ?presumption ?read_only result =
  let timed name f =
    match metrics with
    | None -> f result
    | Some m ->
        let v, dt = Sim.Clock.time (fun () -> f result) in
        Sim.Metrics.observe m (Printf.sprintf "wall_oracle_%s_s" name) dt;
        v
  in
  List.filter_map Fun.id
    [
      timed "atomicity" check_atomicity;
      timed "progress" (check_progress ?read_only);
      timed "recovery" (check_recovery ?read_only);
      timed "durability" (check_durability ?presumption ?read_only);
      timed "split_brain" check_split_brain;
    ]

(* The per-run detector counters worth aggregating across a sweep: they
   answer "how often did suspicion misfire, and what did fencing stop". *)
let detector_counter_names =
  [ "false_suspicions"; "elections_started"; "elections"; "epoch_rejected_directives" ]

let aggregate_run_metrics m result =
  let rm = result.Runtime.run_metrics in
  List.iter
    (fun name ->
      match Sim.Metrics.counter rm name with
      | 0 -> ()
      | by -> Sim.Metrics.incr ~by m name)
    detector_counter_names;
  (* fold the crash-to-suspicion latency histogram by re-observing bucket
     midpoints: within one bucket width of exact, which is all the
     summary percentiles claim anyway *)
  List.iter
    (fun (lower, upper, count) ->
      let v = if Float.is_finite upper then (lower +. upper) /. 2.0 else lower in
      for _ = 1 to count do
        Sim.Metrics.observe m "suspicion_latency" v
      done)
    (Sim.Metrics.buckets rm "suspicion_latency")

(* ---------------- coverage fingerprints ---------------- *)

(* The run's behavioural signature for the coverage-guided explorer
   ({!Explore}): per-site-class protocol-state edges walked by the
   stable log — read post hoc from the WAL store, so the runtime's
   metrics stay byte-identical to every pinned expectation — plus
   terminal outcomes, bucketed detector/election activity and oracle
   near-miss flags.  Everything here is deterministic in the run; no
   wall-clock measurement may leak in. *)
let fingerprint_of (result : Runtime.result) =
  let open Sim.Coverage in
  let site_features (r : Runtime.site_report) =
    let class_ = if r.site = 1 then "coord" else "part" in
    let labels =
      List.map
        (function
          | Wal.Began { initial; _ } -> initial
          | Wal.Transitioned { to_state; vote } -> (
              match vote with
              | Some Core.Types.Yes -> to_state ^ "+y"
              | Some Core.Types.No -> to_state ^ "+n"
              | None -> to_state)
          | Wal.Moved { to_state } -> "mv-" ^ to_state
          | Wal.Decided o -> "dec-" ^ outcome_str o)
        (Wal.records (Wal.Store.log result.store ~site:r.site))
    in
    let rec edges = function
      | a :: (b :: _ as rest) -> edge ~class_ a b :: edges rest
      | [] | [ _ ] -> []
    in
    edges labels
    @ [
        feat ("final-" ^ class_) r.final_state;
        feat ("end-" ^ class_)
          (Printf.sprintf "%s%s%s"
             (match effective r with Some o -> outcome_str o | None -> "undecided")
             (if r.ever_crashed then "+crashed" else "")
             (if r.operational then "" else "+down"));
      ]
  in
  List.concat_map site_features result.reports
  @ [
      feat "outcome"
        (match result.global_outcome with Some o -> outcome_str o | None -> "none");
      feat "consistent" (string_of_bool result.consistent);
      feat "blocked" (bucket result.blocked_operational);
      feat "epochs" (bucket (List.length result.directive_epochs));
      feat "epoch-sites"
        (bucket
           (List.length (List.sort_uniq compare (List.map fst result.directive_epochs))));
    ]
  @ List.map
      (fun name -> feat name (bucket (Sim.Metrics.counter result.run_metrics name)))
      detector_counter_names

let default_config rulebook = Runtime.config ~until:1500.0 rulebook
let config_or_default rulebook = function Some c -> c | None -> default_config rulebook

(* One run of [config] under [plan] and [seed]; the positional rulebook
   replaces the config's. *)
let run_plan ?metrics ?config rulebook ~plan ~seed () =
  let config = config_or_default rulebook config in
  let result = Runtime.run { config with Runtime.rulebook; plan; seed } in
  (match metrics with
  | Some m ->
      Sim.Metrics.observe m "schedule_faults" (float_of_int (Failure_plan.fault_count plan));
      aggregate_run_metrics m result
  | None -> ());
  ( result,
    violations_of ?metrics ~presumption:config.Runtime.presumption
      ~read_only:config.Runtime.read_only result )

(* The seed's randomness splits: the schedule draws from its own stream,
   the world's latency draws from another, so the schedule never perturbs
   message timing beyond the faults it injects. *)
let plan_of_seed ?(profile = Sim.Nemesis.default_profile) rulebook ~k ~seed =
  let n_sites = Core.Protocol.n_sites rulebook.Rulebook.protocol in
  let sched_rng = Sim.Rng.split (Sim.Rng.create ~seed) in
  Failure_plan.of_schedule (Sim.Nemesis.generate sched_rng ~n_sites ~k profile)

let run_one ?metrics ?profile ?config rulebook ~k ~seed () =
  let plan = plan_of_seed ?profile rulebook ~k ~seed in
  (match metrics with Some m -> Sim.Metrics.incr m "chaos_runs" | None -> ());
  let result, violations = run_plan ?metrics ?config rulebook ~plan ~seed () in
  { seed; plan; result; violations }

let harness ?config ?profile ?(k = 1) rulebook =
  let config = config_or_default rulebook config in
  let run ?metrics ?(tracing = config.Runtime.tracing) ~seed plan =
    let result, violations =
      run_plan ?metrics ~config:{ config with Runtime.tracing } rulebook ~plan ~seed ()
    in
    (result, List.map (fun v -> (v.oracle, v.detail)) violations)
  in
  let protocol = rulebook.Rulebook.protocol.Core.Protocol.name in
  {
    Harness.name = protocol;
    n_sites = Core.Protocol.n_sites rulebook.Rulebook.protocol;
    horizon = (Option.value profile ~default:Sim.Nemesis.default_profile).Sim.Nemesis.horizon;
    families = Harness.protocol_families ~protocol;
    plan_of_seed = (fun ~seed -> plan_of_seed ?profile rulebook ~k ~seed);
    run;
    fingerprint = fingerprint_of;
    oracle_name;
    pp_result = Runtime.pp_result;
    trace = (fun r -> r.Runtime.trace);
  }

type 'o summary = 'o Harness.summary = {
  seeds_run : int;
  failing : 'o Harness.failing list;
  violations_by_oracle : ('o * int) list;
  metrics : Sim.Metrics.t;
}

let sweep ?profile ?config ?seed_base ?workers rulebook ~k ~seeds () =
  Harness.sweep ?seed_base ?workers (harness ?config ?profile ~k rulebook) ~seeds
