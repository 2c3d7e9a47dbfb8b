(** Chaos harness: randomized fault schedules, consistency oracles, and
    counterexample shrinking.

    Every run is a pure function of [(protocol, n, k, seed)]: the seed
    drives {!Sim.Nemesis.generate} through a {!Sim.Rng.split} stream, the
    schedule lowers to a {!Failure_plan.t} via
    {!Failure_plan.of_schedule}, one protocol instance executes it, and
    four oracles judge the quiesced history — atomicity (crashed sites
    judged by their WAL), nonblocking progress under ≤ k concurrent
    failures (the [until] horizon is the stall budget), recovery
    convergence, and durability (what the world observed from a site must
    be derivable from its durable log after crash + repair).  {!harness}
    packs this into a {!Harness.t}, whose sweep shrinks violations to a
    minimal plan that {!Failure_plan.to_string} renders ready to paste
    into a regression test. *)

type oracle = Atomicity | Progress | Recovery_convergence | Durability | Split_brain

val pp_oracle : Format.formatter -> oracle -> unit
val equal_oracle : oracle -> oracle -> bool
val oracle_name : oracle -> string

type violation = { oracle : oracle; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type run_outcome = {
  seed : int;
  plan : Failure_plan.t;
  result : Runtime.result;
  violations : violation list;
}

val violations_of :
  ?metrics:Sim.Metrics.t ->
  ?presumption:Runtime.presumption ->
  ?read_only:Core.Types.site list ->
  Runtime.result ->
  violation list
(** Run the five oracles on a finished run (timing each into [metrics]
    when given).  [Split_brain] checks no election epoch in
    [result.directive_epochs] is claimed by two distinct sites.
    [presumption] licenses exactly one durability gap: an announced
    covered outcome whose appended-not-forced [Decided] record the crash
    took.  [read_only] sites are exempt from the progress, recovery and
    durability oracles (their log is volatile by design and they are
    excluded from termination). *)

val fingerprint_of : Runtime.result -> string list
(** The run's behavioural signature for the coverage-guided explorer
    ({!Explore}): per-site-class protocol-state edges walked by the
    stable log (read post hoc from the WAL store — the runtime's metrics
    stay untouched), terminal outcomes, bucketed detector/election
    activity ({!Sim.Coverage.bucket}) and oracle near-miss flags.
    Deterministic in the run. *)

(** {2 Configuration}

    Every harness entry point below takes the run's whole
    {!Runtime.config} as one [?config] argument: termination rule,
    presumption, read-only sites, group commit and sync latency, the
    late-force ablation, the failure detector and its timeouts, fencing,
    the [until] stall budget and tracing.  Per run the harness overwrites
    exactly three fields: [rulebook] (the positional rulebook wins over
    the config's), [plan] (generated from the seed, or the explicit plan)
    and [seed]; the harness's [run ~tracing] also sets [tracing].  Every
    other field is used as given. *)

val default_config : Rulebook.t -> Runtime.config
(** [Runtime.config ~until:1500.0 rb]: every {!Runtime.config} default,
    with a 1500 s stall budget.  The default of every [?config] below. *)

val plan_of_seed : ?profile:Sim.Nemesis.profile -> Rulebook.t -> k:int -> seed:int -> Failure_plan.t
(** The seed discipline: the plan {!run_one} executes for [seed], drawn
    by {!Sim.Nemesis.generate} (profile default
    {!Sim.Nemesis.default_profile}) from a {!Sim.Rng.split} stream of the
    seed's root rng, so the schedule never perturbs message timing. *)

val run_plan :
  ?metrics:Sim.Metrics.t ->
  ?config:Runtime.config ->
  Rulebook.t ->
  plan:Failure_plan.t ->
  seed:int ->
  unit ->
  Runtime.result * violation list
(** Execute one explicit plan (e.g. a pasted counterexample) under
    [config] and judge it; the oracles read the config's presumption and
    read-only sites.  Set [config.tracing] to keep the event trace.
    [metrics] receives the plan's fault count ([schedule_faults]), the
    run's detector counters and suspicion latencies, and the oracles'
    [wall_oracle_*_s] timings. *)

val run_one :
  ?metrics:Sim.Metrics.t ->
  ?profile:Sim.Nemesis.profile ->
  ?config:Runtime.config ->
  Rulebook.t ->
  k:int ->
  seed:int ->
  unit ->
  run_outcome
(** Run {!plan_of_seed}'s plan under [config], counting [chaos_runs]
    into [metrics].  Deterministic. *)

val harness :
  ?config:Runtime.config ->
  ?profile:Sim.Nemesis.profile ->
  ?k:int ->
  Rulebook.t ->
  (Runtime.result, oracle) Harness.t
(** The protocol-engine harness: [run] is {!run_plan} under [config]
    (the rulebook, plan and seed are overwritten per run) and the five
    oracles; [plan_of_seed] is {!plan_of_seed} with [profile] (default
    {!Sim.Nemesis.default_profile}) and [k] (default 1); [fingerprint] is
    {!fingerprint_of}. *)

type 'o summary = 'o Harness.summary = {
  seeds_run : int;
  failing : 'o Harness.failing list;
  violations_by_oracle : ('o * int) list;
  metrics : Sim.Metrics.t;
}

val sweep :
  ?profile:Sim.Nemesis.profile ->
  ?config:Runtime.config ->
  ?seed_base:int ->
  ?workers:int ->
  Rulebook.t ->
  k:int ->
  seeds:int ->
  unit ->
  oracle summary
(** {!Harness.sweep} on {!harness}. *)
