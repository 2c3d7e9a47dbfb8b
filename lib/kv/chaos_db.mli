(** Chaos driver for the database harness: {!Sim.Nemesis} schedules
    lowered onto a {!Db} bank-transfer run, judged by end-to-end oracles —
    atomicity (outcome logs agree, committed writes applied), conservation
    (the bank total is invariant once every site is back and nothing is in
    doubt), nonblocking progress (no operational site ends the run
    holding locks in doubt unless its transaction's whole participant set
    crashed), and durability (every yes vote and announced outcome must
    be justified by the announcing site's repaired stable log).
    {!harness} packs a run into an {!Engine.Harness.t}, whose sweep
    shrinks violating plans to a minimal counterexample.  Deterministic
    in [(protocol, n_sites, k, seed)]. *)

type oracle = Atomicity | Conservation | Progress | Durability | Split_brain

val pp_oracle : Format.formatter -> oracle -> unit
val equal_oracle : oracle -> oracle -> bool
val oracle_name : oracle -> string

type violation = { oracle : oracle; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val default_profile : Sim.Nemesis.profile
(** Timed crashes, recoveries and message faults only: step- and
    backup-pinned crashes are protocol-engine notions the database cannot
    interpret. *)

val paxos_profile : f:int -> Sim.Nemesis.profile
(** {!default_profile} aimed at Paxos Commit's replicated coordinator
    state: acceptor crashes (at most [f]) on the [2f+1] lowest-numbered
    sites, where the database puts its acceptors, and lease faults. *)

val workload_of : seed:int -> (float * Txn.t) list
(** The seed's bank-transfer workload (a split stream of the seed's root
    rng, independent of the schedule stream). *)

val lower :
  Sim.Nemesis.schedule ->
  (Core.Types.site * float) list
  * (Core.Types.site * float) list
  * (float * float * Core.Types.site list list) list
  * (int * Sim.World.msg_fault) list
  * (Core.Types.site * Sim.Disk.injection) list
  * Sim.Nemesis.fault list
  * float list
(** Schedule → (crashes, recoveries, partitions, msg_faults, disk_faults,
    detector_faults, lease_faults) as {!Db.config} takes them.  Step- and
    backup-pinned crashes are dropped; acceptor crashes lower to plain
    crashes; the detector-provoking windows (latency spikes, stalls,
    heartbeat loss) pass through verbatim. *)

val fingerprint_of : Db.result -> string list
(** The run's behavioural signature for the coverage-guided explorer
    ({!Engine.Explore}): per-transaction fates, bucketed outcome /
    conflict / election counters ({!Sim.Coverage.bucket}) and oracle
    near-miss flags, read post hoc from the result — pinned metrics stay
    byte-identical.  Deterministic in the run. *)

(** {2 Configuration}

    Every harness entry point below takes the run's whole {!Db.config}
    as one [?config] argument (default {!default_config}): protocol,
    site count, termination rule, presumption, the read-only
    optimization, group commit, sync latency, pipelining, the durable
    WAL, the failure detector with its heartbeat period and suspicion
    timeout, fencing, the [until] horizon and tracing.  Per run the
    harness overwrites [seed], the seven fault lists ([crashes],
    [recoveries], [partitions], [msg_faults], [disk_faults],
    [detector_faults], [lease_faults], from {!lower} of the schedule)
    and [initial_data] (the bank).  Every other field is used as given.
    The harness's [run ~tracing] also sets [tracing].
    {!run_schedule}, {!run_one} and {!sweep} also take [?protocol] and
    [?n_sites]; they default to the config's fields and, when given,
    replace them. *)

val default_config : Db.config
(** The harness defaults: {!Db.config}'s defaults (durable WAL, Skeen
    termination, no presumption, no detector) with 3PC, 4 sites and a
    3000 s horizon. *)

val run_schedule :
  ?config:Db.config ->
  ?protocol:Node.protocol ->
  ?n_sites:int ->
  seed:int ->
  Sim.Nemesis.schedule ->
  Db.result * violation list
(** Execute one explicit schedule (e.g. a pinned counterexample) against
    the seed's workload under [config] and judge it. *)

type run_outcome = {
  seed : int;
  schedule : Sim.Nemesis.schedule;
  result : Db.result;
  violations : violation list;
}

val run_one :
  ?profile:Sim.Nemesis.profile ->
  ?config:Db.config ->
  ?protocol:Node.protocol ->
  ?n_sites:int ->
  k:int ->
  seed:int ->
  unit ->
  run_outcome
(** Generate the seed's schedule and execute it.  The seed's root rng
    splits twice: the workload stream ({!workload_of}) first, the
    schedule stream ({!Sim.Nemesis.generate} with [profile], default
    {!default_profile}) second.  Deterministic. *)

val harness :
  ?config:Db.config ->
  ?profile:Sim.Nemesis.profile ->
  ?k:int ->
  unit ->
  (Db.result, oracle) Engine.Harness.t
(** The database harness: [run] lowers a plan through
    {!Engine.Failure_plan.to_schedule} and runs it with {!run_schedule}
    under [config], merging the run's registry into [metrics];
    [plan_of_seed] is the schedule {!run_one} draws for the seed (with
    [profile], default {!default_profile}, and [k], default 1), as a
    plan.  The protocol and site count are the config's. *)

type 'o summary = 'o Engine.Harness.summary = {
  seeds_run : int;
  failing : 'o Engine.Harness.failing list;
  violations_by_oracle : ('o * int) list;
  metrics : Sim.Metrics.t;
}

val sweep :
  ?profile:Sim.Nemesis.profile ->
  ?config:Db.config ->
  ?protocol:Node.protocol ->
  ?n_sites:int ->
  ?seed_base:int ->
  ?workers:int ->
  k:int ->
  seeds:int ->
  unit ->
  oracle summary
(** {!Engine.Harness.sweep} on {!harness}, the config's protocol and
    site count replaced by [protocol] and [n_sites] when given. *)
