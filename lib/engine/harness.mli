(** One interface for every chaos harness, and the sweep, shrinker and
    replay written once against it.

    Skeen's nonblocking property is stated for any commit protocol, so
    every harness answers the same questions: run a plan, judge it,
    shrink it, replay it.  A harness is a record of what differs — the
    seed discipline, one run under its config, its oracles, its result
    printer — built by {!Chaos.harness} (the protocol engine),
    {!Paxos.harness} (Paxos Commit) and [Kv.Chaos_db.harness] (the
    database).  Plans ({!Failure_plan.t}) are the one currency: the
    database harness runs [Failure_plan.to_schedule plan]. *)

type family =
  | Step_crashes
  | Timed_crashes
  | Recoveries
  | Move_crashes
  | Decide_crashes
  | Msg_faults
  | Delay_spikes
  | Stalls
  | Hb_losses
  | Acceptor_crashes
  | Lease_faults
  | Storms
      (** Clause families a mutation ({!Explore.mutate}) may {e add}.
          Partitions, drops and disk faults are deliberately not here:
          they violate the paper's model, so they stay ablation-only. *)

val pp_family : Format.formatter -> family -> unit
val equal_family : family -> family -> bool

val protocol_families : protocol:string -> family list
(** The families a protocol can execute — the complement of
    {!Failure_plan.unsupported_clauses}: 3PC adds move/decide crashes,
    Paxos Commit adds decide crashes, acceptor crashes and lease
    faults. *)

type ('r, 'o) t = {
  name : string;
  n_sites : int;
  horizon : float;  (** time scale mutations draw crash/window times from *)
  families : family list;  (** clause families mutations may add *)
  plan_of_seed : seed:int -> Failure_plan.t;
      (** the harness's seed discipline: the plan its chaos sweep runs
          for [seed] *)
  run :
    ?metrics:Sim.Metrics.t -> ?tracing:bool -> seed:int -> Failure_plan.t -> 'r * ('o * string) list;
      (** One run of the plan under the harness's config, judged by its
          oracles: the result and its violations as (oracle, detail).
          [metrics] receives what the run contributes to a sweep registry;
          [tracing] (default: the config's) keeps the event trace.
          Deterministic in [(seed, plan)]. *)
  fingerprint : 'r -> string list;  (** {!Sim.Coverage} features of a run, for {!Explore} *)
  oracle_name : 'o -> string;
  pp_result : Format.formatter -> 'r -> unit;
  trace : 'r -> Sim.World.trace_entry list;
}

val replay : ('r, 'o) t -> seed:int -> Failure_plan.t -> 'r * ('o * string) list
(** One traced run. *)

val replay_all :
  ?workers:int -> ('r, 'o) t -> Failure_plan.t list -> (Failure_plan.t * ('o * string) list) list
(** Run each plan once, untraced, with seed = its list index, sharded
    across [workers] domains (default 1), and return its violations: the
    regression check of an explore corpus ([skeen explore --replay]). *)

val shrink : ('r, 'o) t -> seed:int -> oracle:'o -> Failure_plan.t -> Failure_plan.t * int
(** Greedy minimisation over [Failure_plan.to_schedule plan]: try every
    single-fault removal, then, fault by fault, one fewer storm wave and
    a rounded time; restart after each candidate that still trips
    [oracle] under the same seed.  Returns the minimal plan and the
    number of re-runs spent.  The re-runs take no metrics registry. *)

type 'o counterexample = {
  cx_oracle : 'o;  (** the oracle the plan was shrunk against: the seed's first violation *)
  cx_plan : Failure_plan.t;  (** shrunk to a local minimum *)
  cx_shrink_runs : int;  (** re-executions spent shrinking *)
  cx_trace : Sim.World.trace_entry list;  (** the minimal plan's traced replay *)
}

type 'o failing = {
  seed : int;
  plan : Failure_plan.t;  (** as the seed drew it *)
  violations : ('o * string) list;
  shrunk : 'o counterexample option;  (** for the first five failing seeds *)
}

type 'o summary = {
  seeds_run : int;
  failing : 'o failing list;  (** every failing seed, in seed order *)
  violations_by_oracle : ('o * int) list;  (** in [compare] order of the oracles *)
  metrics : Sim.Metrics.t;
      (** per-seed registries merged in seed order: [chaos_runs],
          [violations_<oracle>] and what each harness's [run] records,
          plus [shrink_runs] *)
}

val sweep :
  ?seed_base:int -> ?workers:int -> ('r, 'o) t -> seeds:int -> 'o summary
(** Run seeds [seed_base .. seed_base + seeds - 1] (default base 0) on
    [plan_of_seed], sharded across [workers] domains (default 1) via
    {!Sim.Sweep}; only a failing seed's plan and verdicts outlive its
    run.  Then, in seed order, shrink the first five failing seeds
    against their first violation and replay each minimal plan once,
    traced.  The summary, and the deterministic
    projection of [metrics] ({!Sim.Metrics.to_json} [~drop_wall:true]),
    are byte-identical whatever the worker count. *)

val pp_plan : Format.formatter -> Failure_plan.t -> unit
(** {!Failure_plan.to_string}, or ["(no faults)"]. *)

val pp_trace : Format.formatter -> Sim.World.trace_entry list -> unit
val pp_violation : ('r, 'o) t -> Format.formatter -> 'o * string -> unit

val pp_summary : ('r, 'o) t -> Format.formatter -> 'o summary -> unit
(** One line: seed and failing-seed counts, then the violations per
    oracle. *)

val pp_failing : ('r, 'o) t -> Format.formatter -> 'o failing -> unit
(** The seed's violations, then its minimal plan (ready for
    [skeen chaos --plan]) and trace, or its unshrunk plan. *)
