(** Coverage-guided exploration of the fault-schedule space: a fuzzer
    over {!Failure_plan}s.

    Runs are summarized by {!Sim.Coverage} fingerprints; plans that
    contribute unseen features join a corpus; candidates are mutants of
    corpus entries (add / remove / retime / retarget a fault clause,
    widen a window, splice two plans).  Violations shrink through the
    shared greedy shrinker ({!Harness.shrink}); the corpus persists as
    replayable plan text files.  The whole search is a pure function of
    [(harness, mode, budget, seed)], whatever [workers] is. *)

val mutate :
  Sim.Rng.t ->
  n_sites:int ->
  horizon:float ->
  families:Harness.family list ->
  Failure_plan.t ->
  Failure_plan.t
(** One mutation step: add a random clause from [families], or remove /
    retime / retarget / widen an existing one (via the plan's
    {!Failure_plan.to_schedule} view).  Never introduces a clause family
    outside [families]. *)

val splice : Sim.Rng.t -> Failure_plan.t -> Failure_plan.t -> Failure_plan.t
(** Crossover: an independent coin per parent fault. *)

type bug = {
  bug_oracle : string;  (** the harness's [oracle_name] *)
  bug_detail : string;
  bug_found_at : int;  (** global run index that first tripped it *)
  bug_plan : Failure_plan.t;  (** as found *)
  bug_shrunk : Failure_plan.t;
  bug_shrink_runs : int;
}

type result = {
  harness_name : string;
  mode : [ `Guided | `Random ];
  budget : int;
  runs : int;
  coverage : int;  (** distinct features at the end *)
  features : string list;
  curve : (int * int) list;  (** (runs completed, cumulative coverage) per batch *)
  corpus : (Failure_plan.t * int) list;
      (** admitted plans in admission order, with the novelty each brought *)
  violating_runs : int;
  bugs : bug list;  (** deduplicated, shrunk; at most [max_shrunk] *)
}

val mode_name : [ `Guided | `Random ] -> string

val search :
  ?workers:int ->
  ?batch:int ->
  ?max_shrunk:int ->
  ?seed:int ->
  ?initial:Failure_plan.t list ->
  ?progress:(runs:int -> coverage:int -> bugs:int -> unit) ->
  ('r, 'o) Harness.t ->
  mode:[ `Guided | `Random ] ->
  budget:int ->
  unit ->
  result
(** Run [budget] plans.  [`Guided] mutates the novelty-ranked corpus
    (bootstrapping from [initial] plans, or the harness's seed plans
    while the corpus is empty); [`Random] runs [plan_of_seed] on seeds
    [0 .. budget-1] — the classic sweep as an equal-budget baseline.
    Candidates are derived sequentially from the search rng, evaluated
    (run and fingerprinted) across domains via {!Sim.Sweep.map} in
    batches of [batch] (default 16), and folded in order: the result is
    byte-identical whatever [workers] (default 1) is.  At most
    [max_shrunk] (default 4) distinct violations are shrunk with
    {!Harness.shrink}; [progress] fires after each batch. *)

val save_corpus : dir:string -> result -> unit
(** Write the corpus as [NNN.plan] files (admission order) plus
    [bug-<i>-<oracle>.plan] shrunk violations — each one line of
    {!Failure_plan.to_string}, ready for [--replay] or a pinned test. *)

val load_corpus : dir:string -> (string * Failure_plan.t) list
(** [(filename, plan)] for every [*.plan] file, sorted by name; [[]] if
    [dir] does not exist.
    @raise Failure_plan.Parse_error on a malformed entry. *)
