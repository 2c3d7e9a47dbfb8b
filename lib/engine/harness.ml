(** One interface for every chaos harness — the protocol engine
    ({!Chaos.harness}), Paxos Commit ({!Paxos.harness}) and the database
    ([Kv.Chaos_db.harness]) — and the code written once against it: the
    greedy shrinker, the seed sweep and the traced replay.  The
    coverage-guided explorer ({!Explore}) searches through the same
    record.

    Plans ({!Failure_plan.t}) are the one currency: a seed draws a plan,
    a run executes one, a counterexample is one, printed in the
    {!Failure_plan.to_string} syntax that [skeen chaos --plan] reads
    back. *)

module N = Sim.Nemesis

(* ------------------------------------------------------------------ *)
(* Clause families a mutation may add.  Partitions, message drops and
   disk faults are deliberately absent: they violate the paper's model,
   so a violation found through them would be an ablation finding, not
   a protocol bug.  Mutations never introduce a family outside the
   harness's list, which is what keeps [Failure_plan.unsupported_clauses]
   empty across a whole search (property-tested). *)

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
[@@deriving show { with_path = false }, eq]

let protocol_families ~protocol =
  let is_3pc = Failure_plan.is_3pc protocol and is_paxos = Failure_plan.is_paxos protocol in
  [ Step_crashes; Timed_crashes; Recoveries; Msg_faults; Delay_spikes; Stalls; Hb_losses; Storms ]
  @ (if is_3pc then [ Move_crashes; Decide_crashes ] else [])
  @ if is_paxos then [ Decide_crashes; Acceptor_crashes; Lease_faults ] else []

(* ------------------------------------------------------------------ *)

type ('r, 'o) t = {
  name : string;
  n_sites : int;
  horizon : float;
  families : family list;
  plan_of_seed : seed:int -> Failure_plan.t;
  run :
    ?metrics:Sim.Metrics.t -> ?tracing:bool -> seed:int -> Failure_plan.t -> 'r * ('o * string) list;
  fingerprint : 'r -> string list;
  oracle_name : 'o -> string;
  pp_result : Format.formatter -> 'r -> unit;
  trace : 'r -> Sim.World.trace_entry list;
}

let replay h ~seed plan = h.run ~tracing:true ~seed plan

let replay_all ?(workers = 1) h plans =
  let arr = Array.of_list plans in
  let verdicts =
    Sim.Sweep.map ~workers ~seeds:(Array.length arr) (fun ~seed -> snd (h.run ~seed arr.(seed)))
  in
  List.mapi (fun i plan -> (plan, verdicts.(i))) plans

(* ---------------- shrinking ---------------- *)

let remove_nth i l = List.filteri (fun j _ -> j <> i) l

(* Per fault, in schedule order, the simplifications short of removing
   it: round every non-integral time, so the minimal counterexample
   reads "crash site=1 at=2" rather than "at=2.0386..."; a storm first
   loses a wave, then rounds its start (period and down stay put —
   rounding them could break the down < period invariant). *)
let round_candidates (schedule : N.schedule) =
  let non_integral x = Float.round x <> x in
  List.concat
    (List.mapi
       (fun i fault ->
         let replace f' = List.mapi (fun j f -> if j = i then f' else f) schedule in
         match fault with
         | N.Crash { site; at } when non_integral at -> [ replace (N.Crash { site; at = Float.round at }) ]
         | N.Recover { site; at } when non_integral at ->
             [ replace (N.Recover { site; at = Float.round at }) ]
         | N.Partition { from_t; until_t; groups } when non_integral from_t || non_integral until_t ->
             [
               replace
                 (N.Partition { from_t = Float.round from_t; until_t = Float.round until_t; groups });
             ]
         | N.Msg { nth; fault = Sim.World.Fault_delay d } when non_integral d ->
             [ replace (N.Msg { nth; fault = Sim.World.Fault_delay (Float.max 1.0 (Float.round d)) }) ]
         | N.Delay_window { site; from_t; until_t; extra }
           when non_integral from_t || non_integral until_t || non_integral extra ->
             [
               replace
                 (N.Delay_window
                    {
                      site;
                      from_t = Float.round from_t;
                      until_t = Float.round until_t;
                      extra = Float.max 1.0 (Float.round extra);
                    });
             ]
         | N.Stall { site; from_t; until_t } when non_integral from_t || non_integral until_t ->
             [ replace (N.Stall { site; from_t = Float.round from_t; until_t = Float.round until_t }) ]
         | N.Hb_loss { site; from_t; until_t } when non_integral from_t || non_integral until_t ->
             [ replace (N.Hb_loss { site; from_t = Float.round from_t; until_t = Float.round until_t }) ]
         | N.Acceptor_crash { site; at } when non_integral at ->
             [ replace (N.Acceptor_crash { site; at = Float.round at }) ]
         | N.Lease_fault { at } when non_integral at -> [ replace (N.Lease_fault { at = Float.round at }) ]
         | N.Storm { site; first; waves; period; down } ->
             (if waves > 1 then [ replace (N.Storm { site; first; waves = waves - 1; period; down }) ]
              else [])
             @
             if non_integral first then
               [ replace (N.Storm { site; first = Float.round first; waves; period; down }) ]
             else []
         | _ -> [])
       schedule)

(* Greedy over the plan's schedule view: try every single removal, then
   every simplification, and restart from the first candidate that
   still trips [oracle]. *)
let shrink h ~seed ~oracle plan =
  let runs = ref 0 in
  let still_fails candidate =
    incr runs;
    let _, vs = h.run ~seed (Failure_plan.of_schedule candidate) in
    List.exists (fun (o, _) -> o = oracle) vs
  in
  let rec reduce current =
    let removals = List.mapi (fun i _ -> remove_nth i current) current in
    match List.find_opt still_fails removals with
    | Some smaller -> reduce smaller
    | None -> (
        match List.find_opt still_fails (round_candidates current) with
        | Some rounded -> reduce rounded
        | None -> current)
  in
  let minimal = reduce (Failure_plan.to_schedule plan) in
  (Failure_plan.of_schedule minimal, !runs)

(* ---------------- seed sweeps ---------------- *)

type 'o counterexample = {
  cx_oracle : 'o;
  cx_plan : Failure_plan.t;
  cx_shrink_runs : int;
  cx_trace : Sim.World.trace_entry list;
}

type 'o failing = {
  seed : int;
  plan : Failure_plan.t;
  violations : ('o * string) list;
  shrunk : 'o counterexample option;
}

type 'o summary = {
  seeds_run : int;
  failing : 'o failing list;
  violations_by_oracle : ('o * int) list;
  metrics : Sim.Metrics.t;
}

let counterexample h ~seed ~oracle plan =
  let cx_plan, cx_shrink_runs = shrink h ~seed ~oracle plan in
  let result, _ = replay h ~seed cx_plan in
  { cx_oracle = oracle; cx_plan; cx_shrink_runs; cx_trace = h.trace result }

(* [(x, count)] for each distinct [x], in [compare] order *)
let tally xs =
  List.fold_left
    (fun acc x ->
      match acc with (y, c) :: rest when y = x -> (y, c + 1) :: rest | _ -> (x, 1) :: acc)
    [] (List.sort compare xs)
  |> List.rev

(* Failing seeds past this many are listed but not shrunk. *)
let max_counterexamples = 5

let sweep ?(seed_base = 0) ?(workers = 1) h ~seeds =
  (* Phase 1, sharded across domains: each seed runs in full isolation
     (its own World, Metrics registry and Rng stream), and only a failing
     seed's plan and verdicts outlive its run. *)
  let runs, metrics =
    Sim.Sweep.sweep ~workers ~seed_base ~seeds (fun ~metrics ~seed ->
        let plan = h.plan_of_seed ~seed in
        Sim.Metrics.incr metrics "chaos_runs";
        let _, violations = h.run ~metrics ~seed plan in
        List.iter
          (fun (o, _) -> Sim.Metrics.incr metrics ("violations_" ^ h.oracle_name o))
          violations;
        if violations = [] then None else Some (seed, plan, violations))
  in
  (* Phase 2, sequential in seed order: shrink the first
     [max_counterexamples] failing seeds against their first violation —
     the same selection and results whatever the worker count. *)
  let failing =
    List.filter_map Fun.id (Array.to_list runs)
    |> List.mapi (fun i (seed, plan, violations) ->
           let shrunk =
             if i >= max_counterexamples then None
             else begin
               let cx = counterexample h ~seed ~oracle:(fst (List.hd violations)) plan in
               Sim.Metrics.incr ~by:cx.cx_shrink_runs metrics "shrink_runs";
               Some cx
             end
           in
           { seed; plan; violations; shrunk })
  in
  {
    seeds_run = seeds;
    failing;
    violations_by_oracle = tally (List.concat_map (fun f -> List.map fst f.violations) failing);
    metrics;
  }

(* ---------------- printing ---------------- *)

let pp_plan ppf plan =
  Fmt.string ppf (match Failure_plan.to_string plan with "" -> "(no faults)" | s -> s)

let pp_trace ppf trace =
  Fmt.list ~sep:Fmt.cut (fun ppf (e : Sim.World.trace_entry) -> Fmt.pf ppf "%8.2f  %s" e.at e.what) ppf
    trace

let pp_violation h ppf (o, detail) = Fmt.pf ppf "%s violation: %s" (h.oracle_name o) detail

let pp_summary h ppf s =
  Fmt.pf ppf "%d seed(s), %d failing%a" s.seeds_run (List.length s.failing)
    (Fmt.list ~sep:Fmt.nop (fun ppf (o, c) -> Fmt.pf ppf ", %d %s" c (h.oracle_name o)))
    s.violations_by_oracle

let pp_failing h ppf f =
  Fmt.pf ppf "@[<v>seed %d:%a@," f.seed
    (Fmt.list ~sep:Fmt.nop (fun ppf v -> Fmt.pf ppf "@,  %a" (pp_violation h) v))
    f.violations;
  match f.shrunk with
  | None -> Fmt.pf ppf "plan (not shrunk): %a@]" pp_plan f.plan
  | Some cx ->
      Fmt.pf ppf "shrunk %d -> %d fault(s) against %s in %d re-run(s)@,plan: %a@,trace:@,%a@]"
        (Failure_plan.fault_count f.plan)
        (Failure_plan.fault_count cx.cx_plan)
        (h.oracle_name cx.cx_oracle) cx.cx_shrink_runs pp_plan cx.cx_plan pp_trace cx.cx_trace
