(* The benchmark's per-call decomposition of a chaos seed must replay the
   harness's own [run_one]: same schedule, same run, same verdicts.  The
   blocking central-2PC is checked too, so violating seeds go through it. *)

module W = Perfbench.Workloads

let seeds = List.init 60 Fun.id
let off = Perfbench.Tracer.create ~enabled:false

let engine_case protocol () =
  let c = W.engine_chaos ~protocol () in
  let rb = Engine.Rulebook.compile ((Core.Catalog.find protocol).build 3) in
  let merged = Sim.Metrics.create () in
  let violating =
    List.filter
      (fun seed ->
        let o = Engine.Chaos.run_one rb ~k:1 ~seed () in
        let d = c.decompose off ~merged ~seed in
        let oracles =
          List.map (fun (v : Engine.Chaos.violation) -> Engine.Chaos.oracle_name v.oracle) o.violations
        in
        let what = Printf.sprintf "%s seed %d" protocol seed in
        Alcotest.(check (list string)) (what ^ " verdicts") oracles d.oracles;
        Alcotest.(check int) (what ^ " deliveries") o.result.messages_delivered d.messages;
        Alcotest.(check string) (what ^ " plan") (Engine.Failure_plan.to_string o.plan) d.plan_text;
        oracles <> [])
      seeds
  in
  if protocol = "central-2pc" then
    Alcotest.(check bool) "some 2PC seed blocks" true (violating <> [])

let kv_case protocol () =
  let c = W.kv_chaos ~protocol () in
  let kv_protocol = if protocol = "central-2pc" then Kv.Node.Two_phase else Kv.Node.Three_phase in
  let merged = Sim.Metrics.create () in
  let violating =
    List.filter
      (fun seed ->
        let o = Kv.Chaos_db.run_one ~protocol:kv_protocol ~n_sites:4 ~k:1 ~seed () in
        let d = c.decompose off ~merged ~seed in
        let oracles =
          List.map (fun (v : Kv.Chaos_db.violation) -> Kv.Chaos_db.oracle_name v.oracle) o.violations
        in
        let what = Printf.sprintf "kv %s seed %d" protocol seed in
        Alcotest.(check (list string)) (what ^ " verdicts") oracles d.oracles;
        Alcotest.(check int) (what ^ " messages") o.result.messages_sent d.messages;
        Alcotest.(check string)
          (what ^ " plan")
          Engine.Failure_plan.(to_string (of_schedule o.schedule))
          d.plan_text;
        oracles <> [])
      seeds
  in
  if protocol = "central-2pc" then
    Alcotest.(check bool) "some kv 2PC seed blocks" true (violating <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "decomposition replays run_one",
        [
          Alcotest.test_case "engine central-3pc" `Quick (engine_case "central-3pc");
          Alcotest.test_case "engine central-2pc" `Quick (engine_case "central-2pc");
          Alcotest.test_case "kv central-3pc" `Quick (kv_case "central-3pc");
          Alcotest.test_case "kv central-2pc" `Quick (kv_case "central-2pc");
        ] );
    ]
