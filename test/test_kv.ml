(** Tests for the database substrate: {!Kv.Storage}, {!Kv.Txn},
    {!Kv.Kv_wal} and {!Kv.Workload}. *)

(* ---------------- Storage ---------------- *)

let test_storage_basic () =
  let s = Kv.Storage.create () in
  Kv.Storage.load s [ ("a", 10); ("b", 20) ];
  Alcotest.(check (option int)) "get a" (Some 10) (Kv.Storage.get s "a");
  Alcotest.(check int) "get_or default" 0 (Kv.Storage.get_or s "zz" ~default:0);
  Alcotest.(check int) "total" 30 (Kv.Storage.total s)

let test_storage_apply () =
  let s = Kv.Storage.create () in
  Kv.Storage.load s [ ("a", 10) ];
  Kv.Storage.apply s ~txn:7 [ ("a", 5); ("c", 1) ];
  Alcotest.(check (option int)) "a overwritten" (Some 5) (Kv.Storage.get s "a");
  Alcotest.(check (option int)) "c created" (Some 1) (Kv.Storage.get s "c");
  Alcotest.(check bool) "txn journaled" true (Kv.Storage.has_applied s ~txn:7);
  Alcotest.(check bool) "other txn absent" false (Kv.Storage.has_applied s ~txn:8);
  Alcotest.(check (list int)) "applied txns" [ 7 ] (Kv.Storage.applied_txns s)

(* ---------------- Txn ---------------- *)

let test_txn_partitioning () =
  let n_sites = 4 in
  let keys = List.init 50 (fun i -> Kv.Workload.key_name i) in
  List.iter
    (fun k ->
      let o = Kv.Txn.owner ~n_sites k in
      Alcotest.(check bool) "owner in range" true (o >= 1 && o <= n_sites))
    keys

let test_txn_participants () =
  let n_sites = 3 in
  let t = { Kv.Txn.id = 1; ops = [ Kv.Txn.Get "x"; Kv.Txn.Put ("y", 1); Kv.Txn.Add ("x", 2) ] } in
  let ps = Kv.Txn.participants ~n_sites t in
  Alcotest.(check bool) "sorted unique" true (List.sort_uniq compare ps = ps);
  Alcotest.(check int) "coordinator owns first key" (Kv.Txn.owner ~n_sites "x")
    (Kv.Txn.coordinator ~n_sites t)

let prop_ops_for_partitions =
  Helpers.qtest "ops_for partitions the operation list"
    QCheck2.Gen.(
      pair (int_range 2 6)
        (list_size (int_range 1 10)
           (map (fun i -> Kv.Txn.Add (Kv.Workload.key_name i, 1)) (int_range 0 40))))
    (fun (n_sites, ops) ->
      let t = { Kv.Txn.id = 1; ops } in
      let scattered =
        List.concat_map
          (fun site -> Kv.Txn.ops_for ~n_sites t ~site)
          (List.init n_sites (fun i -> i + 1))
      in
      List.sort compare scattered = List.sort compare ops)

let test_txn_empty_coordinator () =
  Alcotest.check_raises "empty transaction" (Invalid_argument "Txn.coordinator: empty transaction")
    (fun () -> ignore (Kv.Txn.coordinator ~n_sites:3 { Kv.Txn.id = 1; ops = [] }))

(* ---------------- Kv_wal ---------------- *)

let test_kv_wal_participant_classification () =
  let w = Kv.Kv_wal.create () in
  Alcotest.(check bool) "unknown before logging" true
    (Kv.Kv_wal.classify_participant w ~txn:1 = Kv.Kv_wal.P_unknown);
  Kv.Kv_wal.append w
    (Kv.Kv_wal.P_prepared
       { txn = 1; coordinator = 2; participants = [ 1; 2 ]; writes = [ ("k", 5) ]; locks = [] });
  (match Kv.Kv_wal.classify_participant w ~txn:1 with
  | Kv.Kv_wal.P_in_doubt { coordinator; precommitted; writes; _ } ->
      Alcotest.(check int) "coordinator" 2 coordinator;
      Alcotest.(check bool) "not precommitted" false precommitted;
      Alcotest.(check (list (pair string int))) "writes" [ ("k", 5) ] writes
  | _ -> Alcotest.fail "expected in-doubt");
  Kv.Kv_wal.append w (Kv.Kv_wal.P_precommitted { txn = 1 });
  (match Kv.Kv_wal.classify_participant w ~txn:1 with
  | Kv.Kv_wal.P_in_doubt { precommitted = true; _ } -> ()
  | _ -> Alcotest.fail "expected precommitted in-doubt");
  Kv.Kv_wal.append w (Kv.Kv_wal.P_outcome { txn = 1; commit = true });
  Alcotest.(check bool) "resolved commit" true
    (Kv.Kv_wal.classify_participant w ~txn:1 = Kv.Kv_wal.P_resolved true)

let test_kv_wal_coordinator_classification () =
  let w = Kv.Kv_wal.create () in
  Kv.Kv_wal.append w (Kv.Kv_wal.C_begin { txn = 4; participants = [ 1; 2 ]; three_phase = true });
  (match Kv.Kv_wal.classify_coordinator w ~txn:4 with
  | Kv.Kv_wal.C_collecting { three_phase = true; _ } -> ()
  | _ -> Alcotest.fail "expected collecting");
  Kv.Kv_wal.append w (Kv.Kv_wal.C_precommitted { txn = 4 });
  (match Kv.Kv_wal.classify_coordinator w ~txn:4 with
  | Kv.Kv_wal.C_in_precommit _ -> ()
  | _ -> Alcotest.fail "expected in-precommit");
  Kv.Kv_wal.append w (Kv.Kv_wal.C_decided { txn = 4; commit = true });
  (match Kv.Kv_wal.classify_coordinator w ~txn:4 with
  | Kv.Kv_wal.C_resolved { commit = true; finished = false; _ } -> ()
  | _ -> Alcotest.fail "expected resolved");
  Kv.Kv_wal.append w (Kv.Kv_wal.C_finished { txn = 4 });
  match Kv.Kv_wal.classify_coordinator w ~txn:4 with
  | Kv.Kv_wal.C_resolved { finished = true; _ } -> ()
  | _ -> Alcotest.fail "expected finished"

let test_kv_wal_txn_listing () =
  let w = Kv.Kv_wal.create () in
  Kv.Kv_wal.append w (Kv.Kv_wal.C_begin { txn = 1; participants = []; three_phase = false });
  Kv.Kv_wal.append w
    (Kv.Kv_wal.P_prepared { txn = 2; coordinator = 1; participants = []; writes = []; locks = [] });
  Alcotest.(check (list int)) "coordinated" [ 1 ] (Kv.Kv_wal.coordinated_txns w);
  Alcotest.(check (list int)) "participated" [ 2 ] (Kv.Kv_wal.participated_txns w)

(* The in-place log queries against their first, copying versions
   ({!Kv_wal_reference}), on random logs over four txn ids.  Every log
   holds one txn prepared twice, around arbitrary other records, so
   repeated ids and re-prepared txns are always present. *)
let prop_kv_wal_queries_match_reference =
  let module KW = Kv.Kv_wal in
  let open QCheck2.Gen in
  let txn = int_range 0 3 in
  let site = int_range 1 4 in
  let prepared t =
    let* c = site and* ps = small_list site and* v = int_range (-5) 5 in
    return
      (KW.P_prepared
         { txn = t; coordinator = c; participants = ps; writes = [ ("k", v) ];
           locks = [ ("k", Kv.Lock_table.Exclusive) ] })
  in
  let record =
    oneof
      [
        txn >>= prepared;
        map (fun t -> KW.P_precommitted { txn = t }) txn;
        map2 (fun t c -> KW.P_outcome { txn = t; commit = c }) txn bool;
        (let* t = txn and* ps = small_list site and* three_phase = bool in
         return (KW.C_begin { txn = t; participants = ps; three_phase }));
        map (fun t -> KW.C_precommitted { txn = t }) txn;
        map2 (fun t c -> KW.C_decided { txn = t; commit = c }) txn bool;
        map (fun t -> KW.C_finished { txn = t }) txn;
        map2 (fun t b -> KW.A_promised { txn = t; ballot = b }) txn (int_range 0 3);
        (let* t = txn and* b = int_range 0 3 and* c = bool in
         return (KW.A_accepted { txn = t; ballot = b; commit = c }));
      ]
  in
  let log =
    let* t = txn in
    let* first = prepared t and* again = prepared t in
    let* a = list_size (int_range 0 15) record
    and* b = list_size (int_range 0 15) record
    and* c = list_size (int_range 0 15) record in
    return (a @ [ first ] @ b @ [ again ] @ c)
  in
  Helpers.qtest ~count:500 "kv_wal queries = copying reference" log (fun records ->
      let w = KW.create ~durable:false () in
      List.iter (KW.append w) records;
      KW.coordinated_txns w = Kv_wal_reference.coordinated_txns w
      && KW.participated_txns w = Kv_wal_reference.participated_txns w
      && List.for_all
           (fun txn ->
             KW.classify_participant w ~txn = Kv_wal_reference.classify_participant w ~txn
             && KW.classify_coordinator w ~txn = Kv_wal_reference.classify_coordinator w ~txn
             && KW.acceptor_state w ~txn = Kv_wal_reference.acceptor_state w ~txn)
           [ -1; 0; 1; 2; 3; 4 ])

(* ---------------- Workload ---------------- *)

let test_workload_mixed_properties () =
  let rng = Sim.Rng.create ~seed:5 in
  let wl = Kv.Workload.mixed rng Kv.Workload.default_spec in
  Alcotest.(check int) "count" Kv.Workload.default_spec.Kv.Workload.n_txns (List.length wl);
  let times = List.map fst wl in
  Alcotest.(check bool) "arrivals increase" true (List.sort compare times = times);
  let ids = List.map (fun (_, t) -> t.Kv.Txn.id) wl in
  Alcotest.(check bool) "ids unique" true (List.sort_uniq compare ids = List.sort compare ids)

let test_workload_bank_conservation () =
  let rng = Sim.Rng.create ~seed:5 in
  let wl = Kv.Workload.bank rng ~n_txns:100 ~accounts:16 ~arrival_rate:1.0 in
  List.iter
    (fun (_, t) ->
      let delta =
        List.fold_left
          (fun acc op -> match op with Kv.Txn.Add (_, d) -> acc + d | _ -> acc)
          0 t.Kv.Txn.ops
      in
      Alcotest.(check int) "transfer sums to zero" 0 delta;
      Alcotest.(check int) "two ops" 2 (List.length t.Kv.Txn.ops))
    wl

let test_workload_zipf_skew () =
  let rng = Sim.Rng.create ~seed:5 in
  let spec = { Kv.Workload.default_spec with Kv.Workload.zipf_skew = 1.2; n_txns = 300 } in
  let wl = Kv.Workload.mixed rng spec in
  (* hot keys: key 0 should appear far more often than key 50 *)
  let count k =
    List.length
      (List.filter
         (fun (_, t) -> List.exists (fun op -> Kv.Txn.key_of_op op = Kv.Workload.key_name k) t.Kv.Txn.ops)
         wl)
  in
  Alcotest.(check bool) "skew concentrates on low keys" true (count 0 > count 50)

let suite =
  [
    Alcotest.test_case "storage basics" `Quick test_storage_basic;
    Alcotest.test_case "storage apply journal" `Quick test_storage_apply;
    Alcotest.test_case "key partitioning" `Quick test_txn_partitioning;
    Alcotest.test_case "participants and coordinator" `Quick test_txn_participants;
    prop_ops_for_partitions;
    Alcotest.test_case "empty transaction rejected" `Quick test_txn_empty_coordinator;
    Alcotest.test_case "participant log classification" `Quick test_kv_wal_participant_classification;
    Alcotest.test_case "coordinator log classification" `Quick test_kv_wal_coordinator_classification;
    Alcotest.test_case "log transaction listing" `Quick test_kv_wal_txn_listing;
    prop_kv_wal_queries_match_reference;
    Alcotest.test_case "mixed workload properties" `Quick test_workload_mixed_properties;
    Alcotest.test_case "bank transfers conserve money" `Quick test_workload_bank_conservation;
    Alcotest.test_case "zipf skew" `Quick test_workload_zipf_skew;
  ]
