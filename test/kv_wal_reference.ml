(** {!Kv.Kv_wal}'s log queries as they were first written: each folds
    over [records t], a fresh oldest-first copy of the whole log.  Kept
    as the reference the in-place queries are tested against. *)

open Kv.Kv_wal

let classify_participant t ~txn : p_class =
  List.fold_left
    (fun acc r ->
      match r with
      | P_prepared { txn = x; coordinator; participants; writes; locks } when x = txn ->
          P_in_doubt { coordinator; participants; writes; locks; precommitted = false }
      | P_precommitted { txn = x } when x = txn -> (
          match acc with
          | P_in_doubt d -> P_in_doubt { d with precommitted = true }
          | other -> other)
      | P_outcome { txn = x; commit } when x = txn -> P_resolved commit
      | _ -> acc)
    P_unknown (records t)

let classify_coordinator t ~txn : c_class =
  List.fold_left
    (fun acc r ->
      match (r, acc) with
      | C_begin { txn = x; participants; three_phase }, _ when x = txn ->
          C_collecting { participants; three_phase }
      | C_precommitted { txn = x }, C_collecting { participants; _ } when x = txn ->
          C_in_precommit { participants }
      | C_decided { txn = x; commit }, C_collecting { participants; _ } when x = txn ->
          C_resolved { participants; commit; finished = false }
      | C_decided { txn = x; commit }, C_in_precommit { participants } when x = txn ->
          C_resolved { participants; commit; finished = false }
      | C_finished { txn = x }, C_resolved res when x = txn ->
          C_resolved { res with finished = true }
      | _ -> acc)
    C_unknown (records t)

let coordinated_txns t =
  List.filter_map (function C_begin { txn; _ } -> Some txn | _ -> None) (records t)
  |> List.sort_uniq compare

let acceptor_state t ~txn =
  List.fold_left
    (fun ((promised, accepted) as acc) r ->
      match r with
      | A_promised { txn = x; ballot } when x = txn -> (max promised ballot, accepted)
      | A_accepted { txn = x; ballot; commit } when x = txn ->
          ( max promised ballot,
            match accepted with
            | Some (b, _) when b >= ballot -> accepted
            | _ -> Some (ballot, commit) )
      | _ -> acc)
    (-1, None) (records t)

let participated_txns t =
  List.filter_map (function P_prepared { txn; _ } -> Some txn | _ -> None) (records t)
  |> List.sort_uniq compare
