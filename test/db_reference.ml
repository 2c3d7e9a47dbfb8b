(** The post-run checks of {!Kv.Db.run} as they were first written: list
    scans that rescan a whole log or applied-write journal per
    transaction, quadratic in the run's length.  Kept as the reference
    the indexed checks are tested against. *)

type checks = {
  fates : (int * Kv.Db.txn_fate) list;
  outcome_contradiction : bool;
  missing_applied : (int * Core.Types.site * Core.Types.site list) list;
  in_doubt : (Core.Types.site * int * Core.Types.site list) list;
  durability_breaches : (Core.Types.site * int * string) list;
}

let checks (final : Kv.Db.final_state) =
  let module Node = Kv.Node in
  let module Kv_wal = Kv.Kv_wal in
  let module Txn = Kv.Txn in
  let open Kv.Db in
  let workload = final.workload in
  let nodes = final.nodes in
  let fate_tbl : (int, txn_fate) Hashtbl.t = Hashtbl.create 64 in
  let contradiction = ref false in
  let note txn fate =
    match Hashtbl.find_opt fate_tbl txn with
    | None -> Hashtbl.replace fate_tbl txn fate
    | Some f when f = fate -> ()
    | Some Fate_pending -> Hashtbl.replace fate_tbl txn fate
    | Some _ when fate = Fate_pending -> ()
    | Some _ -> contradiction := true
  in
  List.iter (fun (_, txn) -> note txn.Txn.id Fate_pending) workload;
  Array.iter
    (fun (n : Node.t) ->
      List.iter
        (fun r ->
          match r with
          | Kv_wal.C_decided { txn; commit } | Kv_wal.P_outcome { txn; commit } ->
              note txn (if commit then Fate_committed else Fate_aborted)
          | _ -> ())
        (Kv_wal.records n.Node.wal))
    nodes;
  let missing_applied = ref [] in
  Hashtbl.iter
    (fun txn fate ->
      if fate = Fate_committed then
        match List.find_opt (fun (_, t) -> t.Txn.id = txn) workload with
        | None -> ()
        | Some (_, t) ->
            let participants = Txn.participants ~n_sites:final.n_sites t in
            List.iter
              (fun site ->
                if
                  final.alive site
                  && Txn.ops_for ~n_sites:final.n_sites t ~site
                     |> List.exists (function Txn.Put _ | Txn.Add _ -> true | Txn.Get _ -> false)
                  && not (Kv.Storage.has_applied nodes.(site - 1).Node.storage ~txn)
                then missing_applied := (txn, site, participants) :: !missing_applied)
              participants)
    fate_tbl;
  let missing_applied = List.sort compare !missing_applied in
  let fates =
    Hashtbl.fold (fun txn fate acc -> (txn, fate) :: acc) fate_tbl [] |> List.sort compare
  in
  let in_doubt =
    Array.to_list nodes
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
  in
  let durability_breaches =
    Array.to_list nodes
    |> List.concat_map (fun (n : Node.t) ->
           let recs = Kv_wal.records n.Node.wal in
           let unjustified_votes =
             Hashtbl.fold
               (fun txn () acc ->
                 if
                   List.exists
                     (function Kv_wal.P_prepared { txn = x; _ } -> x = txn | _ -> false)
                     recs
                 then acc
                 else
                   (n.Node.site, txn, "yes vote on the wire with no prepared record on the log")
                   :: acc)
               n.Node.sent_yes_txns []
           in
           let contradicted_announcements =
             Hashtbl.fold
               (fun txn commit acc ->
                 let opposite =
                   List.exists
                     (function
                       | Kv_wal.C_decided { txn = x; commit = c }
                       | Kv_wal.P_outcome { txn = x; commit = c } ->
                           x = txn && c <> commit
                       | _ -> false)
                     recs
                 in
                 if opposite then
                   ( n.Node.site,
                     txn,
                     Printf.sprintf "announced %s but the log resolved the other way"
                       (if commit then "commit" else "abort") )
                   :: acc
                 else acc)
               n.Node.announced_outcomes []
           in
           unjustified_votes @ contradicted_announcements)
    |> List.sort_uniq compare
  in
  { fates; outcome_contradiction = !contradiction; missing_applied; in_doubt; durability_breaches }
