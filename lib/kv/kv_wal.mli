(** The database write-ahead log: per-site stable storage for the commit
    path, with forced records at every protocol boundary.  Records are
    serialized through a binary codec, framed by {!Sim.Disk.Frame}, and
    written to a simulated disk — [append] alone is not durable until the
    next [sync]; crash recovery replays the durable image, truncating at
    the first invalid frame. *)

type record =
  | P_prepared of {
      txn : int;
      coordinator : Core.Types.site;
      participants : Core.Types.site list;
      writes : (string * int) list;
      locks : (string * Lock_table.mode) list;
    }
  | P_precommitted of { txn : int }
  | P_outcome of { txn : int; commit : bool }
  | C_begin of { txn : int; participants : Core.Types.site list; three_phase : bool }
  | C_precommitted of { txn : int }
  | C_decided of { txn : int; commit : bool }
  | C_finished of { txn : int }
  | A_promised of { txn : int; ballot : int }
      (** Paxos-Commit acceptor: promised not to accept below [ballot] *)
  | A_accepted of { txn : int; ballot : int; commit : bool }
      (** Paxos-Commit acceptor: accepted the outcome at [ballot] *)

val pp_record : Format.formatter -> record -> unit
val show_record : record -> string
val equal_record : record -> record -> bool

val to_bytes : record -> Bytes.t
(** The on-disk payload (framing is {!Sim.Disk.Frame}'s job). *)

val of_bytes : Bytes.t -> (record, string) result
(** Total inverse of {!to_bytes}: [of_bytes (to_bytes r) = Ok r]; any
    truncated or mangled payload is an [Error], never an exception. *)

type repair = {
  survived : int;
  lost_records : int;
  dropped_bytes : int;
  reason : string option;
}

val pp_repair : Format.formatter -> repair -> unit
val show_repair : repair -> string
val equal_repair : repair -> repair -> bool

type t

(** Group-commit knobs: at most [max_batch] records per shared sync, at
    most [max_wait] simulated seconds of waiting for stragglers while the
    device is idle. *)
type group_commit = Sim.Batch.group = { max_batch : int; max_wait : float }

val create :
  ?seed:int -> ?durable:bool -> ?group_commit:group_commit -> ?sync_latency:float -> unit -> t
(** [durable:false] is the in-memory log (sync free, crash lossless),
    kept as the benchmark baseline.  [seed] feeds only the disk's private
    fault stream.  [group_commit] coalesces concurrent {!force_k} calls
    into shared syncs; [sync_latency] charges simulated seconds per sync
    (the cost group commit amortizes).  With neither (the default) every
    force is a synchronous sync and all prior behaviour is byte-
    identical. *)

val attach :
  ?on_drain:(unit -> unit) ->
  t ->
  metrics:Sim.Metrics.t ->
  schedule:(float -> (unit -> unit) -> unit) ->
  unit
(** Wire the log into a run: forces count into [metrics] (wal_forces,
    wal_group_flushes, group_batch_size) and deferred flushes ride
    [schedule] — pass a site-bound timer so pending batches die with the
    site.  [on_drain] fires after each batch's callbacks complete (the
    pipelining admission gate refills there). *)

val append : t -> record -> unit
(** Volatile until the next {!sync}. *)

val sync : t -> unit

val force : t -> record -> unit
(** [append] + [sync]: the paper's "force a record to stable storage".
    With a batcher armed, flushes through synchronously (draining the
    queue ahead of it first). *)

val force_k : t -> record -> (unit -> unit) -> unit
(** Asynchronous force: append now, run the callback once the record is
    on stable storage.  Equals [force t r; k ()] on the fast path; under
    group commit / sync latency the callback waits for the covering
    batch, and a crash in between loses both record and callback. *)

val after_durable : t -> (unit -> unit) -> unit
(** Run the callback once everything appended so far is durable —
    immediately when nothing is pending.  For reply-from-log paths that
    must not expose a not-yet-durable record. *)

val pending_forces : t -> int
(** Forces whose completion callback has not yet fired. *)

val crash : t -> repair option
(** Lose the unsynced tail (with whatever storage faults are armed) and
    rebuild the in-memory view from the repaired durable image.
    [Some repair] iff anything was lost. *)

val set_faults : t -> Sim.Disk.injection list -> unit
val disk : t -> Sim.Disk.t option

val repairs : t -> repair list
(** Oldest first; one entry per crash that lost records or bytes. *)

val records : t -> record list
(** Oldest first; a fresh copy of the log. *)

val length : t -> int

val fold_newest_first : ('a -> record -> 'a) -> 'a -> t -> 'a
(** [fold_newest_first f init t] is
    [List.fold_left f init (List.rev (records t))], without copying the
    log. *)

(** Participant-side classification of a transaction from the log. *)
type p_class =
  | P_unknown  (** nothing logged: crashed before voting — unilateral abort *)
  | P_in_doubt of {
      coordinator : Core.Types.site;
      participants : Core.Types.site list;
      writes : (string * int) list;
      locks : (string * Lock_table.mode) list;
      precommitted : bool;
    }
  | P_resolved of bool

val classify_participant : t -> txn:int -> p_class

(** Coordinator-side classification. *)
type c_class =
  | C_unknown
  | C_collecting of { participants : Core.Types.site list; three_phase : bool }
  | C_in_precommit of { participants : Core.Types.site list }
  | C_resolved of { participants : Core.Types.site list; commit : bool; finished : bool }

val classify_coordinator : t -> txn:int -> c_class
val coordinated_txns : t -> int list
val participated_txns : t -> int list

val acceptor_state : t -> txn:int -> int * (int * bool) option
(** Paxos-Commit acceptor state for the transaction: (highest ballot
    promised or accepted, highest accepted (ballot, outcome)).  [-1]
    when nothing was promised — every ballot outranks it. *)
