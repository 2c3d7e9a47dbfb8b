(** Site-local versioned key-value storage.  Writes land only through
    {!apply}, which installs a transaction's write set atomically and
    journals which transaction produced it — the atomicity checker uses
    that journal. *)

type key = string
type t

val create : unit -> t
val get : t -> key -> int option
val get_or : t -> key -> default:int -> int

val load : t -> (key * int) list -> unit
(** Initialise outside any transaction. *)

val apply : t -> txn:int -> (key * int) list -> unit
(** Atomically install a committed write set on behalf of [txn]. *)

val applied_txns : t -> int list
val has_applied : t -> txn:int -> bool

val fold_applied : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Folds over the ids of every applied write set, newest first. *)

val keys : t -> key list
val total : t -> int
(** Sum of all values — the bank-invariant probe. *)
