(** A simulated disk with an explicit sync barrier.

    The model mirrors what a real log device gives a commit protocol:
    [write] lands bytes in a volatile buffer, [sync] is the fsync barrier
    that makes everything written so far durable, and [crash] discards
    whatever the last sync did not cover.  The paper's "write a record in
    stable storage" is therefore [write] + [sync]; a protocol that sends
    messages between the two is exposed to exactly the
    partial-transition states §"Site failures" reasons about.

    Three storage faults can be injected, each keyed to a 0-based
    occurrence index so a schedule replays deterministically:

    - [Torn] (at the disk's nth crash): the unsynced tail is not lost
      cleanly — a strict prefix of it reaches the platter, possibly
      cutting a record in half.
    - [Corrupt] (at the nth crash): the unsynced tail persists in full
      but with a single flipped bit.
    - [Lost_flush] (at the nth sync): the fsync lies.  It reports
      success but the data only reaches the platter at the next
      successful sync; a crash before that loses bytes the caller was
      told were durable.  This violates the paper's stable-storage
      axiom — it exists as an ablation, the storage analogue of message
      drops.

    Randomness (torn prefix length, corrupted bit position) comes from a
    private per-disk stream so arming or firing faults never perturbs
    the simulation's world RNG. *)

type fault = Torn | Corrupt | Lost_flush [@@deriving show { with_path = false }, eq, ord]

type injection = { fault : fault; nth : int } [@@deriving show { with_path = false }, eq, ord]

type stats = {
  mutable writes : int;
  mutable syncs : int;
  mutable crashes : int;
  mutable torn_fired : int;
  mutable corrupt_fired : int;
  mutable lost_flushes : int;
}

type t = {
  durable : Buffer.t;  (** on the platter: survives any crash *)
  limbo : Buffer.t;
      (** acknowledged by a lying sync but still volatile: flushed by the
          next successful sync, lost by a crash *)
  pending : Buffer.t;  (** written, not yet covered by any sync *)
  rng : Rng.t;
  mutable injections : injection list;
  stats : stats;
}

let create ~seed () =
  {
    durable = Buffer.create 256;
    limbo = Buffer.create 16;
    pending = Buffer.create 64;
    rng = Rng.create ~seed;
    injections = [];
    stats =
      { writes = 0; syncs = 0; crashes = 0; torn_fired = 0; corrupt_fired = 0; lost_flushes = 0 };
  }

let set_faults t injections = t.injections <- injections
let stats t = t.stats
let durable_bytes t = Buffer.length t.durable
let pending_bytes t = Buffer.length t.pending
let limbo_bytes t = Buffer.length t.limbo

let write t b =
  t.stats.writes <- t.stats.writes + 1;
  Buffer.add_bytes t.pending b

let sync t =
  let lying =
    List.exists (fun i -> i.fault = Lost_flush && i.nth = t.stats.syncs) t.injections
  in
  t.stats.syncs <- t.stats.syncs + 1;
  if lying then begin
    (* the barrier reports success without reaching the platter: the
       bytes join the limbo the next successful sync will flush *)
    if Buffer.length t.pending > 0 then t.stats.lost_flushes <- t.stats.lost_flushes + 1;
    Buffer.add_buffer t.limbo t.pending;
    Buffer.clear t.pending
  end
  else begin
    Buffer.add_buffer t.durable t.limbo;
    Buffer.clear t.limbo;
    Buffer.add_buffer t.durable t.pending;
    Buffer.clear t.pending
  end

(* what a live reader sees: every acknowledged write, durable or not *)
(* recovery repair: cut the durable image back to its valid prefix so
   later appends land after well-formed frames, not after garbage *)
let truncate t n =
  if n < Buffer.length t.durable then begin
    let b = Buffer.to_bytes t.durable in
    Buffer.clear t.durable;
    Buffer.add_subbytes t.durable b 0 n
  end

let contents t =
  let b = Buffer.create (Buffer.length t.durable + Buffer.length t.limbo + Buffer.length t.pending) in
  Buffer.add_buffer b t.durable;
  Buffer.add_buffer b t.limbo;
  Buffer.add_buffer b t.pending;
  Buffer.to_bytes b

let durable_contents t = Buffer.to_bytes t.durable

let crash t =
  let n = t.stats.crashes in
  t.stats.crashes <- n + 1;
  let tail = Bytes.cat (Buffer.to_bytes t.limbo) (Buffer.to_bytes t.pending) in
  Buffer.clear t.limbo;
  Buffer.clear t.pending;
  let len = Bytes.length tail in
  if len > 0 then
    match
      List.find_opt (fun i -> i.nth = n && (i.fault = Torn || i.fault = Corrupt)) t.injections
    with
    | Some { fault = Torn; _ } ->
        t.stats.torn_fired <- t.stats.torn_fired + 1;
        (* a strict prefix reaches the platter — possibly mid-record *)
        let keep = Rng.int t.rng len in
        Buffer.add_subbytes t.durable tail 0 keep
    | Some { fault = Corrupt; _ } ->
        t.stats.corrupt_fired <- t.stats.corrupt_fired + 1;
        let bit = Rng.int t.rng (len * 8) in
        let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
        Bytes.set tail byte (Char.chr (Char.code (Bytes.get tail byte) lxor mask));
        Buffer.add_bytes t.durable tail
    | _ -> ()

(* ---------------- the record framing over raw bytes ---------------- *)

module Frame = struct
  (* u32-LE payload length, u32-LE CRC-32 of the payload, payload *)

  let header_len = 8
  let max_record = 1 lsl 20

  (* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
     Built at module initialisation, not on first use: parallel sweeps
     call [crc32] from several domains at once, and a [lazy] forced
     concurrently raises [CamlinternalLazy.Undefined]. *)
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)

  let crc32 b ~off ~len =
    let c = ref 0xFFFFFFFFl in
    for i = off to off + len - 1 do
      let idx = Int32.to_int (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) land 0xff in
      c := Int32.logxor (Int32.shift_right_logical !c 8) table.(idx)
    done;
    Int32.logxor !c 0xFFFFFFFFl

  let encode payload =
    let len = Bytes.length payload in
    let out = Bytes.create (header_len + len) in
    Bytes.set_int32_le out 0 (Int32.of_int len);
    Bytes.set_int32_le out 4 (crc32 payload ~off:0 ~len);
    Bytes.blit payload 0 out header_len len;
    out

  type repair = { valid_records : int; dropped_bytes : int; reason : string option }
  [@@deriving show { with_path = false }, eq]

  let clean r = r.reason = None

  (** Scan a raw log image, stopping (and truncating) at the first frame
      that fails validation: a short header, an absurd length, a body
      running past the image, or a checksum mismatch.  Everything before
      the bad frame is returned; [repair] says what was cut and why. *)
  let scan b =
    let total = Bytes.length b in
    let stop off acc n reason =
      (List.rev acc, { valid_records = n; dropped_bytes = total - off; reason = Some reason })
    in
    let rec go off acc n =
      if off = total then (List.rev acc, { valid_records = n; dropped_bytes = 0; reason = None })
      else if total - off < header_len then stop off acc n "torn header"
      else
        let len = Int32.to_int (Bytes.get_int32_le b off) in
        if len < 0 || len > max_record then
          stop off acc n (Fmt.str "absurd record length %d" len)
        else if total - off - header_len < len then stop off acc n "torn record body"
        else
          let stored = Bytes.get_int32_le b (off + 4) in
          let actual = crc32 b ~off:(off + header_len) ~len in
          if not (Int32.equal stored actual) then stop off acc n "checksum mismatch"
          else go (off + header_len + len) (Bytes.sub b (off + header_len) len :: acc) (n + 1)
    in
    go 0 [] 0
end
