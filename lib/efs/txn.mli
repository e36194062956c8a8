(** EFS transactions.

    A transaction reads and writes whole files; commit installs one new
    immutable version per written file, atomically across files via
    two-phase commit over the files' prepare/commit operations.

    Concurrency control is encapsulated behind {!mode}, exactly as the
    paper promises ("concurrency control will be encapsulated to
    facilitate experimentation with alternate approaches"):

    - {!Locking}: strict two-phase locking.  Reads take shared locks,
      writes exclusive locks, all released after commit or abort.  Lock
      waits carry a timeout; a timeout aborts the transaction, which
      doubles as deadlock resolution.
    - {!Optimistic}: no locks.  Reads record the version seen; commit
      validates that every file read or written is still at the
      recorded version, and aborts on conflict.
    - {!Snapshot}: multiversion isolation, riding EFS's immutable
      version chains.  Reads pin the version current at first access
      and never invalidate the transaction; only the write set is
      validated at commit (first committer wins).  Cheaper than
      {!Optimistic} under read contention, but admits write skew —
      see the corresponding tests.

    All modes validate the observed version of written files at
    prepare time, so mixing modes over one file is still update-safe
    (first committer wins; the loser aborts). *)

open Eden_kernel

type mode = Locking | Optimistic | Snapshot

type t

type outcome = Committed | Conflict | Failed of Error.t

val begin_txn : Cluster.t -> from:int -> mode:mode -> t

val read : t -> Capability.t -> (Value.t, Error.t) result
(** Current contents of a file under this transaction's control.
    Reading a file twice returns the same version's contents. *)

val read_for_update : t -> Capability.t -> (Value.t, Error.t) result
(** Like {!read}, but in {!Locking} mode takes the exclusive lock up
    front.  Use for read-modify-write accesses: a plain {!read}
    followed by {!write} must release and re-take the lock, and the
    upgrade fails with an error if the file changed in the window. *)

val write : t -> Capability.t -> Value.t -> (unit, Error.t) result
(** Buffer new contents for a file (visible to {!read} within this
    transaction).  Installed only at {!commit}. *)

val commit :
  ?replicate_to:int list ->
  ?durable:bool ->
  t ->
  outcome
(** Two-phase commit.  [replicate_to] installs replicas of each new
    version; [durable] (default false) checkpoints each written file
    after commit.  After commit the transaction is finished. *)

val abort : t -> unit
(** Drop buffered writes, release locks.  Idempotent. *)

val lock_timeout_ms : int ref
(** Lock-wait budget for {!Locking} transactions (default 2000). *)
