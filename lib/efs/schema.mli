(** The Eden File System's object types.

    EFS is built {e entirely} on kernel primitives, as the paper's
    software structure requires: files, versions and directories are
    ordinary Eden objects defined by these type managers.

    - [efs_version]: one immutable version of a file's contents.  The
      client freezes each version after creation, which makes versions
      replicable through the kernel's frozen-object machinery.
    - [efs_file]: an appendable chain of version capabilities with a
      current-version pointer, plus the concurrency-control surface
      (shared/exclusive locks for two-phase locking, prepare/commit/
      abort for optimistic validation and two-phase commit).
    - [efs_dir]: a name-to-capability mapping.

    Lock and prepared-transaction state is deliberately kept in
    kernel-supplied short-term facilities (semaphores and ports), never
    in the representation: a crash clears it, exactly as the paper's
    short-term/long-term split prescribes. *)

val empty_file_repr : Eden_kernel.Value.t
(** Initial representation for a fresh [efs_file]. *)

val register : Eden_kernel.Cluster.t -> unit
(** Register all three types with a cluster. *)
