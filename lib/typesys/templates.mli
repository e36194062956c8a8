(** Standard object templates.

    "Many type programmers in Eden will not be concerned with these
    details, because language subsystems will provide standard object
    templates" (paper §4.1).  This module is that subsystem: ready-made
    type managers for common abstractions, and wrappers that graft a
    reliability or observability policy onto any existing type.

    All templates speak {!Eden_kernel.Value} for their payloads. *)

open Eden_kernel

(** {1 Ready-made types} *)

val register_type : name:string -> Typemgr.t
(** A mutable cell.  Operations:
    ["read"] [] -> [v]; ["write"] [v] -> [] (requires [Aux 0]). *)

val queue_type : name:string -> Typemgr.t
(** A FIFO queue (single invocation class, limit 1: operations are
    serialised).  Operations:
    ["enqueue"] [v] -> []; ["dequeue"] [] -> [v] (User_error when
    empty); ["peek"] [] -> [v]; ["length"] [] -> [Int]. *)

val kv_type : name:string -> Typemgr.t
(** A key-value store over string keys.  Operations:
    ["put"] [Str k; v] -> []; ["get"] [Str k] -> [v] (User_error when
    absent); ["delete"] [Str k] -> []; ["keys"] [] -> [List of Str];
    ["size"] [] -> [Int]. *)

(** {1 Policy wrappers} *)

val with_auto_checkpoint : every:int -> Typemgr.t -> Typemgr.t
(** Wrap every mutating operation so that after each [every]-th
    successful mutation the object checkpoints itself — the standard
    reliability template.  Requires [every >= 1].  The count is
    short-term state: it restarts at zero on reincarnation. *)

val with_operation_log : Typemgr.t -> Typemgr.t
(** Wrap every operation to [Api.ctx.log] its name and outcome on
    completion (a [Log] journal event) — the standard observability
    template. *)
