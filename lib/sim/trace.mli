(** Structured trace events.

    Components emit categorised trace records into a bounded ring;
    tests read the ring and the per-category counts to observe
    internal behaviour without widening public interfaces, and the CLI
    can dump the tail of a run.  Tracing is off by default and
    costs one branch when disabled. *)

type category =
  | Sim  (** engine-level: spawn, kill *)
  | Net  (** frames, collisions, backoff *)
  | Kern  (** invocation path, dispatch *)
  | Store  (** checkpoint and reincarnation *)
  | Move  (** mobility and replication *)
  | Efs  (** file system and transactions *)
  | App  (** examples and workloads *)

type record = {
  time : Eden_util.Time.t;
  category : category;
  message : string;
}

type t

val create : ?keep:int -> unit -> t
(** Retain the last [keep] records (default 4096). *)

val enable : t -> unit
val enabled : t -> bool

val emit : t -> Eden_util.Time.t -> category -> string -> unit
(** No-op while disabled. *)

val emitf :
  t ->
  Eden_util.Time.t ->
  category ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted emission; the format arguments are not evaluated while
    tracing is disabled. *)

val recent : t -> record list
(** Oldest first, up to [keep] records. *)

val count : t -> category -> int
(** Records emitted in this category (including evicted ones). *)

val total : t -> int
val clear : t -> unit
(** Drop retained records and counters. *)

val category_name : category -> string
val pp_record : Format.formatter -> record -> unit
