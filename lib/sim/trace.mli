(** Structured trace events.

    Components emit categorised trace records into a bounded ring;
    tests read the ring to observe internal behaviour without widening
    public interfaces, and the CLI can dump the tail of a run.  Tracing
    is off by default.  While it is off nothing is formatted or
    recorded, but the caller still evaluates every argument it passes,
    so a site whose arguments cost something to compute checks
    {!enabled} first or passes the value to a [%a] printer. *)

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

val emitf :
  t ->
  Eden_util.Time.t ->
  category ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted emission; nothing is formatted while tracing is disabled
    (the caller has already evaluated the arguments). *)

val recent : t -> record list
(** Oldest first, up to [keep] records. *)

val pp_record : Format.formatter -> record -> unit
