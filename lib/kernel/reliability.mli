(** Reliability levels for long-term state.

    The paper's [checksite] primitive lets an object choose "which node
    is responsible for maintaining its long-term storage, and what
    level of reliability is required"; different levels cause different
    actions when a checkpoint is issued. *)

type t =
  | Local  (** checkpoint to the hosting node's own disk *)
  | Remote of int  (** checkpoint to the given node's disk *)
  | Mirrored of int list
      (** checkpoint to every listed node; the object survives any
          single checksite failure.  The list must be non-empty and
          duplicate-free. *)

val validate : t -> node_count:int -> (unit, string) result
val checksites : t -> home:int -> int list
(** The node ids holding the long-term state, given the hosting node. *)

val fanout : primary:int -> candidates:int list -> max_extra:int -> int list
(** Site hygiene for a speculative fan-out: the candidate sites with
    duplicates and the primary removed, in ascending id order, capped
    at [max_extra].  Empty when [max_extra <= 0]. *)

val pp : Format.formatter -> t -> unit
