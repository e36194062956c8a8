(** Primary-memory accounting for a node machine.

    Tracks bytes in use against a fixed budget.  The kernel reserves
    memory for each active object's segments and short-term state;
    exhaustion makes activation fail, which is how the paper's memory
    ceiling bounds the active-object population of a node. *)

type t

val create : bytes:int -> t
(** [bytes] must be positive. *)

val capacity : t -> int
val in_use : t -> int
val available : t -> int

val reserve : t -> int -> (unit, [ `Out_of_memory ]) result
(** Claim bytes; fails (claiming nothing) if fewer are available.
    Raises [Invalid_argument] on a negative size. *)

val release : t -> int -> unit
(** Return bytes.  Raises [Invalid_argument] when releasing more than
    is in use (an accounting bug). *)
