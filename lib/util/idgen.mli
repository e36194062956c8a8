(** Monotonic identifier generation.

    Each generator hands out consecutive non-negative integers.  Used
    for process ids, object serial numbers and event sequence numbers;
    one generator per scope keeps ids dense and deterministic. *)

type t

val create : ?first:int -> unit -> t
(** [create ?first ()] starts counting at [first] (default 0). *)

val next : t -> int
val peek : t -> int
(** The id {!next} would return, without consuming it. *)
