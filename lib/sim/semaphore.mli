(** Counting semaphores with FIFO hand-off.

    {!release} transfers a permit directly to the longest-waiting
    blocked process (if any), so a permit can never be stolen by a
    process that arrives between release and resumption: if {!acquire}
    returns [true] the caller holds a permit. *)

type t

val create : Engine.t -> init:int -> t
(** [init] is the initial permit count; must be non-negative. *)

val acquire : ?timeout:Eden_util.Time.t -> t -> bool
(** Take one permit, blocking if none is available.  Returns [false]
    only when [timeout] elapsed first (no permit is held then). *)

val try_acquire : t -> bool
(** Non-blocking: take a permit if immediately available. *)

val release : t -> unit
val permits : t -> int
(** Currently available (un-handed-off) permits. *)
