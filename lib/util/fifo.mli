(** Mutable FIFO queue with optional capacity bound.

    A thin ring-buffer queue used for run queues, mailboxes and device
    request queues.  Unlike [Stdlib.Queue] it supports a capacity bound
    ([push] reports refusal rather than growing) and O(1) [length]. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ?capacity ()] is an empty queue.  [capacity], if given, is
    the maximum number of queued elements; it must be positive. *)

val length : 'a t -> int
val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push q v] appends [v]; returns [false] (leaving [q] unchanged) when
    the queue is at capacity. *)

val push_exn : 'a t -> 'a -> unit
(** Like {!push} but raises [Invalid_argument] when full. *)

val pop : 'a t -> 'a option
val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
(** Front-to-back snapshot. *)
