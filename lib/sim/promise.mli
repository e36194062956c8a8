(** Write-once cells for request/reply rendezvous.

    A promise is filled exactly once; every process awaiting it (and
    any that awaits later) observes the value.  The invocation layer
    uses one promise per outstanding request. *)

type 'a t

val create : Engine.t -> 'a t

val fill : 'a t -> 'a -> bool
(** Resolve the promise, waking all waiters.  Returns [false] (and
    changes nothing) if it was already filled. *)

val await : ?timeout:Eden_util.Time.t -> 'a t -> 'a option
(** Block until filled; [None] only if [timeout] elapsed first.
    Returns immediately when already filled. *)

val peek : 'a t -> 'a option
