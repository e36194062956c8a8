(** Trace context: the causal coordinates a kernel message carries.

    A context names the trace it belongs to ([trace]: the id of the
    journal event that rooted the trace, e.g. an invocation's begin
    event) and the journal event that immediately caused this step
    ([parent]).  Contexts ride in the envelope of every kernel message
    (see [Eden_kernel.Message]) and thread through multi-step kernel
    work, so the per-node {!Journal}s can later be assembled into one
    cross-node causal tree per trace. *)

type t = private { trace : int; parent : int }

val make : trace:int -> parent:int -> t

val root : int -> t
(** [root id] is the context of a trace-rooting event: the event is its
    own trace and its own parent. *)

val trace : t -> int
val parent : t -> int

val with_parent : t -> parent:int -> t
(** Same trace, new causal predecessor. *)
