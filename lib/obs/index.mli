(** An event list laid out for analysis.

    {!Check}, {!Critical} and {!Profile} all read a merged event list
    (a {!Timeline.t}) the same few ways: in its own order, in id order,
    from an event to its causal parent, and one trace at a time.  An index answers all four
    from flat arrays built from the list, with no per-trace list and
    no hash table: traces are grouped by a radix sort on trace id.

    Positions are indices into {!events}, which holds the events in id
    order; for a list already in id order (every assembled timeline)
    that is the list's own order and no sort runs. *)

type t

val of_events : Journal.event list -> t

val length : t -> int

val events : t -> Journal.event array
(** In id order; equal ids (only hand-built lists have them) keep
    their list order.  Do not mutate. *)

val input : t -> int -> int
(** [input t i] is the position of the list's [i]th event. *)

val parent : t -> int -> int
(** [parent t p] is the position of the causal parent of the event at
    position [p]: the {e last} event with the id its [ev_parent] names
    (the one a table filled in list order with [Hashtbl.replace] would
    hold), or [-1] when it has none or no event has that id.  The
    search gallops from where a dense run of ids would put the parent
    ([id p - ev_parent] positions back, clamped to [0, p]), so its cost
    is set by how far ids are from dense, not by how far back the
    parent is: O(log m) reads when [m] ids between the two are missing
    from the list, O(1) when none are. *)

(** {2 Traces} *)

val traces : t -> int
(** Distinct trace ids.  Trace {e ordinals} [0 .. traces t - 1]
    number them in ascending id order. *)

val trace_id : t -> int -> int
(** The trace id of an ordinal. *)

val trace_of : t -> int array
(** The ordinal of each position's trace.  Do not mutate. *)

val members : t -> int array
val bounds : t -> int array
(** Trace [k]'s events are the positions [members.(i)] for
    [bounds.(k) <= i < bounds.(k + 1)]: in id order, equal ids newest
    first (the order a per-trace list built by consing and then stably
    sorted by id has).  Do not mutate. *)
