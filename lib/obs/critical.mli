(** Critical-path latency attribution over the causal trace.

    Reconstructs, for each request, where its end-to-end virtual time
    went: the journals already record the request's whole causal story
    (send/recv edges, queue residency, coalescer holds, retry backoff,
    clone waits, directory hops, drain stalls), and event ids are
    allocated in engine execution order — which never runs ahead of
    virtual time — so the id-sorted events of one trace have
    nondecreasing timestamps.  Walking consecutive events and
    classifying each inter-event gap by its bounding events therefore
    tiles the interval [Inv_begin, Inv_end] exactly: the per-category
    sums telescope to the end-to-end latency, nanosecond for
    nanosecond.  Checker rule 8 ({e attribution-complete}) re-verifies
    that identity on every complete trace.

    When several branches of one request are in flight at once (clone
    fan-out, broadcast locate), each instant is attributed to the
    branch that produces the {e next} event of the trace — a
    deterministic tie-break that keeps the sums exact.

    The kinds {!Journal.Work_start}, {!Journal.Net_flush},
    {!Journal.Net_hold} and {!Journal.Drain_stall} sharpen the split —
    queue vs service, coalescer vs wire, injected hold vs transit; a
    trace without them (a hand-built one, or one whose marks were lost
    to a wrapped ring) attributes more coarsely but still exactly. *)

open Eden_util

(** Where a slice of a request's latency went. *)
type category =
  | Service  (** executing at an endpoint — including injected holds,
                 which model a slow endpoint rather than a slow wire *)
  | Queue  (** waiting for an invocation slot at the target *)
  | Wire  (** in transit: MAC contention, transfer, bridge hops *)
  | Coalesce  (** parked in a sender's coalescing queue *)
  | Directory  (** locate machinery: broadcasts, registry hops, hints,
                   stale-location nacks *)
  | Backoff  (** sleeping between retry attempts *)
  | Spec_wait  (** a clone fan-out waiting for its first response *)
  | Drain  (** stashed behind a draining object *)
  | Wait  (** requester-side waiting not otherwise classified, e.g.
              the tail of a timed-out attempt *)

val categories : category list
(** All categories, in display (and index) order. *)

val category_name : category -> string
val category_index : category -> int

val n_categories : int

type breakdown = {
  bd_trace : int;  (** trace id ([Inv_begin]'s event id) *)
  bd_node : int;  (** origin node *)
  bd_op : string;
  bd_target : string;
  bd_outcome : string;
  bd_begin : Time.t;  (** virtual time of [Inv_begin] *)
  bd_total_ns : int;  (** end-to-end latency, [Inv_end - Inv_begin] *)
  bd_parts : int array;
      (** nanoseconds per category, indexed by {!category_index};
          sums to [bd_total_ns] exactly *)
}

val part : breakdown -> category -> int
val sum_parts : breakdown -> int

val dominant : breakdown -> category
(** The category with the largest share (first in {!categories} order
    on ties). *)

val attribute : Journal.event list -> breakdown option
(** Attribute one trace.  The list must be a single trace's events
    sorted by id.  [None] unless the trace contains an [Inv_begin]
    and a later [Inv_end] (crashed, still-running, or truncated
    requests are not attributed). *)

val breakdowns : Journal.event list -> breakdown list
(** Group a merged event list (e.g. a {!Timeline.t}) by trace and
    attribute every complete request, ascending by trace id. *)

val of_index : Index.t -> breakdown list * int
(** {!breakdowns} of the list an index was built from, reading its
    trace slices — for callers that index the list anyway — and the
    number of traces that hold an [Inv_begin] but were not attributed
    (crashed, still running, or truncated by ring wrap-around). *)
