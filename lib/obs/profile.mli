(** Per-workload critical-path profiles.

    Aggregates {!Critical}'s per-request breakdowns into a
    deterministic profile: exact aggregate shares per category, and
    exact per-request breakdowns at p50/p95/p999 (nearest-rank
    selection over the latency-sorted requests — a selection, never an
    interpolation, so same-seed runs render byte-identical output).

    Exports: human-readable text, JSON, folded flame-graph stacks
    ([flamegraph.pl] format), and Chrome trace_event duration bars to
    overlay on a {!Timeline} export. *)

type t

val of_timeline : Timeline.t -> t

val requests : t -> int
(** Requests attributed (traces bracketing a complete invocation). *)

val skipped : t -> int
(** Traces with an [Inv_begin] but no attributable end — crashed,
    still in flight, or truncated by ring wrap-around. *)

val total_ns : t -> int
(** Attributed virtual nanoseconds, summed over requests. *)

val share : t -> Critical.category -> float
(** Aggregate share of a category in [0, 1]. *)

val dominant : t -> Critical.category
(** The category with the largest aggregate share. *)

val quantile : t -> float -> Critical.breakdown option
(** [quantile t 0.95] is the nearest-rank p95 request's exact
    breakdown; [None] when no requests were attributed. *)

val to_text : t -> string
val to_json : t -> Json.t

val to_folded : t -> string
(** Folded flame-graph stacks: one
    ["eden;<target>.<op>;<category> <ns>"] line per stack, sorted. *)

val chrome_extra : t -> Json.t list
(** One ["ph": "X"] duration event per attributed request (category
    breakdown in [args]); pass to {!Timeline.to_chrome_string} as
    [?extra]. *)
