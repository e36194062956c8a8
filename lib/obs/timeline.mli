(** Cross-node trace assembly and export.

    Merges the per-node {!Journal}s of one cluster run into a single
    deterministic timeline, and renders it either as a human-readable
    causal tree per trace or as Chrome [trace_event] JSON (load the
    file in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    nodes appear as processes, traces as tracks, and matched send/recv
    pairs as flow arrows). *)

type t = Journal.event list
(** Sorted by event id, which equals engine execution order and never
    runs ahead of virtual time. *)

val assemble : Journal.t list -> t
(** Merge; byte-deterministic for a fixed seed. *)

val events : t -> Journal.event list
val length : t -> int

val nodes : t -> int list
(** Distinct nodes contributing events, ascending. *)

val traces : t -> int list
(** Distinct trace roots, ascending. *)

val to_text : t -> string

val to_chrome_string : ?extra:Json.t list -> t -> string
(** Chrome trace_event JSON, compact.  [extra] appends further
    trace_event objects (e.g. {!Profile}'s per-request duration bars)
    to the [traceEvents] array. *)
