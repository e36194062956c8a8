(** A point-in-time export of the whole observability state.

    A snapshot pairs the registry's sampled metrics with the retained
    invocation spans at a given virtual time.  It serialises to a
    stable JSON schema ([eden-metrics/2]) and parses back, so external
    tooling — and the repo's own tests — can verify every exported
    number. *)

type t = {
  at : Eden_util.Time.t;  (** virtual time of the sample *)
  metrics : Metrics.sample list;
  spans : Span.info list;
}

val take : at:Eden_util.Time.t -> ?spans:Span.collector -> Metrics.t -> t
(** Sample the registry (and, when given, drain-read the collector's
    retained spans). *)

val find : t -> ?labels:Metrics.labels -> string -> Metrics.value option

val to_string : ?compact:bool -> t -> string
val of_string : string -> (t, string) result

val write_file : ?compact:bool -> t -> path:string -> unit
(** Write the JSON export (plus a trailing newline) to [path],
    creating missing parent directories first.  Raises [Sys_error] if
    the path is unwritable. *)

val pp_table : t -> string
(** Render the metric samples as aligned ASCII tables: one table with
    node-labelled metrics as rows and nodes as columns, one for
    segment-labelled metrics, one for everything else (histograms show
    count / mean). *)
