(** A point-in-time export of the metrics registry.

    A snapshot is the registry's sampled metrics at a given virtual
    time.  It serialises to a stable JSON schema ([eden-metrics/3]) and
    parses back, so external tooling — and the repo's own tests — can
    verify every exported number.  What each invocation was is the
    journal's record ({!Journal}), not the snapshot's. *)

type t = {
  at : Eden_util.Time.t;  (** virtual time of the sample *)
  metrics : Metrics.sample list;
}

val take : at:Eden_util.Time.t -> Metrics.t -> t
(** Sample the registry. *)

val find : t -> ?labels:Metrics.labels -> string -> Metrics.value option

val to_string : ?compact:bool -> t -> string
val of_string : string -> (t, string) result

val write_file : ?compact:bool -> t -> path:string -> unit
(** Write the JSON export (plus a trailing newline) to [path],
    creating missing parent directories first.  The file gets the
    permissions the process umask allows, as any newly created file
    does.  Raises [Sys_error] if the path is unwritable. *)

val pp_table : t -> string
(** Render the metric samples as aligned ASCII tables: one table with
    node-labelled metrics as rows and nodes as columns, one for
    segment-labelled metrics, one for everything else (histograms show
    count / mean). *)
