(** Invocation spans: what was invoked, where from, and how it ended.

    Every invocation gets a span when it enters the kernel on the
    requesting node, and the same node finishes it when the outcome is
    known.  A span records which operation was invoked on which object
    and from which node, its parent span, whether the request crossed
    the wire, its outcome, and its start and finish times in virtual
    time.

    A span carries a parent link when the invocation was made from
    inside another invocation's handler ([ctx.invoke]), so cross-node
    call trees are reconstructable from the exported records.  A
    remote request carries only its span's id, which the serving
    handler names as the parent of the invocations it makes; no node
    writes another node's span.

    Where the latency went is not a span's business: the critical-path
    profiler ({!Critical}, {!Profile}) attributes each request's
    latency from the journal. *)

type info = {
  i_id : int;
  i_parent : int option;
  i_op : string;
  i_target : string;  (** printed object name *)
  i_origin : int;  (** requesting node *)
  i_remote : bool;  (** the request crossed the wire *)
  i_outcome : string;  (** ["ok"] or an error tag *)
  i_start : Eden_util.Time.t;
  i_finish : Eden_util.Time.t;
}
(** The record of a finished span.  The collector keeps its fields,
    not the record: each read builds fresh values. *)

val info_to_json : info -> Json.t
val info_of_json : Json.t -> (info, string) result

(** {1 Live spans} *)

type t
type collector

val create : ?keep:int -> unit -> collector
(** Retain the last [keep] finished spans (default 4096); earlier ones
    are dropped oldest-first. *)

val start :
  collector ->
  ?parent:int ->
  op:string ->
  target:string ->
  origin:int ->
  at:Eden_util.Time.t ->
  unit ->
  t
(** A fresh span; [parent] is the id of the span that caused it. *)

val id : t -> int
val note_remote : t -> unit

val finish : t -> outcome:string -> at:Eden_util.Time.t -> unit
(** Seal the span and retain its {!info}.  Idempotent: the first
    finish wins. *)

val duration : t -> Eden_util.Time.t
(** Elapsed from start to finish; requires a finished span (raises
    [Invalid_argument] otherwise). *)

(** {1 Reading a collector} *)

val finished : collector -> info list
(** Retained finished spans, oldest first. *)

val last_finished : collector -> info option

val children : info list -> int -> info list
(** [children infos id] are the spans whose parent is [id], in
    finish order. *)
