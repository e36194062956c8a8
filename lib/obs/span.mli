(** Invocation spans: the phase breakdown of one kernel invocation.

    Every invocation gets a span when it enters the kernel.  A span is
    a small state machine over virtual time: exactly one {!phase} is
    open at any moment, and {!enter} closes the current phase (charging
    it the elapsed virtual time) while opening the next.  Because the
    phases partition the span's lifetime, their durations always sum
    exactly to the end-to-end latency — even across retries, nacks and
    forwarding, which simply re-enter earlier phases.

    Phases, in the order a clean remote invocation passes through them:

    - [Locate] — requester-side setup: hint-cache lookup, locate
      broadcasts and their reply windows, nack-driven re-location.
    - [Transport] — the request on the wire, including marshalling on
      both ends, MAC contention and any forwarding hops.
    - [Queue] — waiting in the target object's port for the
      coordinator.
    - [Dispatch] — admission: rights and class checks, class-queue
      waits, invocation-process creation.
    - [Execute] — the operation handler itself.
    - [Reply] — result delivery back to the requester, including the
      wire and reply-side processing.

    A local invocation skips [Transport] (it stays at zero).  Spans
    carry a parent link when the invocation was made from inside
    another invocation's handler ([ctx.invoke]), so cross-node call
    trees are reconstructable from the exported records. *)

type phase = Locate | Transport | Queue | Dispatch | Execute | Reply

val phases : phase list
(** In canonical order. *)

val phase_name : phase -> string

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
  i_phases : Eden_util.Time.t array;
      (** time in each phase, in the order of {!phases} *)
}
(** The record of a finished span.  The collector keeps its fields,
    not the record: each read builds fresh values. *)

val info_phase : info -> phase -> Eden_util.Time.t

val info_to_json : info -> Json.t
val info_of_json : Json.t -> (info, string) result

(** {1 Live spans} *)

type t
type collector

val create : ?keep:int -> unit -> collector
(** Retain the last [keep] finished spans (default 4096); earlier ones
    are dropped oldest-first but still counted. *)

val start :
  collector ->
  ?parent:t ->
  op:string ->
  target:string ->
  origin:int ->
  at:Eden_util.Time.t ->
  unit ->
  t
(** A fresh span with the [Locate] phase open. *)

val id : t -> int
val enter : t -> phase -> at:Eden_util.Time.t -> unit
(** Close the open phase and open [phase].  On a finished span (e.g. a
    server-side step arriving after the requester timed out) the sealed
    record is left untouched and the call is counted in the
    collector's {!late_events}. *)

val note_remote : t -> unit
val finish : t -> outcome:string -> at:Eden_util.Time.t -> unit
(** Close the open phase, seal the span and retain its {!info}.
    Idempotent; a repeat finish is counted in {!late_events}. *)

val duration : t -> Eden_util.Time.t
(** Elapsed from start to finish; requires a finished span (raises
    [Invalid_argument] otherwise). *)

(** {1 Reading a collector} *)

val late_events : collector -> int
(** Phase changes or finishes that arrived after their span was
    sealed — late server-side work the sealed records cannot show
    (exported as the [eden.span.late_events] counter). *)

val finished : collector -> info list
(** Retained finished spans, oldest first. *)

val last_finished : collector -> info option

val children : info list -> int -> info list
(** [children infos id] are the spans whose parent is [id], in
    finish order. *)
