(** Serving-side idempotence bookkeeping for the invocation path.

    Speculative cloning, hedged retries and the fault injector's
    duplicate verdict all deliver one logical request more than once.
    A serving node remembers recently seen request ids — keyed by the
    {e full} (origin, sequence) pair, since per-origin sequence
    counters collide across nodes — and what became of each: queued,
    started, or cancelled.  The table is bounded with oldest-first
    eviction; because sequences are never reissued, eviction can only
    let a duplicate through, never drop a fresh request.

    Cancelled entries additionally carry a lease: a cancel that
    overtakes its own (possibly dropped) request would otherwise pin a
    tombstone slot until cap eviction, and drop-heavy fault plans fill
    the table with them.  With a [ttl], entries still [Cancelled] when
    their lease expires are reclaimed opportunistically; entries that
    progressed past [Cancelled] are never touched.

    One table per node, volatile: {!reset} on crash.  All operations
    are amortised O(1).  Every operation taking a request id raises
    [Invalid_argument] unless its origin lies in [0, 2{^22}) and its
    sequence in [0, 2{^40}): the pair is packed into one int key. *)

type t

type state =
  | Queued  (** work accepted and queued, retractable by a cancel *)
  | Started  (** execution began; cancels arriving now are too late *)
  | Cancelled  (** retracted (or cancelled in advance of arrival) *)

val create :
  ?ttl:Eden_util.Time.t -> ?now:(unit -> Eden_util.Time.t) -> cap:int -> unit -> t
(** [create ~cap ()] builds a bounded table.  [ttl] (default: no
    expiry) is the lease granted to [Cancelled]-only entries, measured
    against the monotonic clock [now] (default: constant zero — pass
    the engine clock to arm expiry).  Raises [Invalid_argument] if
    [cap <= 0] or [ttl] is negative. *)

val find : t -> Message.request_id -> state option

val note_queued : t -> Message.request_id -> unit
(** Record that this request's work was accepted and queued.  Call it
    only when work is actually enqueued locally — forwarded or nacked
    requests are not remembered, so a retransmission retries them. *)

val start : t -> Message.request_id -> [ `Run | `Retracted ]
(** Decide at dispatch time: [`Retracted] if a cancel arrived while
    the work was queued (drop it unexecuted), otherwise mark the
    request started — exactly once — and [`Run]. *)

val cancel : t -> Message.request_id -> [ `Retracted | `Too_late | `Noted ]
(** Apply a cancellation: [`Retracted] if the work was still queued
    (it will be dropped at dispatch), [`Too_late] if it already
    started or was already cancelled, [`Noted] if the cancel overtook
    its own request — remembered so the request is dropped on
    arrival. *)

val size : t -> int
val reset : t -> unit
