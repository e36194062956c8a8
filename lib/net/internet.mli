(** An internetwork of bridged Ethernet segments.

    Figure 1 of the paper shows the Eden Ethernet reaching "other
    networks" through a gateway.  This module generalises {!Msglink} to
    several CSMA/CD segments joined by a store-and-forward bridge:
    endpoints get {e global} addresses, same-segment traffic behaves
    exactly as on a single {!Lan}, and cross-segment messages traverse
    the bridge, paying both segments' MAC contention plus the bridge's
    forwarding latency.

    With [segments = 1] this is equivalent to a single {!Msglink} LAN
    (no bridge is created), so it is safe to use as the only transport
    substrate. *)

type 'a t
type 'a endpoint

type coalesce = {
  co_max_bytes : int;  (** flush when queued payload bytes reach this *)
  co_max_msgs : int;  (** flush when this many messages are queued *)
  co_max_delay : Eden_util.Time.t;
      (** flush this long after the first message entered the queue *)
}
(** Budgets for unicast message coalescing.  Each endpoint keeps one
    send queue per destination; small messages accumulate there and
    leave as a single wire transfer when any budget is exhausted, when
    a {!broadcast} acts as a barrier, or on an explicit {!flush}.
    Messages of [co_max_bytes] or more bypass the queue (after
    flushing it, so per-destination FIFO order is preserved). *)

val default_coalesce : coalesce
(** 1024 bytes / 8 messages / 300us. *)

val create :
  ?params:Params.t ->
  ?coalesce:coalesce ->
  Eden_sim.Engine.t ->
  segments:int ->
  size:('a -> int) ->
  'a t
(** [segments] must be >= 1.  Each bridged hop adds a 500us
    store-and-forward delay.  Omitting [coalesce]
    (the default) sends every unicast as its own wire transfer. *)

val segment_count : 'a t -> int

val attach : 'a t -> segment:int -> name:string -> 'a endpoint
(** Global addresses are assigned densely in attachment order across
    all segments. *)

val address : 'a endpoint -> int
val segment_of_endpoint : 'a endpoint -> int

val on_message : 'a endpoint -> (src:int -> 'a -> unit) -> unit

val send : 'a endpoint -> dst:int -> 'a -> unit
(** Raises [Invalid_argument] on an unknown destination.  Sending to
    oneself loopback-delivers on the next engine step without touching
    the wire (no MAC contention, no frame counters). *)

val send_now : 'a endpoint -> dst:int -> 'a -> unit
(** Like {!send} but urgent: the message never enters the coalescing
    queue.  Anything already queued for [dst] is flushed first (so
    per-destination FIFO order is preserved), then the payload travels
    as its own wire transfer.  Built for retractions — a cancel must
    not be batched behind the very work it cancels.  Loopback and
    fault-injection behaviour match {!send}.  Raises
    [Invalid_argument] on an unknown destination. *)

val broadcast : 'a endpoint -> 'a -> unit
(** Delivered to every endpoint on every segment (except the sender);
    the bridge re-emits on remote segments.  A broadcast is a
    coalescing barrier: the sender's queues are flushed first so
    queued unicasts cannot overtake it. *)

val set_up : 'a endpoint -> bool -> unit

val queued_messages : 'a endpoint -> int
(** Messages currently parked in this endpoint's per-destination
    coalescing queues (zero when coalescing is off) — a depth gauge
    for the health plane. *)

val reassembly_pending : 'a endpoint -> int
(** Partially received messages in the endpoint's link-layer
    reassembly table. *)

val frames_delivered : 'a t -> int
(** LAN frames delivered, summed over all segments (bridged traffic
    counts on each segment it crosses). *)

val bridge_forwards : 'a t -> int
(** Messages the bridge carried between segments. *)

val bridge_drops : 'a t -> int
(** Envelopes the bridge discarded because a partition cut the path,
    counted whether the partition was up when the frame arrived or
    raised while it sat in the store-and-forward queue. *)

val coalesced_batches : 'a t -> int
(** Wire transfers that carried two or more coalesced messages. *)

val coalesced_messages : 'a t -> int
(** Messages that travelled inside those batched transfers. *)

val segment_counters : 'a t -> Lan.counters array
(** Per-segment MAC counters, indexed by segment. *)

(** {2 Fault injection}

    Hooks for a deterministic chaos layer.  Both are pure simulation
    state: they consume no wire bandwidth and perturb nothing unless
    armed. *)

val set_partitioned : 'a t -> int -> bool -> unit
(** [set_partitioned net seg cut] detaches segment [seg] from the
    bridge ([cut = true]) or heals it.  While cut, cross-segment
    traffic from or to [seg] is dropped at the bridge — including
    frames already queued for forwarding — and counted in
    {!bridge_drops}.  Same-segment traffic is unaffected.  Raises
    [Invalid_argument] for an unknown segment. *)

type fault =
  | Pass  (** transmit normally *)
  | Drop  (** silently discard *)
  | Duplicate  (** transmit twice *)
  | Delay of Eden_util.Time.t  (** hold back, then transmit *)

val set_fault_injector :
  'a t -> (src:int -> dst:int option -> fault) option -> unit
(** [set_fault_injector net (Some f)] consults [f] on every unicast
    wire transfer ([dst = Some g]) and {!broadcast} ([dst = None])
    before the message touches the wire.  [None] removes the hook.
    With coalescing enabled the injector is consulted {e once per
    batch}: a [Drop] verdict loses every coalesced member, [Delay]
    and [Duplicate] act on the whole transfer.  The injector must be
    deterministic given the virtual clock (seeded PRNG only) to keep
    runs reproducible. *)

(** {2 Wire event hook}

    Observability tap for things only this layer can see: injector
    verdicts that actually perturbed a transfer, and batches leaving a
    send queue.  [msgs] is the number of messages in the affected
    transfer; [dst = None] means broadcast.  A delay and a departure
    also carry the payloads themselves, since each carries its own
    trace context. *)

type 'a event =
  | Ev_drop of { src : int; dst : int option; msgs : int }
  | Ev_duplicate of { src : int; dst : int option; msgs : int }
  | Ev_delay of {
      src : int;
      dst : int option;
      msgs : int;
      by : Eden_util.Time.t;
      items : 'a list;
    }
      (** a [Delay] verdict held [items] at the sender for [by] before
          transmitting *)
  | Ev_depart of { src : int; dst : int; msgs : int; items : 'a list }
      (** [items], in send order, left a per-destination coalescing
          queue as one transfer; reported for {e every} flush, even of
          a single message (that message spent the delay budget
          queued) *)

val set_event_hook : 'a t -> ('a event -> unit) option -> unit
(** At most one hook; [None] removes it.  Called synchronously at the
    flush or verdict point, before any transmission it describes. *)
