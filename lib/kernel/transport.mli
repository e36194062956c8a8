(** Kernel message transport: {!Eden_net.Internet} specialised to
    {!Message.t}.

    A cluster's nodes live on one or more bridged Ethernet segments
    (paper Figure 1 reaches "other networks" through a gateway).
    Transport is best-effort: if the MAC layer drops any fragment of a
    message (collision exhaustion), the whole message is silently lost
    and recovery is the requester's timeout, exactly as in the paper's
    invocation model. *)

type net

type coalesce = Eden_net.Internet.coalesce = {
  co_max_bytes : int;
  co_max_msgs : int;
  co_max_delay : Eden_util.Time.t;
}
(** Unicast coalescing budgets; see {!Eden_net.Internet.coalesce}. *)

val default_coalesce : coalesce

val create_net :
  ?params:Eden_net.Params.t ->
  ?coalesce:coalesce ->
  Eden_sim.Engine.t ->
  segments:int ->
  net
(** [segments = 1] (the usual case) builds a single Ethernet with no
    bridge.  Omitting [coalesce] sends every unicast as its own wire
    transfer. *)

val segment_count : net -> int
val frames_delivered : net -> int
val bridge_forwards : net -> int

val coalesced_batches : net -> int
(** Wire transfers that carried two or more coalesced messages. *)

val coalesced_messages : net -> int
(** Messages that travelled inside those batched transfers. *)

val segment_counters : net -> Eden_net.Lan.counters array
(** Per-segment MAC counters, indexed by segment. *)

val set_partitioned : net -> int -> bool -> unit
(** Cut a segment off from the bridge (or heal it).  See
    {!Eden_net.Internet.set_partitioned}. *)

type fault = Eden_net.Internet.fault =
  | Pass
  | Drop
  | Duplicate
  | Delay of Eden_util.Time.t

val set_fault_injector :
  net -> (src:int -> dst:int option -> fault) option -> unit
(** Install (or clear) a per-message fault decision hook; consulted on
    every unicast ([dst = Some addr]) and broadcast ([dst = None]).
    Must be deterministic given the virtual clock. *)

type 'a event = 'a Eden_net.Internet.event =
  | Ev_drop of { src : int; dst : int option; msgs : int }
  | Ev_duplicate of { src : int; dst : int option; msgs : int }
  | Ev_delay of {
      src : int;
      dst : int option;
      msgs : int;
      by : Eden_util.Time.t;
      items : 'a list;
    }
  | Ev_depart of { src : int; dst : int; msgs : int; items : 'a list }

val set_event_hook : net -> (Message.traced event -> unit) option -> unit
(** Wire-level observability tap; see
    {!Eden_net.Internet.set_event_hook}.  The cluster installs one to
    journal fault verdicts and coalesced flushes at the sending node,
    and the holds and departures against each payload's trace. *)

type t
(** A node's transport endpoint. *)

val attach : net -> segment:int -> name:string -> t
val address : t -> int
val segment : t -> int

val on_message : t -> (src:int -> Message.traced -> unit) -> unit
(** The callback must not block. *)

val send : t -> dst:int -> Message.traced -> unit
(** Sending to oneself loopback-delivers asynchronously (never touches
    the wire), so retry loops survive an object relocating onto its own
    requester's node.  Raises [Invalid_argument] only for an unknown
    destination. *)

val send_now : t -> dst:int -> Message.traced -> unit
(** Urgent unicast: bypasses the coalescing queue (after flushing
    anything already queued for [dst], preserving FIFO order).  Used
    for {!Message.t.Cancel} so a retraction is never batched behind
    the work it cancels.  See {!Eden_net.Internet.send_now}. *)

val broadcast : t -> Message.traced -> unit
(** Reaches every node on every segment.  Acts as a coalescing
    barrier: queued unicasts are flushed first. *)

val set_up : t -> bool -> unit
(** A downed endpoint neither sends nor delivers. *)

val queued_messages : t -> int
(** Messages parked in the endpoint's coalescing queues (zero with
    coalescing off); the [net.queued_messages] health gauge. *)

val reassembly_pending : t -> int
(** Partially received messages awaiting fragments; the
    [net.reassembly_pending] health gauge. *)
