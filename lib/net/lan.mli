(** A CSMA/CD local area network.

    The model follows the classic Ethernet MAC: a station with a frame
    senses the medium; transmissions that begin within one contention
    slot of each other collide, after which each collider waits a
    random number of slots drawn from a truncated binary exponential
    backoff window and tries again.  A frame is dropped after
    [max_attempts] failures.

    Each attached station owns an unbounded transmit queue, so {!send}
    never blocks the caller.  The MAC is a state machine driven by
    engine events, not a process per station: each step — a station
    powering on or taking a frame, carrier sense, the close of a
    contention window, the end of a jam, a backoff, the end of a frame
    — runs as one event and schedules the next.  A station sends one
    frame at a time, in queue order; stations that sense a busy medium
    sense again, in arrival order, when it next goes idle.  Frames sent
    before the engine runs the station's power-on event wait in its
    queue.

    Delivery invokes the receiver callback registered with
    {!on_receive} one propagation delay after the frame leaves the
    wire; the callback must not block (hand the frame to a mailbox for
    real work).

    Payloads are an arbitrary type ['a]; only [bytes] participates in
    the timing model. *)

type 'a t
type 'a station

type dest = Unicast of int | Broadcast

type 'a frame = {
  src : int;  (** address of the sending station *)
  dest : dest;
  bytes : int;  (** payload size used for the timing model *)
  payload : 'a;
  sent_at : Eden_util.Time.t;  (** when {!send} accepted the frame *)
}

val create : ?params:Params.t -> Eden_sim.Engine.t -> 'a t
(** Raises [Invalid_argument] if [params] fails {!Params.validate}. *)

val params : 'a t -> Params.t

val attach : 'a t -> name:string -> 'a station
(** Join a new station to the cable.  Addresses are assigned densely
    from 0 in attachment order. *)

val address : 'a station -> int

val on_receive : 'a station -> ('a frame -> unit) -> unit
(** Replaces any previous callback.  Frames arriving with no callback
    registered are counted as delivered and discarded. *)

val send : 'a station -> dest:dest -> bytes:int -> 'a -> unit
(** Queue a frame for transmission.  [bytes] must lie within the frame
    limits of the LAN's {!Params.t}; large messages must be fragmented
    by the caller (the kernel's message layer does this).  Raises
    [Invalid_argument] on an out-of-range size or on sending to self. *)

(** {2 Counters}  All counters are cumulative since creation. *)

type counters = {
  frames_sent : int;  (** accepted by {!send} *)
  frames_broadcast : int;  (** subset of [frames_sent] with [dest = Broadcast] *)
  frames_delivered : int;
  frames_dropped : int;  (** exceeded [max_attempts] *)
  payload_bytes_delivered : int;
  collision_events : int;  (** collisions on the medium *)
  backoffs : int;  (** individual station back-offs *)
}

val counters : 'a t -> counters

val utilisation : 'a t -> over:Eden_util.Time.t -> float

val latency_stats : 'a t -> Eden_util.Stats.Running.r
(** Per-frame delay from {!send} to delivery, in seconds: count, sum
    and extremes, kept in constant space however many frames a run
    delivers. *)

val on_collision : 'a t -> (int -> unit) -> unit
(** Call the function with the number of colliding stations each time
    a contention window closes on a collision; a later call replaces
    the hook.  {!counters} counts collisions but not their sizes. *)
