(** Best-effort message transport over a {!Lan}.

    Splits arbitrary-size messages into frame-sized fragments and
    reassembles them at the receiver.  If the MAC layer drops any
    fragment the whole message is silently lost — recovery belongs to
    the request layer above (timeouts).

    Polymorphic in the message type: the caller supplies the
    marshalled-size function at {!attach}. *)

type 'm packet
type 'm lan = 'm packet Lan.t

val create_lan : ?params:Params.t -> Eden_sim.Engine.t -> 'm lan

type 'm t

val attach : 'm lan -> name:string -> size:('m -> int) -> 'm t
val address : 'm t -> int

val on_message : 'm t -> (src:int -> 'm -> unit) -> unit
(** The callback must not block. *)

val send : 'm t -> dst:int -> 'm -> unit
(** Raises [Invalid_argument] when sending to self. *)

val broadcast : 'm t -> 'm -> unit

val set_up : 'm t -> bool -> unit
(** A downed endpoint neither sends nor delivers. *)

val is_up : 'm t -> bool

val reassembly_pending : 'm t -> int
(** Partially received messages currently held in the reassembly
    table (a depth gauge for the health plane). *)
