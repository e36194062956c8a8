open Eden_net

(* The payload is the traced envelope: every frame carries its message
   plus an optional trace context, so causal links survive the wire. *)
type net = Message.traced Internet.t
type t = Message.traced Internet.endpoint

type fault = Internet.fault =
  | Pass
  | Drop
  | Duplicate
  | Delay of Eden_util.Time.t

type coalesce = Internet.coalesce = {
  co_max_bytes : int;
  co_max_msgs : int;
  co_max_delay : Eden_util.Time.t;
}

let default_coalesce = Internet.default_coalesce

let create_net ?params ?coalesce eng ~segments =
  Internet.create ?params ?coalesce eng ~segments
    ~size:Message.traced_size

let segment_count = Internet.segment_count
let frames_delivered = Internet.frames_delivered
let bridge_forwards = Internet.bridge_forwards
let coalesced_batches = Internet.coalesced_batches
let coalesced_messages = Internet.coalesced_messages
let segment_counters = Internet.segment_counters
let set_partitioned = Internet.set_partitioned
let set_fault_injector = Internet.set_fault_injector

type 'a event = 'a Internet.event =
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

let set_event_hook = Internet.set_event_hook
let attach net ~segment ~name = Internet.attach net ~segment ~name
let address = Internet.address
let segment = Internet.segment_of_endpoint
let on_message = Internet.on_message
let send = Internet.send
let send_now = Internet.send_now
let broadcast = Internet.broadcast
let set_up = Internet.set_up
let queued_messages = Internet.queued_messages
let reassembly_pending = Internet.reassembly_pending
