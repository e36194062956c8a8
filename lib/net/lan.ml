open Eden_util
open Eden_sim

type dest = Unicast of int | Broadcast

type 'a frame = {
  src : int;
  dest : dest;
  bytes : int;
  payload : 'a;
  sent_at : Time.t;
}

type medium_state = Idle | Contending | Busy

type counters = {
  frames_sent : int;
  frames_broadcast : int;
  frames_delivered : int;
  frames_dropped : int;
  payload_bytes_delivered : int;
  collision_events : int;
  backoffs : int;
}

(* A station's transmit queue.  The MAC holds at most one of its frames
   at a time, as an [attempt]; the rest wait here.  [st_parked] is set
   when the station is powered on with nothing to send, so the next
   {!send} must start the MAC itself. *)
type 'a station = {
  st_lan : 'a t;
  st_addr : int;
  st_name : string;
  st_queue : 'a frame Fifo.t;
  mutable st_parked : bool;
  mutable st_receive : ('a frame -> unit) option;
}

(* One frame inside the MAC: its station and the attempt number. *)
and 'a attempt = { a_st : 'a station; a_frame : 'a frame; a_n : int }

and 'a t = {
  eng : Engine.t;
  prm : Params.t;
  rng : Splitmix.t;
  mutable stations : 'a station array;
  waiters : 'a attempt Fifo.t;  (** sensed a busy medium, in arrival order *)
  mutable state : medium_state;
  mutable window : 'a attempt list;  (** contenders in the open window, newest first *)
  mutable busy : Time.t;
  mutable c_sent : int;
  mutable c_broadcast : int;
  mutable c_delivered : int;
  mutable c_dropped : int;
  mutable c_bytes : int;
  mutable c_collisions : int;
  mutable c_backoffs : int;
  latencies : Stats.Running.r;
  mutable collision_hook : (int -> unit) option;
}

let create ?(params = Params.default) eng =
  Params.validate params;
  {
    eng;
    prm = params;
    rng = Engine.fork_rng eng;
    stations = [||];
    waiters = Fifo.create ();
    state = Idle;
    window = [];
    busy = Time.zero;
    c_sent = 0;
    c_broadcast = 0;
    c_delivered = 0;
    c_dropped = 0;
    c_bytes = 0;
    c_collisions = 0;
    c_backoffs = 0;
    latencies = Stats.Running.create ();
    collision_hook = None;
  }

let params lan = lan.prm
let address st = st.st_addr
let on_receive st f = st.st_receive <- Some f
let on_collision lan f = lan.collision_hook <- Some f

let deliver lan frame addr =
  let st = lan.stations.(addr) in
  lan.c_delivered <- lan.c_delivered + 1;
  lan.c_bytes <- lan.c_bytes + frame.bytes;
  Stats.Running.add_time lan.latencies
    (Time.diff (Engine.now lan.eng) frame.sent_at);
  match st.st_receive with None -> () | Some f -> f frame

let schedule_delivery lan frame =
  Engine.schedule lan.eng ~after:lan.prm.prop_delay (fun () ->
      match frame.dest with
      | Unicast a -> deliver lan frame a
      | Broadcast ->
        Array.iter
          (fun st -> if st.st_addr <> frame.src then deliver lan frame st.st_addr)
          lan.stations)

(* The MAC is a state machine driven by engine events: every step
   below runs as one event, and each step schedules the next, so a
   frame's path through carrier sense, contention, backoff and
   transmission costs exactly one event per step and no process. *)

(* Carrier sense.  A busy medium queues the attempt until the medium
   goes idle; otherwise it joins the contention window, opening one if
   the medium was idle. *)
let rec sense lan a =
  match lan.state with
  | Busy -> Fifo.push_exn lan.waiters a
  | Idle ->
    lan.state <- Contending;
    Engine.schedule lan.eng ~after:lan.prm.slot (fun () -> close_window lan);
    lan.window <- [ a ]
  | Contending -> lan.window <- a :: lan.window

(* The medium went idle: every waiter senses again, in arrival order,
   one event each. *)
and wake_waiters lan =
  match Fifo.pop lan.waiters with
  | None -> ()
  | Some a ->
    Engine.schedule lan.eng (fun () -> sense lan a);
    wake_waiters lan

(* The window-close event: decide who owns the medium.  The station
   that opened the window joined it in the same event, so it is never
   empty. *)
and close_window lan =
  let newest_first = lan.window in
  lan.window <- [];
  lan.state <- Busy;
  match newest_first with
  | [ a ] -> Engine.schedule lan.eng (fun () -> transmit lan a)
  | _ ->
    let several = List.rev newest_first in
    lan.c_collisions <- lan.c_collisions + 1;
    (match lan.collision_hook with
    | Some f -> f (List.length several)
    | None -> ());
    Engine.schedule lan.eng ~after:lan.prm.jam (fun () ->
        lan.state <- Idle;
        wake_waiters lan);
    List.iter
      (fun a -> Engine.schedule lan.eng (fun () -> collided lan a))
      several

(* The winner: the contention slot already elapsed, so occupy the
   medium for the remainder of the frame, then release it and
   deliver. *)
and transmit lan a =
  let ft = Params.frame_time lan.prm ~payload_bytes:a.a_frame.bytes in
  let remainder =
    if Time.(ft > lan.prm.slot) then Time.diff ft lan.prm.slot else Time.zero
  in
  Engine.schedule lan.eng ~after:remainder (fun () ->
      lan.busy <- Time.add lan.busy ft;
      lan.state <- Idle;
      wake_waiters lan;
      schedule_delivery lan a.a_frame;
      next_frame a.a_st)

(* A collider backs off a random number of slots, or drops the frame
   once it has used its attempts. *)
and collided lan a =
  if a.a_n >= lan.prm.max_attempts then begin
    lan.c_dropped <- lan.c_dropped + 1;
    next_frame a.a_st
  end
  else begin
    lan.c_backoffs <- lan.c_backoffs + 1;
    let exponent = Stdlib.min a.a_n lan.prm.backoff_limit in
    let window_slots = (1 lsl exponent) - 1 in
    let k = if window_slots = 0 then 0 else Splitmix.int lan.rng (window_slots + 1) in
    Engine.schedule lan.eng ~after:(Time.scale lan.prm.slot k) (fun () ->
        sense lan { a with a_n = a.a_n + 1 })
  end

(* The station is done with its frame: start the next queued one in
   the same event, or park until {!send} brings one. *)
and next_frame st =
  match Fifo.pop st.st_queue with
  | Some frame -> sense st.st_lan { a_st = st; a_frame = frame; a_n = 1 }
  | None -> st.st_parked <- true

let attach lan ~name =
  let addr = Array.length lan.stations in
  let st =
    {
      st_lan = lan;
      st_addr = addr;
      st_name = name;
      st_queue = Fifo.create ();
      st_parked = false;
      st_receive = None;
    }
  in
  lan.stations <- Array.append lan.stations [| st |];
  (* Power-on: until this event runs, frames sent to the station
     queue up. *)
  Engine.schedule lan.eng (fun () -> next_frame st);
  st

let send st ~dest ~bytes payload =
  let lan = st.st_lan in
  if bytes < 0 || bytes > lan.prm.max_frame_bytes then
    invalid_arg "Lan.send: payload size out of range";
  (match dest with
  | Unicast a ->
    if a = st.st_addr then invalid_arg "Lan.send: destination is self";
    if a < 0 || a >= Array.length lan.stations then
      invalid_arg "Lan.send: no such station"
  | Broadcast -> lan.c_broadcast <- lan.c_broadcast + 1);
  lan.c_sent <- lan.c_sent + 1;
  let frame =
    { src = st.st_addr; dest; bytes; payload; sent_at = Engine.now lan.eng }
  in
  if st.st_parked then begin
    st.st_parked <- false;
    Engine.schedule lan.eng (fun () ->
        sense lan { a_st = st; a_frame = frame; a_n = 1 })
  end
  else Fifo.push_exn st.st_queue frame

let counters lan =
  {
    frames_sent = lan.c_sent;
    frames_broadcast = lan.c_broadcast;
    frames_delivered = lan.c_delivered;
    frames_dropped = lan.c_dropped;
    payload_bytes_delivered = lan.c_bytes;
    collision_events = lan.c_collisions;
    backoffs = lan.c_backoffs;
  }

let utilisation lan ~over =
  if Time.is_zero over then 0.0
  else Time.to_sec lan.busy /. Time.to_sec over

let latency_stats lan = lan.latencies
