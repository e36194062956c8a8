open Eden_util

type 'a receiver = { mutable slot : 'a option; r_h : Engine.handle }
type 'a sender = { item : 'a; s_h : Engine.handle }

type 'a t = {
  eng : Engine.t;
  capacity : int option;
  buffer : 'a Fifo.t;
  receivers : 'a receiver Fifo.t;
  senders : 'a sender Fifo.t;
}

let create ?capacity eng =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Mailbox.create: capacity must be positive"
  | Some _ | None -> ());
  {
    eng;
    capacity;
    buffer = Fifo.create ();
    receivers = Fifo.create ();
    senders = Fifo.create ();
  }

let is_full mb =
  match mb.capacity with
  | None -> false
  | Some c -> Fifo.length mb.buffer >= c

let rec pop_pending_receiver mb =
  match Fifo.pop mb.receivers with
  | None -> None
  | Some r ->
    if Engine.handle_pending r.r_h then Some r else pop_pending_receiver mb

let rec pop_pending_sender mb =
  match Fifo.pop mb.senders with
  | None -> None
  | Some s ->
    if Engine.handle_pending s.s_h then Some s else pop_pending_sender mb

let try_send mb v =
  match pop_pending_receiver mb with
  | Some r ->
    r.slot <- Some v;
    Engine.wake mb.eng r.r_h;
    true
  | None ->
    if is_full mb then false
    else begin
      Fifo.push_exn mb.buffer v;
      true
    end

let send ?timeout mb v =
  if try_send mb v then true
  else
    match
      Engine.suspend ?timeout (fun h ->
          Fifo.push_exn mb.senders { item = v; s_h = h })
    with
    | Engine.Woken -> true (* the message was taken on our behalf *)
    | Engine.Timed_out -> false

(* After consuming a buffered message, move one blocked sender's message
   into the freed buffer slot. *)
let refill_from_sender mb =
  if not (is_full mb) then
    match pop_pending_sender mb with
    | None -> ()
    | Some s ->
      Fifo.push_exn mb.buffer s.item;
      Engine.wake mb.eng s.s_h

let try_recv mb =
  match Fifo.pop mb.buffer with
  | Some v ->
    refill_from_sender mb;
    Some v
  | None -> None

let recv ?timeout mb =
  match try_recv mb with
  | Some v -> Some v
  | None -> (
    let cell = ref None in
    match
      Engine.suspend ?timeout (fun h ->
          let r = { slot = None; r_h = h } in
          cell := Some r;
          Fifo.push_exn mb.receivers r)
    with
    | Engine.Woken -> (
      match !cell with
      | Some { slot = Some v; _ } -> Some v
      | Some { slot = None; _ } | None ->
        (* A sender that wakes us always fills the slot first. *)
        assert false)
    | Engine.Timed_out -> None)

let length mb = Fifo.length mb.buffer
