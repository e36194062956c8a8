open Eden_util

type t = {
  eng : Engine.t;
  mutable count : int;
  queue : Engine.handle Fifo.t;
}

let create eng ~init =
  if init < 0 then invalid_arg "Semaphore.create: negative init";
  { eng; count = init; queue = Fifo.create () }

let try_acquire s =
  if s.count > 0 then begin
    s.count <- s.count - 1;
    true
  end
  else false

let acquire ?timeout s =
  if try_acquire s then true
  else
    match Engine.suspend ?timeout (fun h -> Fifo.push_exn s.queue h) with
    | Engine.Woken -> true (* the releaser handed us its permit *)
    | Engine.Timed_out -> false

let release s =
  let rec hand_off () =
    match Fifo.pop s.queue with
    | None -> s.count <- s.count + 1
    | Some h ->
      if Engine.handle_pending h then Engine.wake s.eng h else hand_off ()
  in
  hand_off ()

let permits s = s.count
