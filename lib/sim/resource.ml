open Eden_util

type t = {
  eng : Engine.t;
  nservers : int;
  sem : Semaphore.t;
  mutable nbusy : int;
  mutable completed : int;
  mutable total_busy : Time.t;
  waits : Stats.t;
}

let create eng ~servers =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  {
    eng;
    nservers = servers;
    sem = Semaphore.create eng ~init:servers;
    nbusy = 0;
    completed = 0;
    total_busy = Time.zero;
    waits = Stats.create ();
  }

let acquire r =
  let started = Engine.now r.eng in
  let got = Semaphore.acquire r.sem in
  (* No timeout was passed, so acquisition cannot fail. *)
  assert got;
  Stats.add_time r.waits (Time.diff (Engine.now r.eng) started);
  r.nbusy <- r.nbusy + 1

let release r =
  r.nbusy <- r.nbusy - 1;
  Semaphore.release r.sem

let use r service =
  acquire r;
  let finish () =
    release r;
    r.completed <- r.completed + 1
  in
  match Engine.delay service with
  | () ->
    r.total_busy <- Time.add r.total_busy service;
    finish ()
  | exception e ->
    (* Killed mid-service: the server is still released. *)
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

let busy r = r.nbusy
let jobs_completed r = r.completed
let busy_time r = r.total_busy

let utilisation r ~over =
  if Time.is_zero over then 0.0
  else Time.to_sec r.total_busy /. (Float.of_int r.nservers *. Time.to_sec over)

let wait_stats r = r.waits
