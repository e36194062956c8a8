open Eden_util
open Effect
open Effect.Deep

module Pid = struct
  type t = { id : int; pname : string }

  let equal a b = Int.equal a.id b.id
  let compare a b = Int.compare a.id b.id
  let to_int p = p.id
  let name p = p.pname
end

exception Killed
exception Stalled_waiting

type wake = Woken | Timed_out

(* The sampler is deliberately not a queued event: [run] drains the
   event queue to completion, so a self-rescheduling sampler event
   would keep the simulation alive forever, and even a bounded one
   would perturb [n_events].  Instead the run loop interleaves sampler boundaries
   with queued events by time (boundary first on ties), touching neither
   the queue nor the event counter — a run with a sampler executes the
   exact same schedule as one without. *)
type sampler = {
  smp_interval : Time.t;
  mutable smp_next : Time.t;
  smp_fn : unit -> unit;
}

(* Events live in two heaps keyed by event time in ns, numbered from
   one sequence counter.  [timers] holds the timeout of every timed
   wait, [heap] everything else.  Nearly every timeout goes stale (its
   wait is woken long before it fires), so keeping them apart leaves
   the heap that every event touches holding only live work.  The run
   loop pops whichever top is smaller in (time, seq) order: the merged
   order is exactly that of one heap holding both, so equal times run
   in push order across the tiers.  [procs] holds only unfinished
   processes: a process leaves it the moment it returns, raises, or is
   killed before it starts.  [parked] holds fibers whose last process
   has ended, waiting for the next process start (see [exec_body]). *)
type t = {
  mutable clock : Time.t;
  heap : (unit -> unit) Pqueue.t;
  timers : (unit -> unit) Pqueue.t;
  mutable next_seq : int;
  procs : proc Itbl.t;
  pid_gen : Idgen.t;
  root_rng : Splitmix.t;
  mutable n_events : int;
  mutable n_spawned : int;
  mutable running : Pid.t option;
  mutable sampler : sampler option;
  mutable parked : fiber list;
}

and proc = {
  p_pid : Pid.t;
  p_some_pid : Pid.t option;
      (* [Some p_pid], built once rather than on every resume *)
  mutable p_state : proc_state;
  mutable p_killed : bool;
  mutable p_daemon : bool;
}

and proc_state =
  | Sched  (** a start/resume event for this process is in the heap *)
  | Run
  | Blocked of handle

and handle = {
  h_proc : proc;
  mutable h_k : (wake, unit) continuation option;
  mutable h_slot : int;
      (* the timer tier's slot of this wait's timeout, or [-1] *)
}

(* A fiber runs process bodies one after another.  While a process
   lives, its fiber is its stack; when the body returns or raises
   [Killed], the fiber parks itself and the next process start resumes
   it with a new body, so a process start costs neither a fresh stack
   (regrown by copying as the body deepens) nor a fresh handler.  The
   effect answers and the delay wake-up event are built once per
   fiber; [fb_k] holds the fiber's continuation while it sleeps in a
   delay or sits parked, the two suspensions that share its type. *)
and fiber = {
  mutable fb_proc : proc;
  mutable fb_body : unit -> unit;
  mutable fb_k : (unit, unit) continuation;
  fb_wake : unit -> unit;
  fb_on_delay : ((unit, unit) continuation -> unit) option;
  fb_on_park : ((unit, unit) continuation -> unit) option;
  fb_on_self : ((Pid.t, unit) continuation -> unit) option;
}

(* [E_delay] carries its duration in [delay_by] rather than as an
   argument, so performing it allocates nothing.  The handler reads it
   before anything else can run. *)
type _ Effect.t +=
  | E_delay : unit Effect.t
  | E_suspend : Time.t option * (handle -> unit) -> wake Effect.t
  | E_self : Pid.t Effect.t
  | E_park : unit Effect.t

let delay_by = ref Time.zero

(* Raised into a parked fiber to end it: see [retire]. *)
exception Retired

(* The initial [fb_k] of a fresh fiber, overwritten before it is ever
   read.  It is a genuine continuation, already resumed once so that
   it holds no stack. *)
let spent_k : (unit, unit) continuation =
  let got : (unit, unit) continuation option ref = ref None in
  match_with perform E_park
    {
      retc = ignore;
      exnc = ignore;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_park -> Some (fun (k : (a, unit) continuation) -> got := Some k)
          | _ -> None);
    };
  match !got with
  | Some k ->
    discontinue k Retired;
    k
  | None -> assert false

let create ?(seed = 1L) () =
  {
    clock = Time.zero;
    heap = Pqueue.create ~dummy:ignore ();
    timers = Pqueue.create ~dummy:ignore ();
    next_seq = 0;
    procs = Itbl.create 64;
    pid_gen = Idgen.create ();
    root_rng = Splitmix.create seed;
    n_events = 0;
    n_spawned = 0;
    running = None;
    sampler = None;
    parked = [];
  }

let now eng = eng.clock
let fork_rng eng = Splitmix.split eng.root_rng

let push_into q eng time run =
  let seq = eng.next_seq in
  eng.next_seq <- seq + 1;
  Pqueue.push_seq q (Time.to_ns time) seq run

let push_event eng time run = ignore (push_into eng.heap eng time run)
let push_timer eng time run = push_into eng.timers eng time run

(* A wait that ends before its timeout releases the timeout's closure,
   which holds the handle and the process record.  The entry itself
   stays and pops as a no-op ([ignore], the tier's dummy) at its own
   (time, seq), so the schedule and the event count are those of a run
   that kept the closure. *)
let release_timer eng h =
  if h.h_slot >= 0 then begin
    Pqueue.clear eng.timers h.h_slot;
    h.h_slot <- -1
  end

let schedule eng ?(after = Time.zero) f =
  push_event eng (Time.add eng.clock after) f

(* Mark [p] running before its continuation is resumed.  The fiber's
   handler takes over from there: control comes back once the process
   has finished (removed from [procs]) or suspended again (state set by
   the effect branch). *)
let enter eng p =
  eng.running <- p.p_some_pid;
  p.p_state <- Run

let resume_with eng p k v =
  enter eng p;
  if p.p_killed then discontinue k Killed else continue k v

let resume_unit eng p (k : (unit, unit) continuation) =
  enter eng p;
  if p.p_killed then discontinue k Killed else continue k ()

let finish eng p = Itbl.remove eng.procs (Pid.to_int p.p_pid)

let no_body () = ()

(* The fiber's whole life: run a body, retire its process, park until
   the next start hands over another body.  Any exception but [Killed]
   leaves the loop and ends the fiber (the handler's [exnc]). *)
let rec serve eng fb =
  (match fb.fb_body () with () -> () | exception Killed -> ());
  finish eng fb.fb_proc;
  eng.running <- None;
  fb.fb_body <- no_body;
  perform E_park;
  serve eng fb

let new_fiber eng p body =
  let rec fb =
    {
      fb_proc = p;
      fb_body = body;
      fb_k = spent_k;
      fb_wake = (fun () -> resume_unit eng fb.fb_proc fb.fb_k);
      fb_on_delay =
        Some
          (fun k ->
            let p = fb.fb_proc in
            p.p_state <- Sched;
            eng.running <- None;
            fb.fb_k <- k;
            push_event eng (Time.add eng.clock !delay_by) fb.fb_wake);
      fb_on_park =
        Some
          (fun k ->
            fb.fb_k <- k;
            eng.parked <- fb :: eng.parked);
      fb_on_self = Some (fun k -> continue k fb.fb_proc.p_pid);
    }
  in
  fb

let on_suspend eng fb timeout register (k : (wake, unit) continuation) =
  let p = fb.fb_proc in
  let h = { h_proc = p; h_k = Some k; h_slot = -1 } in
  p.p_state <- Blocked h;
  eng.running <- None;
  (match timeout with
  | None -> ()
  | Some d ->
    (* The timeout forgets its slot as it runs: by then the entry has
       popped and the slot may hold another timer. *)
    h.h_slot <-
      push_timer eng (Time.add eng.clock d) (fun () ->
          h.h_slot <- -1;
          match h.h_k with
          | None -> ()
          | Some k ->
            h.h_k <- None;
            resume_with eng p k Timed_out));
  register h

let start_fiber eng fb =
  match_with (serve eng) fb
    {
      retc = ignore;
      exnc =
        (function
        | Retired -> ()
        | e ->
          finish eng fb.fb_proc;
          eng.running <- None;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_delay -> (fb.fb_on_delay : ((a, unit) continuation -> unit) option)
          | E_suspend (timeout, register) ->
            Some (on_suspend eng fb timeout register)
          | E_self -> fb.fb_on_self
          | E_park -> fb.fb_on_park
          | _ -> None);
    }

(* Start [p] on a parked fiber when there is one, else on a new one. *)
let exec_body eng p body =
  enter eng p;
  match eng.parked with
  | fb :: rest ->
    eng.parked <- rest;
    fb.fb_proc <- p;
    fb.fb_body <- body;
    continue fb.fb_k ()
  | [] -> start_fiber eng (new_fiber eng p body)

(* In OCaml 5.1 a continuation that is never resumed keeps its stack
   for good, so a parked fiber must not outlive the engine.  [run]
   ends every parked fiber before it returns. *)
let retire eng =
  let fbs = eng.parked in
  eng.parked <- [];
  List.iter (fun fb -> discontinue fb.fb_k Retired) fbs

let parked_fibers eng = List.length eng.parked

let spawn eng ?(name = "proc") ?at body =
  let id = Idgen.next eng.pid_gen in
  let pid = { Pid.id; pname = name } in
  let p =
    {
      p_pid = pid;
      p_some_pid = Some pid;
      p_state = Sched;
      p_killed = false;
      p_daemon = false;
    }
  in
  Itbl.replace eng.procs id p;
  eng.n_spawned <- eng.n_spawned + 1;
  let start = match at with None -> eng.clock | Some t -> Time.max t eng.clock in
  push_event eng start (fun () ->
      if p.p_killed then finish eng p else exec_body eng p body);
  pid

let find_proc eng pid = Itbl.find_opt eng.procs (Pid.to_int pid)

let kill eng pid =
  match find_proc eng pid with
  | None -> ()
  | Some p -> (
    match p.p_state with
    | Run ->
      p.p_killed <- true;
      (match eng.running with
      | Some r when Pid.equal r pid -> raise Killed
      | Some _ | None ->
        (* Only one process runs at a time, so a Run process that is not
           [eng.running] cannot exist. *)
        assert false)
    | Sched ->
      (* The pending start/resume event will observe [p_killed]. *)
      p.p_killed <- true
    | Blocked h -> (
      p.p_killed <- true;
      match h.h_k with
      | None ->
        (* A wake or timeout event is already in flight; it will observe
           [p_killed] and discontinue. *)
        ()
      | Some k ->
        h.h_k <- None;
        release_timer eng h;
        p.p_state <- Sched;
        push_event eng eng.clock (fun () ->
            enter eng p;
            discontinue k Killed)))

let alive eng pid = Itbl.mem eng.procs (Pid.to_int pid)
let running eng = eng.running

let not_in_process what =
  invalid_arg (Printf.sprintf "Engine.%s: called outside a process" what)

let self () = try perform E_self with Effect.Unhandled _ -> not_in_process "self"

let delay d =
  delay_by := d;
  try perform E_delay with Effect.Unhandled _ -> not_in_process "delay"

let suspend ?timeout register =
  try perform (E_suspend (timeout, register))
  with Effect.Unhandled _ -> not_in_process "suspend"

let wake eng h =
  match h.h_k with
  | None -> ()
  | Some k ->
    h.h_k <- None;
    release_timer eng h;
    let p = h.h_proc in
    p.p_state <- Sched;
    push_event eng eng.clock (fun () -> resume_with eng p k Woken)

let handle_pending h = h.h_k <> None

let set_daemon eng pid =
  match find_proc eng pid with
  | Some p -> p.p_daemon <- true
  | None ->
    (* Pids below the generator's mark were spawned here and have
       finished; marking a finished process is a no-op. *)
    if Pid.to_int pid >= Idgen.peek eng.pid_gen then
      invalid_arg "Engine.set_daemon: unknown process"

let blocked_procs eng =
  Itbl.fold
    (fun _ p acc ->
      match p.p_state with Blocked _ -> p :: acc | Sched | Run -> acc)
    eng.procs []
  |> List.sort (fun a b -> Pid.compare a.p_pid b.p_pid)

(* The tier holding the next event in (time, seq) order; [heap] when
   both are empty. *)
let next_tier eng =
  let h = eng.heap and tm = eng.timers in
  if Pqueue.is_empty tm then h
  else if Pqueue.is_empty h then tm
  else
    let kh = Pqueue.min_key h and kt = Pqueue.min_key tm in
    if kh < kt || (kh = kt && Pqueue.min_seq h < Pqueue.min_seq tm) then h
    else tm

(* When both tiers empty, blocked daemons are discarded and any other
   blocked process is a deadlock: resume it with Stalled_waiting, which
   escapes through [run] unless the process catches it. *)
let handle_idle eng =
  (* Daemons (server loops, coordinators) are expected to be blocked at
     idle; they stay suspended and resume if a later run wakes them.
     Of the others, the lowest pid is resumed. *)
  let stuck =
    Itbl.fold
      (fun _ p lowest ->
        match p.p_state with
        | Blocked _ when not p.p_daemon -> (
          match lowest with
          | Some q when Pid.compare q.p_pid p.p_pid < 0 -> lowest
          | _ -> Some p)
        | Blocked _ | Sched | Run -> lowest)
      eng.procs None
  in
  match stuck with
  | None -> false
  | Some p -> (
    match p.p_state with
    | Blocked h -> (
      match h.h_k with
      | None -> false
      | Some k ->
        h.h_k <- None;
        release_timer eng h;
        enter eng p;
        discontinue k Stalled_waiting;
        true)
    | Sched | Run -> false)

let every eng ~interval f =
  if Time.is_zero interval then invalid_arg "Engine.every: zero interval";
  eng.sampler <-
    Some { smp_interval = interval; smp_next = Time.add eng.clock interval; smp_fn = f }

let run ?until eng =
  (match eng.running with
  | Some _ ->
    invalid_arg "Engine.run: called from inside a process"
  | None -> ());
  let within_limit t =
    match until with None -> true | Some l -> Time.(t <= l)
  in
  (* True when the sampler's next boundary is due at or before [t] (and
     within the run limit): the boundary fires first, so events at the
     boundary instant land in the next window. *)
  let sampler_due t =
    match eng.sampler with
    | Some smp
      when (let n = smp.smp_next in
            Time.(n <= t) && within_limit n) ->
      Some smp
    | Some _ | None -> None
  in
  let fire s =
    eng.clock <- s.smp_next;
    s.smp_next <- Time.add s.smp_next s.smp_interval;
    s.smp_fn ()
  in
  let rec loop () =
    let q = next_tier eng in
    if Pqueue.is_empty q then (if handle_idle eng then loop ())
    else
      let t = Time.ns (Pqueue.min_key q) in
      if not (within_limit t) then (
        match until with
        | None -> assert false
        | Some l -> (
          (* Catch up boundaries inside the limit before parking at it. *)
          match sampler_due l with
          | Some s ->
            fire s;
            loop ()
          | None -> eng.clock <- l))
      else
        match sampler_due t with
        | Some s ->
          fire s;
          loop ()
        | None ->
          let run = Pqueue.pop_exn q in
          eng.clock <- t;
          eng.n_events <- eng.n_events + 1;
          run ();
          loop ()
  in
  match loop () with
  | () -> retire eng
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    retire eng;
    Printexc.raise_with_backtrace e bt

let events_processed eng = eng.n_events
let processes_spawned eng = eng.n_spawned

let blocked_processes eng =
  List.map (fun p -> p.p_pid) (blocked_procs eng)

let live_processes eng = Itbl.length eng.procs

let runnable_processes eng =
  Itbl.fold
    (fun _ p acc ->
      match p.p_state with Sched | Run -> acc + 1 | Blocked _ -> acc)
    eng.procs 0
