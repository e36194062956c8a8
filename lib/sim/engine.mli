(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and an event queue in two tiers:
    the timeouts of timed waits ({!suspend} with [~timeout]) in one
    heap, every other event in another, both numbered from one
    sequence counter and merged in (time, sequence) order, so the
    tiers change the cost of a run but never its schedule.  A wait
    that ends before its timeout releases the timeout's closure; the
    timeout's entry stays in its heap and pops as a no-op.  Work is
    expressed as {e processes}: ordinary OCaml functions that may call
    the blocking operations {!delay} and {!suspend}, which are
    implemented with effect handlers so that a process is suspended and
    resumed without threads.  [delay Time.zero] reschedules a process
    behind the work already queued for the current instant.  A process runs on a reusable fiber:
    when one ends, its fiber (stack and handler) serves the next
    process start, and {!run} frees the idle ones before returning.
    Events scheduled for the same instant run
    in schedule order, so a run is a pure function of the seed and the
    program.

    Blocking synchronisation primitives (conditions, semaphores,
    mailboxes, resources) are built outside this module from {!suspend}
    / {!wake}. *)

module Pid : sig
  type t

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_int : t -> int
  val name : t -> string
end

type t

exception Killed
(** Raised inside a process that is being killed, at its current
    blocking point, so that [Fun.protect] finalisers run. *)

exception Stalled_waiting
(** Raised inside a process whose suspension can never be woken because
    the simulation ran out of events while it was blocked (detected at
    end of run; see {!run}). *)

type wake =
  | Woken  (** {!wake} was called on the suspension. *)
  | Timed_out  (** The [timeout] given to {!suspend} elapsed first. *)

type handle
(** A suspended process, as stored by blocking primitives. *)

val create : ?seed:int64 -> unit -> t
(** A fresh engine with clock at {!Eden_util.Time.zero}.  [seed]
    (default 1) drives {!fork_rng}. *)

val now : t -> Eden_util.Time.t
val fork_rng : t -> Eden_util.Splitmix.t
(** An independent PRNG stream for one stochastic component. *)

val spawn :
  t -> ?name:string -> ?at:Eden_util.Time.t -> (unit -> unit) -> Pid.t
(** [spawn t f] registers a process whose body [f] starts at time [at]
    (default: now).  May be called from inside or outside processes.
    An exception escaping [f] (other than {!Killed}) aborts the run. *)

val kill : t -> Pid.t -> unit
(** Terminate a process.  A blocked or scheduled process receives
    {!Killed} at its suspension point; killing a finished or unknown
    process is a no-op.  A process may kill itself, in which case
    {!Killed} is raised immediately. *)

val alive : t -> Pid.t -> bool

val running : t -> Pid.t option
(** The process whose code is executing, or [None] when the engine is
    running a plain callback or is not running.  Unlike {!self} it
    performs no effect and may be called from anywhere. *)

val schedule : t -> ?after:Eden_util.Time.t -> (unit -> unit) -> unit
(** [schedule t f] runs the plain (non-blocking) callback [f] at
    [now + after] (default: now).  [f] must not perform blocking
    operations. *)

(** {2 Operations callable only inside a process} *)

val self : unit -> Pid.t
val delay : Eden_util.Time.t -> unit
(** Advance virtual time for this process. *)

val suspend : ?timeout:Eden_util.Time.t -> (handle -> unit) -> wake
(** [suspend register] blocks the calling process.  [register] is called
    with the suspension handle before control returns to the engine;
    the primitive stores it and later calls {!wake}.  If [timeout] is
    given and elapses first, the process resumes with {!Timed_out}. *)

(** {2 Waking} *)

val wake : t -> handle -> unit
(** Schedule the suspended process to resume (with {!Woken}) at the
    current instant.  Waking a handle that has already been woken,
    timed out, or whose process was killed is a no-op. *)

val handle_pending : handle -> bool
(** Whether {!wake} on this handle would still resume a process; lets
    primitives skip stale queue entries. *)

(** {2 Running} *)

val run : ?until:Eden_util.Time.t -> t -> unit
(** Process events in time order until none remain or the clock would
    pass [until].  When the events run out while non-daemon
    processes are still suspended with no timeout, those processes are
    resumed with {!Stalled_waiting} (a deadlock diagnostic).  Raises
    [Invalid_argument] if called from inside a process. *)

val every : t -> interval:Eden_util.Time.t -> (unit -> unit) -> unit
(** Install the engine's periodic sampler: from the current clock, [f]
    runs at every multiple of [interval] while events remain, as a
    plain non-blocking callback (like {!schedule} bodies).  The sampler
    is interleaved with queued events by time — at a shared instant the
    sampler fires first, so events landing exactly on a boundary count
    toward the next sample — but it is {e not} a queued event: it never
    extends the run past the last real event, never perturbs
    {!events_processed}, and a run with a sampler executes the exact
    same event schedule as one without (the observability plane rides
    along without disturbing what it observes).  One sampler per
    engine; a second call replaces the first.  Raises
    [Invalid_argument] on a zero interval. *)

val set_daemon : t -> Pid.t -> unit
(** Mark a process as expected to be blocked at end of run (server
    loops, coordinators).  Daemons are exempt from stall detection and
    stay suspended across successive {!run} calls, resuming when later
    work wakes them.  Marking a process that has already finished is a
    no-op; a pid this engine never issued raises [Invalid_argument]. *)

val events_processed : t -> int
val processes_spawned : t -> int
val live_processes : t -> int

val parked_fibers : t -> int
(** Fibers waiting for a process to run.  A process runs on a fiber
    (an effect-handler stack); when its body returns or raises
    {!Killed}, the fiber parks and the next process start reuses it.
    {!run} retires every parked fiber before it returns, so this is 0
    whenever no run is in progress. *)

val runnable_processes : t -> int
(** Live processes that are scheduled or running (not suspended): the
    instantaneous depth of the runnable queue. *)

val blocked_processes : t -> Pid.t list
(** Processes currently suspended on {!suspend} (diagnostics for
    deadlock reports), ordered by pid. *)
