(** The node machine's pool of General Data Processors.

    Kernel and invocation processes consume CPU service time through a
    k-server FIFO queue; a 2-GDP node really does run two invocation
    processes at once and queues the rest, which is what experiment E2
    (throughput vs. GDP count) measures. *)

type t

val create : Eden_sim.Engine.t -> gdps:int -> t
(** [gdps] must be positive. *)

val gdps : t -> int

val consume : t -> Eden_util.Time.t -> unit
(** Occupy one processor for the given service time (FIFO queueing).
    Must be called from a process.  Zero-length demands return
    immediately without queueing. *)

val busy_time : t -> Eden_util.Time.t
val utilisation : t -> over:Eden_util.Time.t -> float
val jobs_completed : t -> int
val wait_stats : t -> Eden_util.Stats.t
