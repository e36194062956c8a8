(** A k-server resource with a FIFO queue.

    Models contended hardware: a pool of identical servers (CPUs, disk
    arms).  Jobs acquire a server, hold it for a service time, and
    release it.  The resource records utilisation and queueing-delay
    statistics for the experiment reports. *)

type t

val create : Engine.t -> servers:int -> t
(** [servers] must be positive. *)

val use : t -> Eden_util.Time.t -> unit
(** [use r service] blocks until a server is free, occupies it for
    [service], then releases it.  Must be called from a process. *)

val acquire : t -> unit
(** Take a server (blocking); pair with {!release}.  Prefer {!use}. *)

val release : t -> unit

val busy : t -> int
(** Servers currently occupied. *)

(** {2 Accounting} *)

val jobs_completed : t -> int
val busy_time : t -> Eden_util.Time.t
(** Total server-seconds of service delivered. *)

val utilisation : t -> over:Eden_util.Time.t -> float
(** [busy_time / (servers * over)]; 0 when [over] is zero. *)

val wait_stats : t -> Eden_util.Stats.t
(** Queueing delays (seconds) observed by {!use}/{!acquire}. *)
