(** The kernel interface seen from inside an object.

    Every operation handler, reincarnation handler and behaviour
    receives a {!ctx}: the set of kernel-supplied facilities available
    to type code.  From the outside an object is just a capability; the
    two-level view the paper describes — single-level for the invoker,
    explicit location / concurrency / recovery for the type programmer
    — lives entirely in this record. *)

type invoke_result = (Value.t list, Error.t) result

type retry = {
  r_max : int;  (** additional attempts after the first (0 = try once) *)
  r_base : Eden_util.Time.t;  (** backoff before the first retry *)
  r_cap : Eden_util.Time.t;  (** ceiling on any single backoff *)
}
(** Invocation retry policy: recovery is the requester's timeout (paper
    Section 3.2), so a timed-out attempt may be re-issued after a
    capped exponential backoff ([r_base], [2*r_base], [4*r_base], ...
    never exceeding [r_cap]).  Only [Error.Timeout] is retried — every
    other failure is a definitive answer from the system. *)

val no_retry : retry
(** Try exactly once (the historical behaviour). *)

val default_retry : retry
(** 3 retries, 50ms base, 2s cap. *)

val backoff : retry -> int -> Eden_util.Time.t
(** [backoff p i] is the pause before re-issuing after failed attempt
    [i] (0-based): [min r_cap (r_base * 2^i)]. *)

type speculate = {
  sp_clone : bool;
      (** clone read requests on frozen objects to every known replica
          site, first response wins, losers are cancelled *)
  sp_hedge : bool;
      (** re-issue a non-cloned request that has outrun the windowed
          latency quantile below, without abandoning the original *)
  sp_max_sites : int;
      (** cap on the total fan-out of one cloned request, the primary
          destination included (at least 2) *)
  sp_quantile : float;
      (** the hedged retry fires when an attempt's wait exceeds this
          quantile of recently observed remote round trips — strictly
          inside (0,1); 0.95 hedges roughly the slowest 5% *)
}
(** Speculation policy for the invocation hot path.  Cloning and
    hedging both trade duplicate work for tail latency; the serving
    side's idempotence bookkeeping makes the duplicates harmless. *)

val no_speculation : speculate
(** Both mechanisms off (the historical behaviour). *)

val validate_speculate : speculate -> (unit, string) result

type ctx = {
  self : Capability.t;  (** full-rights capability for this object *)
  node_id : unit -> int;  (** the node currently executing us *)
  now : unit -> Eden_util.Time.t;
  random : Eden_util.Splitmix.t;  (** per-object deterministic stream *)
  compute : Eden_util.Time.t -> unit;
      (** consume CPU service time on this node's processor pool *)
  log : string -> unit;
      (** record a [Log] event for this object in its home node's
          journal; each message roots its own trace *)
  (* representation *)
  get_repr : unit -> Value.t;
  set_repr : Value.t -> (unit, Error.t) result;
      (** fails with [Frozen_immutable] on frozen objects *)
  (* invocation of other objects; [?timeout] bounds each attempt and
     [?retry] (default {!no_retry}) re-issues timed-out attempts with
     capped exponential backoff *)
  invoke :
    ?timeout:Eden_util.Time.t ->
    ?retry:retry ->
    Capability.t ->
    op:string ->
    Value.t list ->
    invoke_result;
  invoke_async :
    ?timeout:Eden_util.Time.t ->
    ?retry:retry ->
    Capability.t ->
    op:string ->
    Value.t list ->
    invoke_result Eden_sim.Promise.t;
  create_object :
    type_name:string ->
    ?node:int ->
    Value.t ->
    (Capability.t, Error.t) result;
      (** create a sibling object (default: on this node) *)
  (* reliability *)
  checkpoint : unit -> (unit, Error.t) result;
      (** synchronous: returns once every checksite acknowledged (or
          the shared acknowledgement deadline expired) *)
  checkpoint_async : unit -> (unit, Error.t) result;
      (** start a checkpoint of the current representation and return
          immediately; the local-disk and remote-site writes proceed in
          the background against one shared deadline.  A request made
          while a round is already in flight coalesces into one
          follow-up round that snapshots the then-current
          representation.  [Ok ()] means the round was launched (or
          coalesced), not that it succeeded — failures surface in the
          [eden.ckpt.*] counters and, as ever, at reincarnation
          time. *)
  set_reliability : Reliability.t -> (unit, Error.t) result;
  crash : unit -> unit;
      (** destroy all active state; does not return (the invocation
          process is killed) *)
  (* location *)
  move_to : int -> (unit, Error.t) result;
  freeze : unit -> unit;
  replicate_to : int -> (unit, Error.t) result;
      (** install a read-only replica of this frozen object *)
  (* intra-object communication, the kernel's semaphore and message
     port primitives; names are scoped to this object and created on
     first use, shared across its invocations and behaviours *)
  semaphore : string -> init:int -> Eden_sim.Semaphore.t;
  port : string -> Value.t Eden_sim.Mailbox.t;
  (* concurrency *)
  spawn_subprocess : (unit -> unit) -> unit;
      (** a subordinate process of the current invocation; it is killed
          with the object on crash *)
}

type handler = ctx -> Value.t list -> invoke_result
(** An operation implementation. *)

val reply : Value.t list -> invoke_result
val reply_unit : invoke_result
val user_error : string -> invoke_result
val bad_arguments : string -> invoke_result

val arg1 : Value.t list -> (Value.t, Error.t) result
val arg2 : Value.t list -> (Value.t * Value.t, Error.t) result
val no_args : Value.t list -> (unit, Error.t) result

val int_arg : Value.t -> (int, Error.t) result
val str_arg : Value.t -> (string, Error.t) result
val cap_arg : Value.t -> (Capability.t, Error.t) result

val ( let* ) :
  ('a, Error.t) result -> ('a -> ('b, Error.t) result) -> ('b, Error.t) result
