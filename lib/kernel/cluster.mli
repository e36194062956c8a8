(** A running Eden system: node machines on a LAN, one kernel each.

    This module is the user-facing surface of the reproduction.  It
    implements the paper's kernel primitives — object and type
    creation, location-independent invocation, checkpoint/checksite/
    crash and reincarnation, move, freeze and replication — across a
    simulated cluster.

    Operations documented as {e blocking} must be called from a
    simulation process (use {!in_process} or {!Eden_sim.Engine.spawn});
    they advance virtual time. *)

type t
type node_id = int

type options = {
  use_hint_cache : bool;
      (** remember where remote objects were last seen (default true) *)
  use_forwarding : bool;
      (** moved objects leave forwarding pointers at their old host
          (default true); without them stale requests are nacked and
          the requester re-locates *)
  coalesce_locates : bool;
      (** concurrent locates of one name share a broadcast
          (default true) *)
  use_replica_cache : bool;
      (** cache the representation of remote frozen objects locally on
          first use and serve later invocations without the round trip
          (default false); entries are hints — rights validate on
          every dispatch, and {!unfreeze} or {!destroy} invalidates
          via the nack path *)
  use_ckpt_delta : bool;
      (** ship checkpoints as deltas (default false): the kernel diffs
          the representation against the last checkpointed version and
          sends only the changed chunks to checksites known to hold
          the current base; a site whose stored version does not match
          nacks, and the write falls back to a full representation
          (counted by [eden.ckpt.fallbacks]) *)
  speculate : Api.speculate;
      (** tail-latency speculation (default {!Api.no_speculation}).
          With [sp_clone], a request whose target is known to have
          read-serving replica sites fans out to the primary plus up
          to [sp_max_sites - 1] of them under one request id; the
          first result wins and every loser receives an urgent
          {!Message.Cancel}.  With [sp_hedge], a non-cloned request
          whose wait exceeds the [sp_quantile] of recently observed
          remote round trips (a sliding {!Eden_obs.Window.Hist} over
          the latency buckets, closed every millisecond) is re-issued
          once — urgently, same id — without abandoning the original.
          Serving nodes keep idempotence bookkeeping keyed by the full
          (origin, sequence) request id, so duplicated, delayed and
          cancelled copies never double-apply; cancelled queued work
          is dropped at dispatch ([eden.cancel.retracted]).  Counters:
          [eden.clone.fanouts], [eden.clone.cancels],
          [eden.hedge.sent], [eden.dedup.dropped]. *)
  use_directory : bool;
      (** the sharded locate directory (default false).  A
          consistent-hash ring over object names assigns each name a
          {e registry shard} — the node recording the name's current
          home and known replica sites — and a requester with no hint
          asks the shard with one unicast ({!Message.Dir_get}) instead
          of broadcasting: O(1) messages per first touch, independent
          of cluster size.  Creation, reincarnation and moves (the
          migration policy's included) publish lease-stamped
          {!Message.Dir_put} updates to the shard; staleness is
          handled lazily — a home that nacks a directory-routed
          request triggers a NACK-on-wrong-home invalidation at the
          shard, and the attempt falls back to the broadcast locate,
          which stays authoritative (reincarnation authority, version
          preference) and repairs the registry as a side effect.
          Misses, expired leases and dead or partitioned shards take
          the same fallback.  Counters:
          [eden.dir.{hits,misses,nacks,fallbacks,leases_expired}];
          journal kinds [Dir_hit]/[Dir_miss]/[Dir_fallback]/
          [Dir_publish]; checker rule 6 pins the
          resolve-or-fall-back discipline. *)
}

val default_options : options

(** {1 Construction} *)

val create :
  ?seed:int64 ->
  ?net:Eden_net.Params.t ->
  ?options:options ->
  ?segments:int list ->
  ?coalesce:Transport.coalesce ->
  ?journal_cap:int ->
  ?health:Eden_obs.Health.config ->
  ?spares:int ->
  configs:Eden_hw.Machine.config list ->
  unit ->
  t
(** Build a cluster with one node per machine config (node ids follow
    list order).  Raises [Invalid_argument] on an empty list.
    [spares] (default 0) racks that many additional default-configured
    machines ("spare0"..) after the configured ones: powered and on
    the LAN from boot, but outside the membership (and the directory
    ring) until {!join_node} admits them; they share the last network
    segment.  [segments] sizes must sum to the {e configured} node
    count, spares excluded.
    [options] disable individual location mechanisms for ablation
    studies (experiment E13).  [segments] partitions the nodes over
    bridged Ethernet segments in id order (e.g. [[3; 2]] puts nodes
    0-2 on one segment and 3-4 on another, joined by a store-and-
    forward bridge); the sizes must sum to the node count.  Default:
    one segment.  [coalesce] enables unicast message coalescing on
    the kernel transport (default off): small messages to one
    destination batch into a single wire transfer under the given
    budgets (see {!Transport.coalesce}).  [journal_cap] bounds each
    node's event journal (default 4096 events; 0 disables retention
    — trace contexts still propagate, but nothing is kept).  Raises
    [Invalid_argument] if negative.  [health] (default off) enables
    the health plane: SLO rules evaluated at the config's virtual-time
    tick via the engine sampler, per-node hot-object sketches fed from
    the invocation and locate paths, alert transitions journalled as
    {!Eden_obs.Journal.Alert} events at node 0, and the
    [eden.health.{alerts_firing,transitions,ticks}] series registered
    in the metrics registry. *)

val default :
  ?seed:int64 ->
  ?options:options ->
  ?coalesce:Transport.coalesce ->
  ?journal_cap:int ->
  ?health:Eden_obs.Health.config ->
  ?spares:int ->
  n_nodes:int ->
  unit ->
  t
(** [n_nodes] default-configured nodes named "node0".."nodeN-1".
    Requires [n_nodes >= 1]. *)

val engine : t -> Eden_sim.Engine.t

val network : t -> Transport.net
(** The cluster's internetwork, for frame counters and topology
    introspection. *)

val node_segment : t -> node_id -> int
val node_count : t -> int
val machine : t -> node_id -> Eden_hw.Machine.t
val node_up : t -> node_id -> bool

(** {1 Types} *)

val node_object : t -> node_id -> Capability.t
(** The paper's node abstraction: "a node is an object that supplies
    virtual memory … and virtual processors".  Each kernel creates one
    [eden_node] object at boot (and again on restart, under the same
    name).  Operations: ["info"] [] -> [Int gdps; Int mem_capacity;
    Int mem_available; Int active_objects]; ["ping"] [] -> [].
    Invoking a downed node's object times out — a heartbeat. *)

val register_type : t -> Typemgr.t -> unit
(** Make a type available on every node.  Raises [Invalid_argument] if
    a different type of the same name is already registered
    (re-registering the identical manager is a no-op). *)

val find_type : t -> string -> Typemgr.t option

(** {1 Kernel primitives} *)

val create_object :
  t ->
  node:node_id ->
  type_name:string ->
  Value.t ->
  (Capability.t, Error.t) result
(** Blocking.  Create a fresh object on [node] with the given initial
    representation; returns a full-rights capability.  The new object
    exists only in the node's volatile memory until it checkpoints. *)

val invoke :
  t ->
  from:node_id ->
  ?timeout:Eden_util.Time.t ->
  ?retry:Api.retry ->
  Capability.t ->
  op:string ->
  Value.t list ->
  Api.invoke_result
(** Blocking.  The paper's synchronous invocation: locate the target
    wherever it lives, deliver the request, await the reply.
    [?timeout] bounds each attempt; [?retry] (default {!Api.no_retry})
    re-issues timed-out attempts with capped exponential backoff —
    recovery is the requester's timeout. *)

val invoke_async :
  t ->
  from:node_id ->
  ?timeout:Eden_util.Time.t ->
  ?retry:Api.retry ->
  Capability.t ->
  op:string ->
  Value.t list ->
  Api.invoke_result Eden_sim.Promise.t
(** Start an invocation without blocking; await the promise later. *)

val move : t -> Capability.t -> to_node:node_id -> (unit, Error.t) result
(** Blocking.  Transfer the object to another node (requires
    [Kernel_move]).  New invocations queue during the transfer and are
    forwarded afterwards; the old host keeps a forwarding pointer. *)

val freeze : t -> Capability.t -> (unit, Error.t) result
(** Blocking.  Make the representation immutable (requires
    [Kernel_checkpoint]); mutating operations subsequently fail with
    [Frozen_immutable], and the object becomes replicable. *)

val unfreeze : t -> Capability.t -> (unit, Error.t) result
(** Thaw a frozen object (requires [Kernel_checkpoint]) so it can
    mutate again.  Refused with [Move_refused] while explicit replicas
    exist (unpin them with {!destroy} or keep the object frozen).
    Unfreezing is the cache version bump: a [Cache_invalidate]
    broadcast drops every node's cached copy of the old representation
    (including a fetch still in flight, whose payload is discarded on
    arrival), so a freeze–mutate–refreeze cycle can never serve stale
    reads.  No-op [Ok] if the object was not frozen. *)

val replicate : t -> Capability.t -> to_node:node_id -> (unit, Error.t) result
(** Blocking.  Install a read-only replica of a frozen object on
    [to_node]; local invocations there are then served without network
    traffic. *)

val checkpoint_of : t -> Capability.t -> (unit, Error.t) result
(** Blocking.  Externally request a checkpoint (requires
    [Kernel_checkpoint]); equivalent to the object calling
    [ctx.checkpoint] at its next quiescent point.  Every checksite
    write — the local disk one included — races a single shared
    acknowledgement deadline, so k unreachable checksites cost one
    timeout, not k. *)

val checkpoint_async_of : t -> Capability.t -> (unit, Error.t) result
(** Start a checkpoint without blocking (requires
    [Kernel_checkpoint]); equivalent to the object calling
    [ctx.checkpoint_async].  The round snapshots the representation at
    call time and runs in a background kernel process; a request made
    while a round is in flight coalesces into one follow-up round.
    [Ok ()] means launched or coalesced, not succeeded — failures
    surface in the [eden.ckpt.*] counters and at reincarnation. *)

val destroy : t -> Capability.t -> (unit, Error.t) result
(** Destroy the object for good (requires [Kernel_destroy]): active
    state is dismantled without passivation, and a broadcast notice
    purges snapshots, replicas and location knowledge from every
    reachable node.  Outstanding requests fail with [No_such_object];
    a snapshot on a powered-off node survives the purge. *)

(** {1 Failure injection} *)

val crash_node : t -> node_id -> unit
(** Power off a machine: every active object and kernel process on it
    dies, volatile memory is lost.  Long-term store survives. *)

val restart_node : ?rebuild:bool -> t -> node_id -> unit
(** Power the machine back on with empty volatile state.  Passive
    objects checkpointed to its disk become reachable again.  With
    [~rebuild:true] (default false) the kernel additionally scans its
    store and proactively reincarnates every object that is active
    nowhere and whose best able checksite is this node — the able site
    (up, working disk, snapshot present) holding the highest snapshot
    version, breaking ties in {!Reliability.checksites} order — so a
    Mirrored object whose sites all restart reactivates exactly once,
    from its newest surviving state. *)

val set_disk_failed : t -> node_id -> bool -> unit
(** Fail (or restore) a node's checkpoint store.  While failed the
    node refuses [Ckpt_write]s, cannot reincarnate passive objects
    (invocation requests routed to it are nacked so the requester
    re-locates), and stays silent on passive locate answers.  Volatile
    state — objects already active there — is unaffected. *)

(** {1 Online reconfiguration}

    The membership table is an epoch-stamped member list.  {!join_node}
    and {!decommission_node} bump the epoch, capture the new epoch's
    member list for its directory ring (built on first lookup) and
    broadcast an [Epoch_announce]; other nodes adopt the view when the
    announce lands (or at their next power-on), and a node serving
    through an old view resolves against that view's own ring.  The
    consistent ring's minimal-remap property bounds the churn to
    roughly 1/n of the name space per membership step, and checker
    rule 7 ({e epoch-monotonic}) pins that views only move
    forward and that a lagging view can cost a detour or a broadcast
    but never a stranded locate. *)

val epoch : t -> int
(** The newest membership epoch any node has initiated (0 at boot). *)

val members : t -> node_id list
(** Current ring members, ascending.  Spares (and decommissioned
    nodes) are powered but absent until {!join_node} admits them. *)

val is_member : t -> node_id -> bool

val is_draining : t -> node_id -> bool
(** True while {!decommission_node} is evacuating the node: it still
    serves traffic, but balancing must not pick it as a target. *)

val join_node : t -> node_id -> (unit, string) result
(** Admit a powered non-member (a spare, or a previously
    decommissioned node after {!restart_node}) into the membership:
    bumps the epoch, rebuilds the ring with the node in it and
    broadcasts the announce.  Non-blocking; traffic keeps flowing —
    names remapped to the newcomer miss at their old shard and are
    lazily republished via the broadcast fallback. *)

val decommission_node : t -> node_id -> (unit, string) result
(** Blocking.  Drain, then leave: every object homed on the node is
    checkpointed (the delta pipeline) and moved to the least-loaded
    surviving member — each move republishing the new home to the
    name's registry shard and journalled as [Drain_move] — then the
    epoch is bumped without the node and it powers off.  Refused for
    non-members, powered-off nodes and the last remaining member.  An
    object whose move fails stays put and reincarnates from its fresh
    checkpoint later. *)

(** {1 Introspection} *)

val where_is : t -> Capability.t -> node_id option
(** The node currently running the object actively (replicas and
    passive copies excluded).  Non-blocking, omniscient (for tests). *)

val is_active : t -> Capability.t -> bool

val tracked_processes : t -> Capability.t -> int option
(** How many invocation processes and subprocesses the object's active
    incarnation keeps for a crash or move to kill.  A process leaves
    the table as its body returns or raises, so this is the number of
    live ones.  [None] when the object is not active. *)

val directory_shard : t -> Name.t -> node_id
(** The registry shard the locate directory assigns to [name] at the
    current epoch — a pure function of the membership, meaningful
    whether or not [use_directory] is on.  Non-blocking (for tests and
    tooling).  The kernel's own routing additionally detours past
    powered-off shards to the next live ring point; this accessor
    reports the canonical owner. *)

val replica_sites : t -> Capability.t -> node_id list
val checkpoint_sites : t -> Capability.t -> node_id list
val active_objects : t -> node_id -> int
val stats_invocations : t -> int
(** Total invocations dispatched (local + remote) since creation. *)

val stats_remote_invocations : t -> int

(** {1 Observability}

    Every cluster owns a metrics registry.  The kernel instruments the
    invocation path (per-node counters for invocations, hint-cache hits
    and misses, locate broadcasts, nacks and checkpoints, plus an
    end-to-end latency histogram), and registers sampled collectors
    over the network, engine and hardware counters.  What each
    invocation was (operation, target, origin node, outcome, start and
    finish, and the invocation that made it) is the journal's record,
    below: its [Inv_begin] and [Inv_end] events. *)

val metrics : t -> Eden_obs.Metrics.t
(** The registry; callers may add their own instruments. *)

val metrics_snapshot : t -> Eden_obs.Snapshot.t
(** Sample every instrument at the current virtual time. *)

(** {2 Event journals and causal traces}

    Each node keeps a bounded {!Eden_obs.Journal} of the distributed
    steps it takes: sends and receives (linked by the trace context
    that rides in every kernel message's envelope), wire-level fault
    and coalescing decisions, invocation begin/retry/end, checkpoint
    rounds, replica-cache installs/invalidations and reincarnations.
    Per-node [eden.journal.events] and [eden.journal.dropped] counters
    appear in {!metrics_snapshot}. *)

val journal : t -> node_id -> Eden_obs.Journal.t
(** A node's journal.  It survives {!crash_node} — the journal is
    observer state, not simulated volatile memory. *)

val journals : t -> Eden_obs.Journal.t list
(** All journals, in node-id order. *)

val timeline : t -> Eden_obs.Timeline.t
(** Merge every node's journal into one deterministic timeline (see
    {!Eden_obs.Timeline.assemble}); feed it to
    {!Eden_obs.Timeline.to_chrome_json} or {!Eden_obs.Check.run}. *)

val journal_dropped : t -> int
(** Total ring-overflow drops across all nodes.  Non-zero means
    assembled traces are incomplete; pass [~complete:false] to
    {!Eden_obs.Check.run}. *)

(** {2 Health plane}

    Present only when the cluster was built with [~health]; all three
    accessors are cheap and deterministic. *)

val health : t -> Eden_obs.Health.t option
(** The SLO evaluator (rule statuses, report, JSON export). *)

val hot_objects : t -> ?k:int -> node_id -> Eden_obs.Topk.entry list
(** The [k] (default 10) hottest objects as seen from one node's
    sketch — invocations issued there plus locate broadcasts for
    hard-to-find names.  Empty without the health plane. *)

val hot_objects_rollup : t -> ?k:int -> unit -> Eden_obs.Topk.entry list
(** Cluster-wide rollup: the per-node sketches merged under
    {!Eden_obs.Topk.merge}'s conservative error accounting.  This
    report is the input the migration policy consumes.  Empty without
    the health plane. *)

(** {1 Running} *)

val in_process :
  t -> ?name:string -> (unit -> unit) -> Eden_sim.Engine.Pid.t
(** Spawn a driver process (for tests and examples). *)

val run : ?until:Eden_util.Time.t -> t -> unit
(** Run the simulation (see {!Eden_sim.Engine.run}). *)
