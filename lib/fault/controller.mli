(** Arms a {!Plan} against a running cluster.

    The controller schedules every plan event as a daemon process at
    its virtual time, maintains the set of currently-broken links, and
    installs a fault injector on the cluster's transport that consults
    that set on every unicast.  Broadcasts always pass: the locate
    protocol stays reliable, as the paper's best-effort datagram layer
    assumed of its short control messages.

    Everything the controller does is driven by the virtual clock and
    a splittable PRNG seeded at {!arm}, so a given (cluster seed, plan,
    controller seed) triple replays identically.

    Counters registered in the cluster's metrics registry:
    [fault.injected] (every fault the controller actually applied) and
    the per-kind breakdown [fault.node_crashes], [fault.node_restarts],
    [fault.disk_failures], [fault.partitions], [fault.link_drops],
    [fault.link_dups], [fault.link_delays], [fault.slow_nodes],
    [fault.joins], [fault.decommissions].  A {!Plan.action.Join_node}
    or {!Plan.action.Decommission_node} the cluster refuses (node
    already a member, last member, powered off by an earlier fault) is
    skipped and not counted — a refusal is a legitimate interleaving
    under chaos, not a plan error.

    A {!Plan.action.Slow_node} degrades a node rather than a link:
    every unicast the node sends {e or} receives is held by the given
    delay (stacking with any link-fault delay; coin-free, so it never
    perturbs the link PRNG stream).  This makes latency {e tails}
    rather than absence — the degradation mode the cloning and hedging
    machinery is built to survive. *)

type t

val arm : ?seed:int64 -> Eden_kernel.Cluster.t -> Plan.t -> t
(** Schedule the plan's events and install the link-fault injector.
    Event times are relative to the virtual instant of arming, so a
    plan armed after a setup phase still means what it says.  [seed]
    feeds the per-message coin flips only. *)

val injected : t -> int
(** Faults applied so far (same value as the [fault.injected]
    counter). *)

val broken_links : t -> (int * int) list
(** Currently-broken (src, dst) pairs, sorted — for tests. *)

val disarm : t -> unit
(** Remove the transport hook and heal all link faults.  Scheduled
    plan events that have not fired yet still fire (they are engine
    processes), but link coins no longer apply. *)
