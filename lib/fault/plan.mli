(** Fault plans: timed, seeded fault schedules.

    A plan is a list of events on the virtual clock — crash or restart
    a node, fail or restore a checkpoint store, cut or heal an Ethernet
    segment, degrade a point-to-point link.  Plans are pure data:
    nothing happens until a {!Controller} arms one against a cluster.

    Determinism: a plan mentions only virtual times and seeded
    probabilities, so the same (plan, cluster seed) pair always
    produces the same run.

    {2 Text format}

    One event per line, [#] starts a comment, blank lines ignored:

    {v
    at 100ms  crash 1
    at 600ms  restart 1 rebuild
    at 150ms  fail-disk 2
    at 450ms  heal-disk 2
    at 200ms  partition 1
    at 400ms  heal 1
    at 50ms   drop 0->2 p=0.5
    at 60ms   dup 0->2 p=0.25
    at 70ms   delay 0->2 2ms p=1
    at 300ms  heal-link 0->2
    at 100ms  slow 3 5ms
    at 500ms  heal-slow 3
    at 250ms  join 5
    at 800ms  decommission 2
    v}

    Times accept [ns]/[us]/[ms]/[s] suffixes.  Link faults are
    directional ([src->dst] global node addresses) and apply to each
    message on the link independently with probability [p]. *)

type link_kind =
  | Drop
  | Duplicate
  | Delay of Eden_util.Time.t

type action =
  | Crash_node of int
  | Restart_node of { node : int; rebuild : bool }
  | Fail_disk of int
  | Heal_disk of int
  | Partition_segment of int
  | Heal_segment of int
  | Break_link of { src : int; dst : int; kind : link_kind; p : float }
  | Heal_link of { src : int; dst : int }
  | Slow_node of { node : int; by : Eden_util.Time.t }
      (** degrade the node without killing it: every unicast it sends
          or receives is held back by [by].  Creates latency tails —
          the degradation chaos plans need for hedging and cloning to
          bite — where [Crash_node] only creates absence. *)
  | Heal_slow of int
  | Join_node of int
      (** admit a powered non-member (a spare) into the membership via
          {!Eden_kernel.Cluster.join_node} — reconfiguration as a
          plannable event, so joins land under whatever chaos the rest
          of the plan is injecting *)
  | Decommission_node of int
      (** drain and retire a member via
          {!Eden_kernel.Cluster.decommission_node}: evacuate its
          objects, bump the epoch, power it off.  Blocking for the
          controller's daemon process, not for the cluster — traffic
          flows throughout. *)

type event = { at : Eden_util.Time.t; action : action }

type t
(** An event schedule, sorted by time (ties keep make/parse order). *)

val make : event list -> t
(** Sort the events by [at] (stable). *)

val events : t -> event list

val to_string : t -> string
(** Render in the text format; [of_string (to_string p)] is [p]. *)

val of_string : string -> (t, string) result
(** Parse the text format; the error names the offending line. *)

val of_file : string -> (t, string) result

val validate : t -> nodes:int -> segments:int -> (unit, string) result
(** Check every node / segment index is in range, every probability is
    in [\[0,1\]], and no link is a self-loop. *)

val random :
  seed:int64 -> nodes:int -> segments:int -> horizon:Eden_util.Time.t -> t
(** A reproducible random plan for chaos runs: some node crash/restart
    pairs, possibly a disk-failure window and (given several segments)
    a partition window, plus a few lossy-link windows.  Node 0 is
    spared (it drives the workload), and every fault heals before
    [horizon] so recovery can be asserted at the end of the run.
    Requires [nodes >= 2]. *)
