(** Declarative SLO watchdogs over windowed metrics.

    A {!t} owns a set of {!Window} rings fed from a {!Metrics} registry
    at a fixed virtual-time tick (the cluster wires {!tick} to
    [Engine.every]), and evaluates each {!rule} with the multi-window
    burn-rate discipline: a rule starts {e firing} only when both the
    short and the long window breach its threshold (a brief spike with
    a healthy long window stays quiet), and returns to {e ok} only when
    neither breaches (the long window's memory gives the hysteresis).
    Signals with no data yet — an empty window, a zero denominator —
    evaluate to [nan], which never breaches.

    Evaluation is driven entirely by virtual time over deterministic
    aggregates, so same-seed runs produce byte-identical reports and
    the identical sequence of alert transitions. *)

type signal =
  | Rate of string
      (** Per-second rate of a counter over the window, summed across
          its label sets (per-node counters roll up cluster-wide). *)
  | Ratio of string * string
      (** Windowed delta of the first counter divided by the windowed
          delta of the second ([nan] when the denominator is zero) —
          e.g. retries per invocation:
          [Ratio ("eden.retries", "eden.invocations")]. *)
  | Share of string * string
      (** [a / (a + b)] over windowed counter deltas — e.g. cache hits
          against misses. *)
  | Quantile of string * float
      (** Windowed quantile (in [0,1]) of a histogram, bucket deltas
          summed across label sets, estimated per
          {!Window.Hist.quantile_last}. *)
  | Gauge_max of string
      (** Maximum of the gauge across label sets and across the ticks
          of the window — depth-style signals (queues, in-flight
          checkpoints) alert on their recent worst case. *)

type cmp = Above | Below

type rule = {
  r_name : string;
  r_signal : signal;
  r_cmp : cmp;
  r_threshold : float;  (** breach when the value is strictly beyond *)
}

type config = {
  hc_tick : Eden_util.Time.t;  (** sampling interval (virtual time) *)
  hc_short : int;  (** short-window length in ticks *)
  hc_long : int;  (** long-window length in ticks; also ring size *)
  hc_rules : rule list;
}

val default_config : config
(** Watchdogs over the standard cluster metrics — p99 invocation
    latency, retry ratio, replica-cache hit share, async-checkpoint
    lag, object queue depth and pending remote requests — sampled
    every 250 virtual ms, short window 4 ticks (1 s), long window 24
    ticks (6 s). *)

type t

val create :
  ?on_transition:(rule -> firing:bool -> value:float -> unit) ->
  config ->
  Metrics.t ->
  t
(** Builds the windows and reads the registry once to baseline every
    tracked counter, so pre-existing totals do not appear as a burst in
    the first tick.  [on_transition] fires on every state change with
    the rule and its short-window value.  Raises [Invalid_argument] on
    a zero tick, [hc_short < 1] or [hc_long < hc_short]. *)

val tick : t -> unit
(** Close one tick: read the registry, push per-tick deltas into every
    window, re-evaluate all rules and report transitions. *)

val ticks : t -> int
(** Ticks closed so far. *)

val firing : t -> int
(** Rules currently firing. *)

val transitions : t -> int
(** Total state changes since creation. *)

val report : t -> string
(** Deterministic fixed-width text dashboard (the [edenctl health]
    body). *)

val to_json : t -> Json.t
(** Schema [eden-health/1]; [nan] values export as [null]. *)
