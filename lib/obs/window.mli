(** Sliding windows over cumulative telemetry.

    A window is a ring of per-tick deltas: the sampler closes one tick
    per virtual-time interval and pushes the amount the underlying
    series moved during it.  Keeping deltas (rather than raw samples)
    keeps storage flat: a window of [ticks] slots is one float array
    written round-robin, following the journal's allocation-light
    idiom (PR 5).  Queries aggregate over the most recent [k] ticks,
    so one ring serves both the short and the long window of a
    multi-window burn-rate rule.

    {!Hist} is the same ring over histogram buckets: per-tick bucket
    deltas, queried as windowed percentile estimates by linear
    interpolation inside the bucket that crosses the rank. *)

type t

val create : ticks:int -> t
(** A window retaining the last [ticks] per-tick deltas.  Raises
    [Invalid_argument] if [ticks <= 0]. *)

val push : t -> float -> unit
(** Close one tick: append its delta, evicting the oldest retained
    tick once the ring is full. *)

val sum_last : t -> int -> float
(** [sum_last w k] sums the newest [min k (filled w)] deltas; [0.0]
    before the first tick. *)

val max_last : t -> int -> float
(** Maximum over the newest [min k (filled w)] deltas; [nan] before
    the first tick. *)

val rate_last : t -> int -> tick:Eden_util.Time.t -> float
(** [rate_last w k ~tick] is the per-second rate over the newest
    [min k (filled w)] ticks of duration [tick] each; [nan] before
    the first tick. *)

(** Windowed histograms: per-tick bucket deltas over the fixed bounds
    of a {!Metrics.histogram}. *)
module Hist : sig
  type h

  val create : ticks:int -> bounds:float array -> h
  (** Bounds follow {!Metrics.histogram}: strictly increasing upper
      bounds plus an implicit overflow bucket.  Raises
      [Invalid_argument] if [ticks <= 0] or [bounds] is empty. *)

  val push : h -> counts:int array -> overflow:int -> unit
  (** Close one tick with the per-bucket observation deltas recorded
      during it.  [counts] must match the bounds length. *)

  val quantile_last : h -> int -> float -> float
  (** [quantile_last h k q] with [q] in [\[0,1\]] estimates the
      [q]-quantile of the observations in the newest [k] ticks:
      nearest rank to the bucket, linear interpolation within it.
      Ranks landing in the overflow bucket report the last bound (the
      estimator cannot see past it).  [nan] when the window holds no
      observations; raises [Invalid_argument] when [q] is out of
      range. *)
end
