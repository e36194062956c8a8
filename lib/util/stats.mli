(** Sample statistics for experiment measurements.

    {!t} accumulates full samples and reports mean, extremes and exact
    percentiles; samples equal to [+0.0] are only counted, so a
    mostly-zero sample (queueing delays at a free server) costs storage
    in proportion to its non-zero values.  {!Running} keeps count, sum
    and extremes in constant space, for per-event figures that only
    need a mean. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_time : t -> Time.t -> unit
(** Record a duration, in seconds. *)

val count : t -> int
val total : t -> float
val mean : t -> float
(** 0 on an empty sample. *)

val min_value : t -> float
(** Raises [Invalid_argument] on an empty sample. *)

val max_value : t -> float
(** Raises [Invalid_argument] on an empty sample. *)

val percentile : t -> float -> float
(** [percentile s p] with [p] in [\[0,100\]], nearest-rank on the sorted
    sample.  Raises [Invalid_argument] on an empty sample or [p] out of
    range — an empty sample has no order statistics, and a silent [0.0]
    or [nan] would flow into downstream comparisons unnoticed.  Callers
    sampling windows that may legitimately be empty should test
    {!count} first (the health plane's windowed estimators instead
    return [nan] for "no data", which its rule evaluation treats as
    never breaching). *)

val median : t -> float
(** [percentile s 50.0]: same empty-sample and ordering contract. *)

val merge : t -> t -> t
(** A fresh statistic over the union of both samples. *)

val pp_summary : Format.formatter -> t -> unit
(** ["n=.. mean=.. p50=.. p99=.. max=.."] *)

module Running : sig
  type r
  (** Count, sum, minimum and maximum of a stream of values, in
      constant space. *)

  val create : unit -> r
  val add_time : r -> Time.t -> unit
  (** Record a duration, in seconds. *)

  val count : r -> int

  val mean : r -> float
  (** The values summed in the order they were added, over [count]:
      bit-equal to a left fold of [( +. )] from [0.0], divided by the
      count.  0 on an empty stream. *)

  val min_value : r -> float
  (** Raises [Invalid_argument] on an empty stream. *)

  val max_value : r -> float
  (** Raises [Invalid_argument] on an empty stream. *)
end
