(** The cluster-wide metrics registry.

    Components register named instruments — monotonic counters, gauges
    and fixed-bucket histograms — optionally distinguished by labels
    (per-node, per-segment, per-category).  The registry can be sampled
    at any virtual time into a deterministic, sorted list of samples;
    {!Snapshot} turns that list into JSON.

    Two registration styles coexist:

    - {e owned} instruments ({!counter}, {!histogram}) return
      a handle the instrumented code updates on its hot path;
    - {e sampled} instruments ({!register_counter_fn},
      {!register_gauge_fn}) wrap a closure that is read at sample time,
      for components that already maintain their own cumulative
      counters (LAN frame counts, engine event counts, CPU busy time).

    Registering the same [(name, labels)] pair twice returns the
    existing instrument when the kind matches and raises
    [Invalid_argument] when it does not, so independent subsystems can
    share an instrument by name. *)

type t

type labels = (string * string) list
(** Order-insensitive; stored and exported sorted by key. *)

val create : unit -> t

(** {1 Owned instruments} *)

type counter

val counter : t -> ?labels:labels -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative amount (counters are
    monotonic). *)

val counter_value : counter -> int

type histogram

val histogram : t -> ?labels:labels -> buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an observation [v]
    lands in the first bucket with [v <= bound], or in the overflow
    count beyond the last bound.  Raises [Invalid_argument] on an empty
    or non-increasing bound array.  Re-registration requires identical
    bounds. *)

val observe : histogram -> float -> unit
(** Histograms record magnitudes: NaN, negative and infinite
    observations are silently dropped (a NaN would poison the running
    sum, a negative would land in the first bucket). *)

val observe_time : histogram -> Eden_util.Time.t -> unit
(** Record a duration in seconds, with the same guard as {!observe}. *)

(** {1 Sampled instruments} *)

val register_counter_fn : t -> ?labels:labels -> string -> (unit -> int) -> unit
val register_gauge_fn : t -> ?labels:labels -> string -> (unit -> float) -> unit

(** {1 Sampling} *)

type histogram_view = {
  bounds : float array;
  counts : int array;  (** per-bucket (not cumulative), same length *)
  overflow : int;
  count : int;  (** total observations *)
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of histogram_view

type sample = { s_name : string; s_labels : labels; s_value : value }

val sample : t -> sample list
(** Read every instrument (invoking sampled closures), sorted by name
    then labels — the same registry contents always yield the same
    list. *)

val find : sample list -> ?labels:labels -> string -> value option

val iter : ?filter:(string -> bool) -> t -> (string -> labels -> value -> unit) -> unit
(** Visit every instrument (invoking sampled closures) in unspecified
    order, without building or sorting a sample list — the cheap read
    path for periodic samplers.  Callers aggregating across label sets
    must use order-insensitive folds (sums, maxima) to stay
    deterministic.  When [filter] is given, instruments whose name it
    rejects are skipped {e before} being read, so their collector
    closures are never evaluated — a periodic sampler tracking a few
    names must not pay for expensive unrelated gauges. *)
