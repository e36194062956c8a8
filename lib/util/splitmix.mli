(** Deterministic splittable pseudo-random numbers (splitmix64).

    Every stochastic component of the simulation draws from its own
    [Splitmix.t] stream, derived by {!split} from a single experiment
    seed, so results are reproducible regardless of the order in which
    components consume randomness. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split g] advances [g] and returns an independent child generator.
    Distinct calls yield statistically independent streams. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  Raises [Invalid_argument] if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive.
    Raises [Invalid_argument] if [lo > hi]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. Requires [x > 0]. *)

val bool : t -> bool

val coin : t -> float -> bool
(** [coin g p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> float -> float
(** [exponential g mean] draws from Exp with the given mean.
    Requires [mean > 0]. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array.
    Raises [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
