(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation.  Using integers keeps event ordering exact and the whole
    simulation deterministic; 63-bit nanoseconds overflow after ~146 years
    of simulated time, far beyond any experiment here. *)

type t = private int

val zero : t

val ns : int -> t
(** [ns n] is [n] nanoseconds.  Raises [Invalid_argument] if [n < 0]. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val s : int -> t
(** [s n] is [n] seconds. *)

val of_sec : float -> t
(** [of_sec x] rounds [x] seconds to the nearest nanosecond.
    Raises [Invalid_argument] on negative or non-finite input. *)

val to_ns : t -> int
val to_sec : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a - b].  Raises [Invalid_argument] if [b > a]. *)

val scale : t -> int -> t
(** [scale t k] is [t * k].  Raises [Invalid_argument] if [k < 0]. *)

val mul_float : t -> float -> t
(** [mul_float t x] is [t * x] rounded to the nearest nanosecond.
    Raises [Invalid_argument] if [x] is negative or non-finite. *)

val divide : t -> int -> t
(** [divide t k] is [t / k] (integer division).
    Raises [Invalid_argument] if [k <= 0]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit, e.g. ["1.500ms"]. *)

val to_string : t -> string
