(** Invocation parameter and representation values.

    Eden invocations carry "data and/or capability parameters"; this
    type is the common currency for both, and also serves as the
    long-term representation of objects.  {!size_bytes} approximates
    the marshalled size, which drives the network and copying cost
    models. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Cap of Capability.t
  | List of t list
  | Pair of t * t
  | Blob of int  (** opaque bulk data, modelled by size only *)

val size_bytes : t -> int
(** Marshalled size: ints and booleans are words, strings and blobs
    their length, capabilities a fixed 16 bytes, containers the sum of
    their parts plus small framing. *)

val list_size_bytes : t list -> int

(** {2 Accessors} — return [Error] rather than raising so that type
    code can surface {!Error.Bad_arguments} to callers. *)

val to_int : t -> (int, string) result
val to_str : t -> (string, string) result
val to_cap : t -> (Capability.t, string) result
val to_list : t -> (t list, string) result

val caps : t -> Capability.t list
(** Every capability reachable in the value, for parameter-passing
    accounting. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
