(** Space-saving top-k sketch (Metwally et al.): bounded memory, exact
    error accounting.  The sketch keeps at most [capacity] counters;
    a new key arriving at a full sketch evicts the current minimum and
    inherits its count, recording the inherited amount as the entry's
    error bound.  Guarantees, with [n = total t]:

    - every reported [e_count] over-estimates the key's true count by
      at most [e_err];
    - [e_err <= n / capacity] for every entry;
    - any key whose true count exceeds [n / capacity] is present.

    Eviction scans for the first minimum in slot order and reports are
    sorted by [(count desc, key asc)], so same-seed runs produce
    byte-identical output. *)

type t

type entry = {
  e_key : string;
  e_count : int;  (** estimated count (never an underestimate) *)
  e_err : int;  (** max over-estimation inherited through evictions *)
}

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val add : ?count:int -> t -> string -> unit
(** Record [count] (default 1) occurrences of a key.  Constant-time
    when the key is already tracked; a linear min-scan of the
    [capacity] slots when it must evict. *)

val total : t -> int
(** Sum of all counts ever added, tracked exactly. *)

val entries : t -> entry list
(** All tracked entries, sorted by count descending then key
    ascending. *)

val top : t -> int -> entry list
(** First [k] of {!entries}. *)

val merge : capacity:int -> t list -> t
(** Cluster rollup.  For each key in the union, sums counts and error
    bounds across sketches; a full sketch not tracking the key could
    have absorbed up to its minimum count of it, so that minimum is
    added to both the merged count and error (keeping the
    never-underestimate invariant).  The [capacity] largest entries
    under the report order survive. *)
