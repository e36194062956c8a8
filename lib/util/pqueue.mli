(** Mutable binary min-heap keyed by integers.

    Entries are ordered by their [int] key, then by a sequence number
    the caller supplies.  Numbering pushes from one counter makes
    entries with equal keys pop first-in first-out — the event loop
    relies on this for determinism — and lets several heaps fed from
    the same counter merge into exactly the order a single heap would
    give.  The heap is stored as parallel integer arrays (key,
    sequence, value slot) beside an array of values, so pushing and
    popping compare and move plain integers and allocate nothing
    beyond the occasional array growth. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty heap.  [dummy] fills unused value slots, so a popped value
    is not kept reachable by the heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_seq : 'a t -> int -> int -> 'a -> int
(** [push_seq h key seq v] inserts [v] at ([key], [seq]) and returns
    the slot that holds [v], for {!clear}.  Sequence numbers should be
    distinct; two entries with the same key and sequence pop in an
    unspecified order. *)

val clear : 'a t -> int -> unit
(** [clear h slot] replaces the value in [slot] by the heap's [dummy],
    so the heap no longer keeps it reachable.  The entry keeps its key
    and sequence number and pops where it would have, yielding
    [dummy].  [slot] must come from the {!push_seq} of an entry still
    in the heap: once that entry has popped, the slot may hold another
    entry's value. *)

val min_key : 'a t -> int
(** Key of the entry {!pop_exn} would return next.  Raises
    [Invalid_argument] on an empty heap. *)

val min_seq : 'a t -> int
(** Sequence number of the entry {!pop_exn} would return next.  Raises
    [Invalid_argument] on an empty heap. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the smallest entry with its key. *)

val pop_exn : 'a t -> 'a
(** Remove the smallest entry and return its value; read its key with
    {!min_key} first when needed.  Raises [Invalid_argument] on an
    empty heap. *)
