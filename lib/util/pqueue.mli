(** Mutable binary min-heap keyed by integers.

    Entries are ordered by their [int] key, then by insertion order, so
    entries with equal keys pop first-in first-out: the event loop
    relies on this for determinism.  The heap is stored as parallel
    integer arrays (key, insertion sequence, value slot) beside an
    array of values, so pushing and popping compare and move plain
    integers and allocate nothing beyond the occasional array growth. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty heap.  [dummy] fills unused value slots, so a popped value
    is not kept reachable by the heap. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push h key v] inserts [v] behind every entry whose key is [<= key]. *)

val min_key : 'a t -> int
(** Key of the entry {!pop_exn} would return next.  Raises
    [Invalid_argument] on an empty heap. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the smallest entry with its key. *)

val pop_exn : 'a t -> 'a
(** Remove the smallest entry and return its value; read its key with
    {!min_key} first when needed.  Raises [Invalid_argument] on an
    empty heap. *)
