(** A stable LSD radix sort of positions by int keys. *)

val order : int array -> int array * int array
(** [order keys] is [(sorted, spare)]: [sorted] holds the positions
    [0 .. n - 1] of [keys] in ascending key order, equal keys in
    position order, and [spare] is a scratch array of the same length
    the caller may reuse.  Keys may be any ints, negative ones
    included; the work is linear in [n] times the number of 11-bit
    digits the keys' span needs. *)
