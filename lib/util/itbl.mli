(** Int-keyed hash table with an inline hash.

    A drop-in [Hashtbl.S] over [int] keys.  Lookups compute the hash
    with a few arithmetic instructions instead of the polymorphic
    [Hashtbl.hash] C call.  Iteration order follows the hash and the
    table's history, so callers that fold must sort or be order-free. *)

include Hashtbl.S with type key = int
