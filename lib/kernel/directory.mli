(** The locate directory's shard map: a consistent-hash ring over
    object names.

    Each name deterministically maps to one {e registry shard} — the
    node recording the name's current home and known replica sites —
    via a consistent-hash ring with hundreds of virtual points per
    node.  The map is a pure function of the node set, so every node
    computes the same shard for every name without coordination, and
    a locate becomes a unicast to the shard instead of a broadcast.

    Guarantees (both pinned by the property suite):
    - {b balance}: max/mean shard load stays ≤ 1.3 over random node
      sets (relative arc spread ~1/√vnodes);
    - {b minimal remapping}: a node joining or leaving moves at most
      ~2/n of the keys, and a key not owned by a leaving node keeps
      its shard exactly.

    Hashing is a splitmix64-style finalizer — deterministic across
    runs, independent of [Hashtbl.hash] versioning. *)

type t

val make : nodes:int list -> t
(** [make ~nodes] builds the ring for the given node-id set, with 512
    virtual points per node.  Raises [Invalid_argument] on an empty
    set or duplicate ids.

    Cost: n × 512 point hashes and a radix sort of that many ints
    (bench M14: about half a millisecond at 8 nodes and 7–13 ms at
    128 on a 2-vCPU host), and the ring keeps two int arrays of
    n × 512 words.  A caller that may never look a name up should
    defer the build, as the cluster does with [Lazy]. *)

val point : int -> int -> int
(** [point node k] is the ring position of virtual point [k] of [node]
    (exposed for tests). *)

val of_points : vnodes:int -> nodes:int list -> (int -> int -> int) -> t
(** {!make} with [vnodes] points per node and the positions drawn
    from the given function instead of {!point}; position ties go to
    the lower node id.  [vnodes] must be positive and positions
    non-negative ([Invalid_argument] otherwise).  For tests: a
    coarse function forces the ties that real 62-bit positions
    practically never produce. *)

val nodes : t -> int list
(** The node set the ring was built over, ascending. *)

val shard : t -> Name.t -> int
(** The registry shard owning [name]. *)

val shard_skipping : t -> down:(int -> bool) -> Name.t -> int
(** Like {!shard}, but skip ring points whose owner [down] reports
    unavailable and take the next live point on the circle (wrapping).
    With no down nodes this is exactly {!shard}; when the canonical
    shard is down, every caller that agrees on the down set computes
    the same detour shard, so publishes and lookups keep meeting
    without waiting for a membership change.  If {e every} node is
    down the canonical shard is returned (the caller is about to fail
    regardless, and the map stays total). *)

val shard_of_hash_skipping : t -> down:(int -> bool) -> int -> int
(** {!shard_skipping} from a pre-mixed ring position (for tests). *)

val shard_of_hash : t -> int -> int
(** Shard lookup from a pre-mixed ring position (exposed for tests). *)
