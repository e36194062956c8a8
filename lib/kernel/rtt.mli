(** Answer-latency estimates for the locate reply window.

    A locate that hears no active answer within its window falls back
    to a replica or a passive checksite, and after its last retry to
    [No_such_object].  A quiet window only means "absent" if it is long
    compared with how long answers actually take, so each node opens
    its windows from the answers it has measured, in the style of
    Jacobson and Karels (RFC 6298): a smoothed round trip [srtt] and
    its mean deviation [rttvar], in integer nanoseconds, so the same
    samples always give the same window.

    The value is immutable; a node keeps the current one and replaces
    it on every sample. *)

type t

val empty : t
(** No samples: {!window} is its floor. *)

val observe : t -> Eden_util.Time.t -> t
(** Fold in one measured answer latency.  The first sample sets
    [srtt = s] and [rttvar = s/2]; later ones update
    [rttvar += (|s - srtt| - rttvar)/4] (with the old [srtt]), then
    [srtt += (s - srtt)/8], each division truncating. *)

val window : floor:Eden_util.Time.t -> t -> Eden_util.Time.t
(** [max floor (srtt + 4 rttvar)], and [floor] for {!empty}. *)
