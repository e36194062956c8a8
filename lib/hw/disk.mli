(** Mass-storage model.

    A single-arm disk with average-seek + half-rotation positioning and
    size-proportional transfer.  Requests queue FIFO on the arm, so
    concurrent checkpoint traffic serialises as it did on the era's
    Winchester drives. *)

type profile = {
  avg_seek : Eden_util.Time.t;
  half_rotation : Eden_util.Time.t;
  transfer_bps : int;  (** sustained transfer, bytes per second *)
  capacity_bytes : int;
}

val small_profile : profile
(** The ~10 MB local disk of a default node machine. *)

val server_profile : profile
(** The 300 MB file-server disk the paper plans for. *)

type t

val create : Eden_sim.Engine.t -> profile:profile -> t

val access_time : t -> bytes:int -> Eden_util.Time.t
(** Positioning plus transfer time for one request, ignoring queueing. *)

val read : t -> bytes:int -> unit
(** Perform a read of [bytes], blocking through the arm queue.  Must be
    called from a process.  Raises [Invalid_argument] on negative
    size. *)

val write : t -> bytes:int -> unit

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
val busy_time : t -> Eden_util.Time.t

val utilisation : t -> over:Eden_util.Time.t -> float
(** Fraction of [over] the arm spent servicing transfers. *)
