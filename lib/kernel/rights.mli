(** Access rights carried in capabilities.

    A capability pairs an object name with a set of rights; an
    operation can only be invoked by a holder of every right the
    operation requires.  [Invoke] is the baseline right required by
    every operation; type designers can additionally demand auxiliary
    rights (e.g. [Aux 0] = "may write") and the kernel reserves rights
    for its own primitives (move, checkpoint, destroy, grant). *)

type right =
  | Invoke  (** baseline: may send invocations at all *)
  | Aux of int  (** type-defined rights, index 0..11 *)
  | Kernel_move
  | Kernel_checkpoint
  | Kernel_destroy
  | Kernel_grant  (** may mint restricted capabilities for others *)

type t
(** An immutable set of rights. *)

val none : t
val all : t
val invoke_only : t

val of_list : right list -> t
(** Raises [Invalid_argument] if an [Aux] index is outside 0..11. *)

val to_list : t -> right list
val mem : right -> t -> bool
val subset : t -> t -> bool
(** [subset a b] — every right in [a] is in [b]. *)

val inter : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
