(** The invocation failure taxonomy.

    Every invocation returns [('a, Error.t) result]; these are the ways
    the kernel or the target's type code can refuse or fail. *)

type t =
  | No_such_object  (** the name resolves nowhere in the system *)
  | No_such_operation of string  (** the type defines no such operation *)
  | Rights_violation of string  (** capability lacks a required right *)
  | Timeout  (** the caller's deadline expired first *)
  | Object_crashed  (** the target crashed while the request was held *)
  | Node_down  (** the hosting node is not accepting work *)
  | Out_of_memory  (** activation or creation could not reserve memory *)
  | Frozen_immutable  (** a mutating operation reached a frozen object *)
  | Bad_arguments of string  (** type code rejected the parameter list *)
  | User_error of string  (** type code signalled an application error *)
  | Move_refused of string  (** mobility precondition failed *)
  | Disk_failed  (** a checksite's checkpoint store is unavailable *)

val to_string : t -> string
