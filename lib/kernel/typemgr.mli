(** Type managers.

    A type manager holds the code implementing every operation of a
    type, the invocation-class partition bounding concurrency inside
    its instances, the reincarnation condition handler, and the
    detached behaviours spawned on activation.  On a node, type code is
    shared by all local instances: the first activation of a type on a
    node pays the cost of loading its code segments. *)

type operation = {
  op_name : string;
  required_rights : Rights.t;
      (** the caller's capability must carry all of these *)
  mutates : bool;  (** refused with [Frozen_immutable] on frozen objects *)
  op_handler : Api.handler;
}

type behaviour = {
  b_name : string;
  b_body : Api.ctx -> unit;
      (** runs as a detached process for the life of the activation *)
}

type t

val make :
  name:string ->
  ?classes:Opclass.spec list ->
  ?code_bytes:int ->
  ?short_term_bytes:int ->
  ?reincarnate:(Api.ctx -> unit) ->
  ?behaviours:behaviour list ->
  operation list ->
  (t, string) result
(** Build a type manager.  Without [classes], every operation gets its
    own singleton class with limit 1 (serial execution, the safe
    default).  Fails if the class partition is invalid, the name or
    operation list is empty, or operation names collide. *)

val make_exn :
  name:string ->
  ?classes:Opclass.spec list ->
  ?code_bytes:int ->
  ?short_term_bytes:int ->
  ?reincarnate:(Api.ctx -> unit) ->
  ?behaviours:behaviour list ->
  operation list ->
  t
(** Like {!make} but raises [Invalid_argument]; for statically-known
    type definitions. *)

val name : t -> string
val operations : t -> operation list
val classes : t -> Opclass.spec list
val code_bytes : t -> int
val short_term_bytes : t -> int
val reincarnate : t -> (Api.ctx -> unit) option
val behaviours : t -> behaviour list

val resolve : t -> string -> (operation * int) option
(** The operation named [op] together with the index of its invocation
    class in {!classes} (declaration order); allocates nothing. *)

val operation :
  ?required:Rights.right list ->
  ?mutates:bool ->
  string ->
  Api.handler ->
  operation
(** Convenience constructor: [required] defaults to [[Invoke]] (it is
    added regardless), [mutates] to [true]. *)
