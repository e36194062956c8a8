(** The abstract type hierarchy (paper section 5).

    A system of abstract types layered on the kernel's concrete types:
    "one type may be declared as a subtype of another, so that the
    subtype inherits the operations of its supertype", along with
    inheritable attributes such as the display code used by the object
    editor.

    A hierarchy is a forest: each abstract type has at most one parent.
    {!compile} flattens an abstract type into a concrete
    {!Eden_kernel.Typemgr.t} — inherited operations are included unless
    overridden, nearest definition winning. *)

type t

type decl = {
  d_name : string;
  d_parent : string option;
  d_attributes : (string * Eden_kernel.Value.t) list;
      (** inheritable key/value attributes (e.g. display code) *)
  d_operations : Eden_kernel.Typemgr.operation list;
  d_classes : Eden_kernel.Opclass.spec list option;
      (** classes covering the type's own operations; inherited
          operations keep their inherited grouping *)
  d_behaviours : Eden_kernel.Typemgr.behaviour list;
  d_reincarnate : (Eden_kernel.Api.ctx -> unit) option;
  d_code_bytes : int option;
}

val decl :
  ?parent:string ->
  ?attributes:(string * Eden_kernel.Value.t) list ->
  ?classes:Eden_kernel.Opclass.spec list ->
  ?behaviours:Eden_kernel.Typemgr.behaviour list ->
  ?reincarnate:(Eden_kernel.Api.ctx -> unit) ->
  ?code_bytes:int ->
  name:string ->
  Eden_kernel.Typemgr.operation list ->
  decl

val create : unit -> t

val declare : t -> decl -> (unit, string) result
(** Add a type.  Fails on duplicate names, unknown parents, or if the
    declaration would create a cycle. *)

val declare_exn : t -> decl -> unit

val mem : t -> string -> bool

val ancestors : t -> string -> string list
(** Proper ancestors, nearest first. *)

val is_subtype : t -> sub:string -> super:string -> bool
(** Reflexive and transitive. *)

val attribute : t -> type_name:string -> string -> Eden_kernel.Value.t option
(** Inherited attribute lookup: the nearest declaration wins. *)

val operation_names : t -> string -> string list
(** All operations the type responds to (own + inherited), own first,
    each name once. *)

val compile : t -> string -> (Eden_kernel.Typemgr.t, string) result
(** Flatten into a concrete type manager named after the abstract type.
    Inherited operations not covered by the subtype's class
    declarations are placed in per-operation singleton classes. *)

val compile_exn : t -> string -> Eden_kernel.Typemgr.t

val register_all : t -> Eden_kernel.Cluster.t -> (unit, string) result
(** Compile and register every declared type with the cluster. *)
