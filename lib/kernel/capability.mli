(** Capabilities: unique names paired with access rights.

    Possession of a capability is the only way to reach an object.
    Capabilities may be passed freely as invocation parameters; rights
    can only be removed, never added, by anyone other than the kernel
    minting an owner capability at object creation. *)

type t = private { name : Name.t; rights : Rights.t }

val make : Name.t -> Rights.t -> t
val name : t -> Name.t
val rights : t -> Rights.t

val restrict : t -> Rights.t -> t
(** [restrict c r] keeps only the rights in both [c] and [r]; the
    result never has more rights than [c]. *)

val equal : t -> t -> bool
(** Same name and same rights. *)

val same_object : t -> t -> bool
val pp : Format.formatter -> t -> unit
