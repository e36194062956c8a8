(* One export of each kind the gate tells apart. *)

val used : int -> int
val unused : int -> int
val test_only : int -> int
val ( let* ) : 'a option -> ('a -> 'b option) -> 'b option
val via_alias : int

module Inner : sig
  val deep : int
end
