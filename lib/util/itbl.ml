(* The key is mixed in OCaml rather than through [Hashtbl.hash], whose
   [caml_hash] C call dominated lookups on the invocation path.  A
   multiply by an odd constant spreads the low bits upwards and the
   shift folds the high half back down, so keys that differ only in
   their high bits (a request key packs its origin node above a 40-bit
   sequence) still land in different buckets of a power-of-two table. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)
