type t = { birth_node : int; serial : int }

let make ~birth_node ~serial =
  if birth_node < 0 || serial < 0 then invalid_arg "Name.make: negative field";
  { birth_node; serial }

let birth_node n = n.birth_node
let serial n = n.serial
let equal a b = a.birth_node = b.birth_node && a.serial = b.serial
let compare a b =
  let c = Int.compare a.birth_node b.birth_node in
  if c <> 0 then c else Int.compare a.serial b.serial

let hash n = (n.birth_node * 1_000_003) lxor n.serial
let pp ppf n = Format.fprintf ppf "obj<%d.%d>" n.birth_node n.serial
let to_string n =
  String.concat ""
    [ "obj<"; string_of_int n.birth_node; "."; string_of_int n.serial; ">" ]

let of_string s =
  match Scanf.sscanf s "obj<%u.%u>%!" (fun b srl -> (b, srl)) with
  | b, srl -> Some { birth_node = b; serial = srl }
  | exception _ -> None

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
