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
let rec digits v = if v < 10 then 1 else 1 + digits (v / 10)

(* "obj<B.S>", written digit by digit into one buffer: names are
   rendered on every invocation (process names, journal records). *)
let to_string n =
  let b = n.birth_node and s = n.serial in
  let db = digits b and ds = digits s in
  let buf = Bytes.create (db + ds + 6) in
  (* the decimal digits of [v], last one at [i] *)
  let rec put v i =
    Bytes.unsafe_set buf i (Char.unsafe_chr (48 + (v mod 10)));
    if v >= 10 then put (v / 10) (i - 1)
  in
  Bytes.blit_string "obj<" 0 buf 0 4;
  put b (3 + db);
  Bytes.unsafe_set buf (4 + db) '.';
  put s (4 + db + ds);
  Bytes.unsafe_set buf (5 + db + ds) '>';
  Bytes.unsafe_to_string buf

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
