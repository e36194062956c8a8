type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Cap of Capability.t
  | List of t list
  | Pair of t * t
  | Blob of int

let rec size_bytes = function
  | Unit -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Str s -> 4 + String.length s
  | Cap _ -> 16
  | List vs -> List.fold_left (fun acc v -> acc + size_bytes v) 4 vs
  | Pair (a, b) -> 2 + size_bytes a + size_bytes b
  | Blob n -> if n < 0 then invalid_arg "Value.size_bytes: negative blob" else n

let list_size_bytes vs = List.fold_left (fun acc v -> acc + size_bytes v) 0 vs

let type_name = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Str _ -> "string"
  | Cap _ -> "capability"
  | List _ -> "list"
  | Pair _ -> "pair"
  | Blob _ -> "blob"

let wrong expected v =
  Error (Printf.sprintf "expected %s, got %s" expected (type_name v))

let to_int = function Int i -> Ok i | v -> wrong "int" v
let to_str = function Str s -> Ok s | v -> wrong "string" v
let to_cap = function Cap c -> Ok c | v -> wrong "capability" v
let to_list = function List l -> Ok l | v -> wrong "list" v

let rec caps = function
  | Unit | Bool _ | Int _ | Str _ | Blob _ -> []
  | Cap c -> [ c ]
  | List vs -> List.concat_map caps vs
  | Pair (a, b) -> caps a @ caps b

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Cap x, Cap y -> Capability.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | Blob x, Blob y -> Int.equal x y
  | (Unit | Bool _ | Int _ | Str _ | Cap _ | List _ | Pair _ | Blob _), _ ->
    false

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Str s -> Format.fprintf ppf "%S" s
  | Cap c -> Capability.pp ppf c
  | List vs ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp)
      vs
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp a pp b
  | Blob n -> Format.fprintf ppf "<blob %dB>" n
