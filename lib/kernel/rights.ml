type right =
  | Invoke
  | Aux of int
  | Kernel_move
  | Kernel_checkpoint
  | Kernel_destroy
  | Kernel_grant

type t = int (* bit set *)

let aux_count = 12

let bit = function
  | Invoke -> 0
  | Aux i ->
    if i < 0 || i >= aux_count then invalid_arg "Rights: Aux index out of range";
    1 + i
  | Kernel_move -> 13
  | Kernel_checkpoint -> 14
  | Kernel_destroy -> 15
  | Kernel_grant -> 16

let all_rights =
  [ Invoke ]
  @ List.init aux_count (fun i -> Aux i)
  @ [ Kernel_move; Kernel_checkpoint; Kernel_destroy; Kernel_grant ]

let none = 0
let of_list rs = List.fold_left (fun acc r -> acc lor (1 lsl bit r)) 0 rs
let all = of_list all_rights
let invoke_only = of_list [ Invoke ]
let mem r s = s land (1 lsl bit r) <> 0
let to_list s = List.filter (fun r -> mem r s) all_rights
let subset a b = a land lnot b = 0
let inter = ( land )
let equal = Int.equal

let right_name = function
  | Invoke -> "invoke"
  | Aux i -> Printf.sprintf "aux%d" i
  | Kernel_move -> "move"
  | Kernel_checkpoint -> "checkpoint"
  | Kernel_destroy -> "destroy"
  | Kernel_grant -> "grant"

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map right_name (to_list s)))
