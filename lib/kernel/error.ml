type t =
  | No_such_object
  | No_such_operation of string
  | Rights_violation of string
  | Timeout
  | Object_crashed
  | Node_down
  | Out_of_memory
  | Frozen_immutable
  | Bad_arguments of string
  | User_error of string
  | Move_refused of string
  | Disk_failed

let pp ppf = function
  | No_such_object -> Format.pp_print_string ppf "no such object"
  | No_such_operation op -> Format.fprintf ppf "no such operation %S" op
  | Rights_violation op -> Format.fprintf ppf "insufficient rights for %S" op
  | Timeout -> Format.pp_print_string ppf "timeout"
  | Object_crashed -> Format.pp_print_string ppf "object crashed"
  | Node_down -> Format.pp_print_string ppf "node down"
  | Out_of_memory -> Format.pp_print_string ppf "out of memory"
  | Frozen_immutable -> Format.pp_print_string ppf "object is frozen"
  | Bad_arguments msg -> Format.fprintf ppf "bad arguments: %s" msg
  | User_error msg -> Format.fprintf ppf "user error: %s" msg
  | Move_refused msg -> Format.fprintf ppf "move refused: %s" msg
  | Disk_failed -> Format.pp_print_string ppf "checkpoint store failed"

let to_string e = Format.asprintf "%a" pp e
