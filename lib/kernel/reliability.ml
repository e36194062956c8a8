type t = Local | Remote of int | Mirrored of int list

let validate r ~node_count =
  let check_node n =
    if n < 0 || n >= node_count then
      Error (Printf.sprintf "no such node %d" n)
    else Ok ()
  in
  match r with
  | Local -> Ok ()
  | Remote n -> check_node n
  | Mirrored [] -> Error "mirrored checksite list is empty"
  | Mirrored ns ->
    let sorted = List.sort_uniq Int.compare ns in
    if List.length sorted <> List.length ns then
      Error "duplicate nodes in mirrored checksite list"
    else
      List.fold_left
        (fun acc n -> match acc with Error _ -> acc | Ok () -> check_node n)
        (Ok ()) ns

let checksites r ~home =
  match r with Local -> [ home ] | Remote n -> [ n ] | Mirrored ns -> ns

(* Ascending order makes the fan-out set a pure function of the
   candidate *set*, so two requesters that learned the same replica
   sites in different orders clone identically. *)
let fanout ~primary ~candidates ~max_extra =
  if max_extra <= 0 then []
  else
    List.sort_uniq Int.compare candidates
    |> List.filter (fun s -> s <> primary)
    |> List.filteri (fun i _ -> i < max_extra)

let pp ppf = function
  | Local -> Format.pp_print_string ppf "local"
  | Remote n -> Format.fprintf ppf "remote(%d)" n
  | Mirrored ns ->
    Format.fprintf ppf "mirrored(%s)"
      (String.concat "," (List.map string_of_int ns))
