type operation = {
  op_name : string;
  required_rights : Rights.t;
  mutates : bool;
  op_handler : Api.handler;
}

type behaviour = { b_name : string; b_body : Api.ctx -> unit }

type t = {
  tname : string;
  ops : operation list;
  resolved : (string * (operation * int) option) array;
      (* each operation's name beside its answer to [resolve] *)
  cls : Opclass.spec list;
  code : int;
  short_term : int;
  reinc : (Api.ctx -> unit) option;
  behs : behaviour list;
}

let make ~name ?classes ?(code_bytes = 16_384) ?(short_term_bytes = 4_096)
    ?reincarnate ?(behaviours = []) operations =
  if String.length name = 0 then Error "type name is empty"
  else if operations = [] then Error "type has no operations"
  else begin
    let op_names = List.map (fun o -> o.op_name) operations in
    let distinct = List.sort_uniq String.compare op_names in
    if List.length distinct <> List.length op_names then
      Error "duplicate operation names"
    else if code_bytes < 0 || short_term_bytes < 0 then
      Error "negative size"
    else begin
      let cls =
        match classes with
        | Some c -> c
        | None -> Opclass.singleton_classes ~operations:op_names ~limit:1
      in
      match Opclass.validate cls ~operations:op_names with
      | Error e -> Error e
      | Ok () ->
        (* [validate] put every operation in exactly one class. *)
        let class_index op =
          Option.get
            (List.find_index
               (fun c -> List.mem op.op_name c.Opclass.operations)
               cls)
        in
        Ok
          {
            tname = name;
            ops = operations;
            resolved =
              Array.of_list
                (List.map
                   (fun op -> (op.op_name, Some (op, class_index op)))
                   operations);
            cls;
            code = code_bytes;
            short_term = short_term_bytes;
            reinc = reincarnate;
            behs = behaviours;
          }
    end
  end

let make_exn ~name ?classes ?code_bytes ?short_term_bytes ?reincarnate
    ?behaviours operations =
  match
    make ~name ?classes ?code_bytes ?short_term_bytes ?reincarnate ?behaviours
      operations
  with
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "Typemgr.make_exn (%s): %s" name e)

let name t = t.tname
let operations t = t.ops
let classes t = t.cls
let code_bytes t = t.code
let short_term_bytes t = t.short_term
let reincarnate t = t.reinc
let behaviours t = t.behs

let resolve t op =
  let r = t.resolved in
  let rec go i =
    if i = Array.length r then None
    else
      let name, res = Array.unsafe_get r i in
      if String.equal name op then res else go (i + 1)
  in
  go 0

let operation ?(required = []) ?(mutates = true) op_name op_handler =
  {
    op_name;
    required_rights = Rights.of_list (Rights.Invoke :: required);
    mutates;
    op_handler;
  }
