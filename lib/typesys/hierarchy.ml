open Eden_kernel

type decl = {
  d_name : string;
  d_parent : string option;
  d_attributes : (string * Value.t) list;
  d_operations : Typemgr.operation list;
  d_classes : Opclass.spec list option;
  d_behaviours : Typemgr.behaviour list;
  d_reincarnate : (Api.ctx -> unit) option;
  d_code_bytes : int option;
}

let decl ?parent ?(attributes = []) ?classes ?behaviours ?reincarnate
    ?code_bytes ~name operations =
  {
    d_name = name;
    d_parent = parent;
    d_attributes = attributes;
    d_operations = operations;
    d_classes = classes;
    d_behaviours = Option.value ~default:[] behaviours;
    d_reincarnate = reincarnate;
    d_code_bytes = code_bytes;
  }

type t = { decls : (string, decl) Hashtbl.t }

let create () = { decls = Hashtbl.create 16 }
let mem h name = Hashtbl.mem h.decls name

let find h name =
  match Hashtbl.find_opt h.decls name with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Hierarchy: unknown type %S" name)

let declare h d =
  if d.d_name = "" then Error "empty type name"
  else if Hashtbl.mem h.decls d.d_name then
    Error (Printf.sprintf "type %S already declared" d.d_name)
  else
    match d.d_parent with
    | Some p when not (Hashtbl.mem h.decls p) ->
      Error (Printf.sprintf "unknown parent %S" p)
    | Some _ | None ->
      (* Parents must pre-exist and names are fresh, so no cycle can
         form; the check is structural. *)
      Hashtbl.replace h.decls d.d_name d;
      Ok ()

let declare_exn h d =
  match declare h d with
  | Ok () -> ()
  | Error e -> invalid_arg ("Hierarchy.declare_exn: " ^ e)

let ancestors h name =
  let rec walk acc n =
    match (find h n).d_parent with
    | None -> List.rev acc
    | Some p -> walk (p :: acc) p
  in
  walk [] name

let is_subtype h ~sub ~super =
  String.equal sub super || List.mem super (ancestors h sub)

let attribute h ~type_name key =
  let rec search n =
    let d = find h n in
    match List.assoc_opt key d.d_attributes with
    | Some v -> Some v
    | None -> ( match d.d_parent with None -> None | Some p -> search p)
  in
  search type_name

(* Own-first operation resolution: nearest declaration wins. *)
let resolved_operations h name =
  let seen = Hashtbl.create 16 in
  let rec collect acc n =
    let d = find h n in
    let fresh =
      List.filter
        (fun (op : Typemgr.operation) ->
          if Hashtbl.mem seen op.Typemgr.op_name then false
          else begin
            Hashtbl.replace seen op.Typemgr.op_name ();
            true
          end)
        d.d_operations
    in
    let acc = acc @ fresh in
    match d.d_parent with None -> acc | Some p -> collect acc p
  in
  collect [] name

let operation_names h name =
  List.map (fun (o : Typemgr.operation) -> o.Typemgr.op_name)
    (resolved_operations h name)

let compile h name =
  if not (mem h name) then Error (Printf.sprintf "unknown type %S" name)
  else begin
    let d = find h name in
    let ops = resolved_operations h name in
    let op_names =
      List.map (fun (o : Typemgr.operation) -> o.Typemgr.op_name) ops
    in
    let declared_classes = Option.value ~default:[] d.d_classes in
    let covered =
      List.concat_map (fun s -> s.Opclass.operations) declared_classes
    in
    let uncovered = List.filter (fun o -> not (List.mem o covered)) op_names in
    let extra =
      List.map
        (fun op ->
          { Opclass.class_name = "inherited:" ^ op; operations = [ op ];
            limit = 1 })
        uncovered
    in
    let reincarnate =
      match d.d_reincarnate with
      | Some r -> Some r
      | None ->
        (* Inherit the nearest ancestor's reincarnation handler. *)
        List.find_map
          (fun a -> (find h a).d_reincarnate)
          (ancestors h name)
    in
    Typemgr.make ~name ~classes:(declared_classes @ extra)
      ?code_bytes:d.d_code_bytes ?reincarnate ~behaviours:d.d_behaviours ops
  end

let compile_exn h name =
  match compile h name with
  | Ok tm -> tm
  | Error e -> invalid_arg ("Hierarchy.compile_exn: " ^ e)

let register_all h cl =
  Hashtbl.fold
    (fun name _ acc ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match compile h name with
        | Error e -> Error e
        | Ok tm ->
          Cluster.register_type cl tm;
          Ok ()))
    h.decls (Ok ())
