open Eden_util

type t = { at : Time.t; metrics : Metrics.sample list }

let take ~at reg = { at; metrics = Metrics.sample reg }

let find t ?labels name = Metrics.find t.metrics ?labels name

(* ---------------------------------------------------------------- *)
(* JSON *)

let labels_to_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let sample_to_json (s : Metrics.sample) =
  let common =
    [ ("name", Json.Str s.s_name); ("labels", labels_to_json s.s_labels) ]
  in
  match s.s_value with
  | Metrics.Counter n ->
    Json.Obj (common @ [ ("kind", Json.Str "counter"); ("value", Json.Int n) ])
  | Metrics.Gauge g ->
    Json.Obj (common @ [ ("kind", Json.Str "gauge"); ("value", Json.Float g) ])
  | Metrics.Histogram h ->
    Json.Obj
      (common
      @ [
          ("kind", Json.Str "histogram");
          ( "bounds",
            Json.List
              (Array.to_list (Array.map (fun b -> Json.Float b) h.bounds)) );
          ( "counts",
            Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts))
          );
          ("overflow", Json.Int h.overflow);
          ("count", Json.Int h.count);
          ("sum", Json.Float h.sum);
        ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "eden-metrics/3");
      ("at_ns", Json.Int (Time.to_ns t.at));
      ("metrics", Json.List (List.map sample_to_json t.metrics));
    ]

let ( let* ) r f = Result.bind r f

let labels_of_json j : (Metrics.labels, string) result =
  match j with
  | Json.Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match Json.to_str v with
        | Some s -> Ok ((k, s) :: acc)
        | None -> Error (Printf.sprintf "snapshot: non-string label %S" k))
      (Ok []) fields
    |> Result.map List.rev
  | _ -> Error "snapshot: labels must be an object"

let sample_of_json j : (Metrics.sample, string) result =
  let req k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot: missing or bad field %S" k)
  in
  let* s_name = req "name" Json.to_str in
  let* s_labels =
    match Json.member "labels" j with
    | Some l -> labels_of_json l
    | None -> Ok []
  in
  let* kind = req "kind" Json.to_str in
  let* s_value =
    match kind with
    | "counter" ->
      let* v = req "value" Json.to_int in
      Ok (Metrics.Counter v)
    | "gauge" ->
      let* v = req "value" Json.to_float in
      Ok (Metrics.Gauge v)
    | "histogram" ->
      let floats k =
        let* l = req k Json.to_list in
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match Json.to_float x with
            | Some f -> Ok (f :: acc)
            | None -> Error (Printf.sprintf "snapshot: bad %s entry" k))
          (Ok []) l
        |> Result.map (fun l -> Array.of_list (List.rev l))
      in
      let ints k =
        let* l = req k Json.to_list in
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match Json.to_int x with
            | Some i -> Ok (i :: acc)
            | None -> Error (Printf.sprintf "snapshot: bad %s entry" k))
          (Ok []) l
        |> Result.map (fun l -> Array.of_list (List.rev l))
      in
      let* bounds = floats "bounds" in
      let* counts = ints "counts" in
      let* overflow = req "overflow" Json.to_int in
      let* count = req "count" Json.to_int in
      let* sum = req "sum" Json.to_float in
      Ok (Metrics.Histogram { Metrics.bounds; counts; overflow; count; sum })
    | k -> Error (Printf.sprintf "snapshot: unknown sample kind %S" k)
  in
  Ok { Metrics.s_name; s_labels; s_value }

let of_json j =
  let req k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "snapshot: missing or bad field %S" k)
  in
  let* schema = req "schema" Json.to_str in
  let* () =
    if String.equal schema "eden-metrics/3" then Ok ()
    else Error (Printf.sprintf "snapshot: unknown schema %S" schema)
  in
  let* at_ns = req "at_ns" Json.to_int in
  let* metrics =
    let* l = req "metrics" Json.to_list in
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* s = sample_of_json x in
        Ok (s :: acc))
      (Ok []) l
    |> Result.map List.rev
  in
  Ok { at = Time.ns at_ns; metrics }

let to_string ?compact t = Json.to_string ?compact (to_json t)

let of_string s =
  let* j = Json.of_string s in
  of_json j

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

(* Write-then-rename so a reader polling [path] never observes a torn
   file: the temp file lives in the same directory, making the rename
   atomic on POSIX filesystems.  It is created 0666 under the umask,
   like any other export, not 0600 as [Filename.temp_file] would. *)
let write_file ?compact t ~path =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:dir
      (Filename.basename path) ".tmp"
  in
  (try
     Out_channel.output_string oc (to_string ?compact t);
     Out_channel.output_char oc '\n';
     Out_channel.close oc
   with e ->
     Out_channel.close_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* ---------------------------------------------------------------- *)
(* Pretty table *)

let value_cell = function
  | Metrics.Counter n -> Table.cell_int n
  | Metrics.Gauge g -> Table.cell_float ~decimals:3 g
  | Metrics.Histogram h ->
    if h.Metrics.count = 0 then "n=0"
    else
      Printf.sprintf "n=%d mean=%s" h.Metrics.count
        (Table.cell_float ~decimals:6
           (h.Metrics.sum /. float_of_int h.Metrics.count))

(* Group samples that carry exactly one label of key [key] into a
   (metric row) x (label value column) grid. *)
let grid_table ~title ~key samples =
  let cells =
    List.filter_map
      (fun (s : Metrics.sample) ->
        match s.s_labels with
        | [ (k, v) ] when String.equal k key -> Some (s.s_name, v, s.s_value)
        | _ -> None)
      samples
  in
  if cells = [] then None
  else begin
    let cols =
      List.sort_uniq compare (List.map (fun (_, v, _) -> v) cells)
    in
    let rows =
      (* keep first-seen sample order, which is name-sorted already *)
      List.fold_left
        (fun acc (n, _, _) -> if List.mem n acc then acc else acc @ [ n ])
        [] cells
    in
    let tbl =
      Table.create ~title
        ~columns:
          (("metric", Table.Left)
          :: List.map (fun c -> (key ^ " " ^ c, Table.Right)) cols)
    in
    List.iter
      (fun name ->
        let row =
          List.map
            (fun c ->
              match
                List.find_opt
                  (fun (n, v, _) -> String.equal n name && String.equal v c)
                  cells
              with
              | Some (_, _, value) -> value_cell value
              | None -> "-")
            cols
        in
        Table.add_row tbl (name :: row))
      rows;
    Some (Table.render tbl)
  end

let pp_table t =
  let b = Buffer.create 1024 in
  let add = function
    | Some s ->
      Buffer.add_string b s;
      Buffer.add_char b '\n'
    | None -> ()
  in
  add (grid_table ~title:"Per-node metrics" ~key:"node" t.metrics);
  add (grid_table ~title:"Per-segment metrics" ~key:"segment" t.metrics);
  let rest =
    List.filter
      (fun (s : Metrics.sample) ->
        match s.s_labels with
        | [ (k, _) ] -> not (String.equal k "node" || String.equal k "segment")
        | [] -> true
        | _ -> true)
      t.metrics
  in
  if rest <> [] then begin
    let tbl =
      Table.create ~title:"Cluster metrics"
        ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
    in
    List.iter
      (fun (s : Metrics.sample) ->
        let name =
          if s.s_labels = [] then s.s_name
          else
            s.s_name ^ "{"
            ^ String.concat ","
                (List.map (fun (k, v) -> k ^ "=" ^ v) s.s_labels)
            ^ "}"
        in
        Table.add_row tbl [ name; value_cell s.s_value ])
      rest;
    Buffer.add_string b (Table.render tbl);
    Buffer.add_char b '\n'
  end;
  Buffer.add_string b
    (Printf.sprintf "virtual time %s\n" (Time.to_string t.at));
  Buffer.contents b
