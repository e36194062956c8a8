open Eden_kernel

let ( let* ) = Result.bind

type mode = Locking | Optimistic | Snapshot

type entry = {
  e_file : Capability.t;
  mutable e_version : int;  (* current version seen at first access; -1 unknown *)
  mutable e_read_locked : bool;
  mutable e_write_locked : bool;
  mutable e_pending : Value.t option;
  mutable e_cached : Value.t option;
}

type state = Open | Finished

type t = {
  cl : Cluster.t;
  from : int;
  tmode : mode;
  tid : string;
  mutable entries : entry list;
  mutable st : state;
}

type outcome = Committed | Conflict | Failed of Error.t

let lock_timeout_ms = ref 2_000
let txn_counter = ref 0

let begin_txn cl ~from ~mode =
  incr txn_counter;
  {
    cl;
    from;
    tmode = mode;
    tid = Printf.sprintf "txn:%d:%d" from !txn_counter;
    entries = [];
    st = Open;
  }

let entry_for t file =
  match
    List.find_opt
      (fun e -> Capability.same_object e.e_file file)
      t.entries
  with
  | Some e -> e
  | None ->
    let e =
      {
        e_file = file;
        e_version = -1;
        e_read_locked = false;
        e_write_locked = false;
        e_pending = None;
        e_cached = None;
      }
    in
    t.entries <- e :: t.entries;
    e

let invoke t cap ~op args = Cluster.invoke t.cl ~from:t.from cap ~op args

let take_lock t e ~exclusive =
  let op = if exclusive then "lock_exclusive" else "lock_shared" in
  let* r = invoke t e.e_file ~op [ Value.Int !lock_timeout_ms ] in
  match r with
  | [ Value.Bool true ] ->
    if exclusive then e.e_write_locked <- true else e.e_read_locked <- true;
    Ok ()
  | [ Value.Bool false ] -> Error (Error.User_error "lock timeout")
  | _ -> Error (Error.User_error "unexpected lock reply")

let drop_locks t =
  List.iter
    (fun e ->
      if e.e_write_locked then begin
        e.e_write_locked <- false;
        ignore (invoke t e.e_file ~op:"unlock_exclusive" [])
      end;
      if e.e_read_locked then begin
        e.e_read_locked <- false;
        ignore (invoke t e.e_file ~op:"unlock_shared" [])
      end)
    t.entries

let current_of t e =
  let* r = invoke t e.e_file ~op:"current" [] in
  match r with
  | [ Value.Int vno; Value.Cap vcap ] -> Ok (vno, vcap)
  | _ -> Error (Error.User_error "unexpected current reply")

let fetch t e =
  let* vno, vcap = current_of t e in
  let* r = invoke t vcap ~op:"read" [] in
  match r with
  | [ content ] ->
    if e.e_version < 0 then e.e_version <- vno;
    e.e_cached <- Some content;
    Ok content
  | _ -> Error (Error.User_error "unexpected read reply")

let finished_error = Error.User_error "transaction already finished"

(* In Locking mode, make sure this transaction holds the exclusive lock
   on [e], upgrading a shared lock if necessary.  An upgrade opens a
   window in which another writer can slip in; that is detected by
   comparing the current version against the one this transaction
   observed, and reported as an upgrade conflict. *)
let ensure_exclusive t e =
  if e.e_write_locked then Ok ()
  else begin
    let upgraded = e.e_read_locked in
    if upgraded then begin
      e.e_read_locked <- false;
      ignore (invoke t e.e_file ~op:"unlock_shared" [])
    end;
    let* () = take_lock t e ~exclusive:true in
    match current_of t e with
    | Ok (vno, _) ->
      if upgraded && e.e_version >= 0 && vno <> e.e_version then
        Error
          (Error.User_error
             "upgrade conflict: file changed between read and write")
      else begin
        if e.e_version < 0 then e.e_version <- vno;
        Ok ()
      end
    | Error (Error.User_error _) -> Ok () (* empty file *)
    | Error err -> Error err
  end

let read_common t file ~exclusive =
  if t.st = Finished then Error finished_error
  else begin
    let e = entry_for t file in
    match e.e_pending with
    | Some v -> Ok v
    | None ->
      let* () =
        match t.tmode with
        | Optimistic | Snapshot -> Ok ()
        | Locking ->
          if exclusive then ensure_exclusive t e
          else if e.e_write_locked || e.e_read_locked then Ok ()
          else take_lock t e ~exclusive:false
      in
      (match e.e_cached with Some v -> Ok v | None -> fetch t e)
  end

let read t file = read_common t file ~exclusive:false
let read_for_update t file = read_common t file ~exclusive:true

let write t file content =
  if t.st = Finished then Error finished_error
  else begin
    let e = entry_for t file in
    let* () =
      match t.tmode with
      | Optimistic | Snapshot -> Ok ()
      | Locking -> ensure_exclusive t e
    in
    (* Record the version this write supersedes, for validation. *)
    let* () =
      if e.e_version >= 0 then Ok ()
      else
        match current_of t e with
        | Ok (vno, _) ->
          e.e_version <- vno;
          Ok ()
        | Error (Error.User_error _) -> Ok () (* empty file: blind write *)
        | Error err -> Error err
    in
    e.e_pending <- Some content;
    Ok ()
  end

let abort t =
  if t.st = Open then begin
    t.st <- Finished;
    List.iter
      (fun e ->
        ignore (invoke t e.e_file ~op:"abort_txn" [ Value.Str t.tid ]))
      t.entries;
    drop_locks t
  end

let prepare_one t e =
  (* Both modes validate against the version they observed: under pure
     2PL the exclusive lock makes this a no-op, but it catches
     lock-bypassing optimistic writers when the modes are mixed on one
     file (a lost update otherwise — found by property testing). *)
  let expected = e.e_version in
  match
    invoke t e.e_file ~op:"prepare" [ Value.Str t.tid; Value.Int expected ]
  with
  | Ok [ Value.Bool ok ] -> Ok ok
  | Ok _ -> Error (Error.User_error "unexpected prepare reply")
  | Error err -> Error err

let validate_read_only t e =
  match invoke t e.e_file ~op:"version_count" [] with
  | Ok [ Value.Int next ] -> Ok (next - 1 = e.e_version)
  | Ok _ -> Error (Error.User_error "unexpected version_count reply")
  | Error err -> Error err

let commit ?(replicate_to = []) ?(durable = false) t =
  if t.st = Finished then Failed finished_error
  else begin
    let finish outcome =
      t.st <- Finished;
      drop_locks t;
      outcome
    in
    let writes =
      List.filter (fun e -> e.e_pending <> None) t.entries
      |> List.sort (fun a b ->
             Name.compare
               (Capability.name a.e_file)
               (Capability.name b.e_file))
    in
    if writes = [] then finish Committed
    else begin
      (* Optimistic mode validates the read-only part of the read set
         (best effort, before the write-set prepares). *)
      let read_only_ok =
        match t.tmode with
        | Locking | Snapshot -> Ok true
        | Optimistic ->
          List.fold_left
            (fun acc e ->
              match acc with
              | Ok true when e.e_pending = None && e.e_version >= 0 ->
                validate_read_only t e
              | other -> other)
            (Ok true) t.entries
      in
      match read_only_ok with
      | Error err -> finish (Failed err)
      | Ok false -> finish Conflict
      | Ok true -> (
        (* Build one immutable version object per written file, placed
           at the file's node for locality. *)
        let versions =
          List.fold_left
            (fun acc e ->
              match acc with
              | Error _ -> acc
              | Ok pairs -> (
                let node =
                  Option.value ~default:t.from
                    (Cluster.where_is t.cl e.e_file)
                in
                let content = Option.get e.e_pending in
                match Client.new_version t.cl ~from:t.from ~node content with
                | Ok vcap -> Ok ((e, vcap) :: pairs)
                | Error err -> Error err))
            (Ok []) writes
        in
        match versions with
        | Error err -> finish (Failed err)
        | Ok pairs -> (
          let pairs = List.rev pairs in
          let replication =
            List.fold_left
              (fun acc (_, vcap) ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                  List.fold_left
                    (fun acc2 node ->
                      match acc2 with
                      | Error _ -> acc2
                      | Ok () -> Cluster.replicate t.cl vcap ~to_node:node)
                    (Ok ()) replicate_to)
              (Ok ()) pairs
          in
          match replication with
          | Error err -> finish (Failed err)
          | Ok () -> (
            (* Phase 1: prepare every written file. *)
            let rec phase1 prepared = function
              | [] -> Ok prepared
              | (e, vcap) :: rest -> (
                match prepare_one t e with
                | Ok true -> phase1 ((e, vcap) :: prepared) rest
                | Ok false ->
                  List.iter
                    (fun (pe, _) ->
                      ignore
                        (invoke t pe.e_file ~op:"abort_txn"
                           [ Value.Str t.tid ]))
                    prepared;
                  Error `Conflict
                | Error err ->
                  List.iter
                    (fun (pe, _) ->
                      ignore
                        (invoke t pe.e_file ~op:"abort_txn"
                           [ Value.Str t.tid ]))
                    prepared;
                  Error (`Failed err))
            in
            match phase1 [] pairs with
            | Error `Conflict -> finish Conflict
            | Error (`Failed err) -> finish (Failed err)
            | Ok _ -> (
              (* Phase 2: install the versions. *)
              let install =
                List.fold_left
                  (fun acc (e, vcap) ->
                    match acc with
                    | Error _ -> acc
                    | Ok () -> (
                      match
                        invoke t e.e_file ~op:"commit_version"
                          [ Value.Str t.tid; Value.Cap vcap ]
                      with
                      | Ok [ Value.Int vno ] ->
                        e.e_version <- vno;
                        e.e_cached <- e.e_pending;
                        e.e_pending <- None;
                        Ok ()
                      | Ok _ ->
                        Error (Error.User_error "unexpected commit reply")
                      | Error err -> Error err))
                  (Ok ()) pairs
              in
              match install with
              | Error err -> finish (Failed err)
              | Ok () ->
                if durable then
                  List.iter
                    (fun (e, _) ->
                      ignore (invoke t e.e_file ~op:"checkpoint_now" []))
                    pairs;
                finish Committed))))
    end
  end
