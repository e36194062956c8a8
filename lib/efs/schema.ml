open Eden_util
open Eden_kernel
open Api

(* ------------------------------------------------------------------ *)
(* Versions *)

(* Parse a checksite argument: Int -1 = local, Int n = remote at n,
   List of Int = mirrored. *)
let reliability_of_value v =
  match v with
  | Value.Int -1 -> Ok Reliability.Local
  | Value.Int n -> Ok (Reliability.Remote n)
  | Value.List sites ->
    Ok
      (Reliability.Mirrored
         (List.filter_map (fun s -> Result.to_option (Value.to_int s)) sites))
  | _ -> Error (Error.Bad_arguments "checksites: int or list of ints")

(* Choosing checksites does not touch the representation, so it is
   legal even on frozen objects (versions). *)
let set_checksites_op =
  Typemgr.operation "set_checksites" ~mutates:false (fun ctx args ->
      let* v = arg1 args in
      let* rel = reliability_of_value v in
      let* () = ctx.set_reliability rel in
      let* () = ctx.checkpoint () in
      reply_unit)

let version_type =
  Typemgr.make_exn ~name:"efs_version" ~code_bytes:4_096
    [
      Typemgr.operation "read" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "size" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ Value.Int (Value.size_bytes (ctx.get_repr ())) ]);
      set_checksites_op;
    ]

(* ------------------------------------------------------------------ *)
(* Files *)

(* Representation: Pair (Int next_vno, List of Pair (Int vno, Cap v)),
   newest version first. *)

let file_repr ctx =
  match ctx.get_repr () with
  | Value.Pair (Value.Int next, Value.List versions) -> Ok (next, versions)
  | _ -> Error (Error.User_error "corrupt file representation")

let empty_file_repr = Value.Pair (Value.Int 0, Value.List [])

(* A mutable cell held in a kernel message port: take the value, apply
   [f], put the result back.  Callers must not block between take and
   put unless they hold the cell's guarding semaphore. *)
let cell_update port ~default f =
  let v =
    match Eden_sim.Mailbox.try_recv port with
    | Some v -> v
    | None -> default
  in
  let v', out = f v in
  let ok = Eden_sim.Mailbox.try_send port v' in
  assert ok;
  out

(* Readers/writer lock built from the kernel's semaphore and port
   primitives (short-term state: a crash clears all locks). *)
let with_lock_parts ctx f =
  let mutex = ctx.semaphore "lock.mutex" ~init:1 in
  let wrt = ctx.semaphore "lock.wrt" ~init:1 in
  let rc = ctx.port "lock.readcount" in
  f ~mutex ~wrt ~rc

let read_count rc =
  match Eden_sim.Mailbox.try_recv rc with
  | Some (Value.Int n) ->
    let ok = Eden_sim.Mailbox.try_send rc (Value.Int n) in
    assert ok;
    n
  | Some v ->
    let ok = Eden_sim.Mailbox.try_send rc v in
    assert ok;
    0
  | None -> 0

let set_read_count rc n =
  ignore (Eden_sim.Mailbox.try_recv rc);
  let ok = Eden_sim.Mailbox.try_send rc (Value.Int n) in
  assert ok

let timeout_of_ms ms = if ms <= 0 then None else Some (Time.ms ms)

let lock_shared ctx ms =
  with_lock_parts ctx (fun ~mutex ~wrt ~rc ->
      if not (Eden_sim.Semaphore.acquire ?timeout:(timeout_of_ms ms) mutex)
      then false
      else begin
        let n = read_count rc in
        let granted =
          if n = 0 then
            Eden_sim.Semaphore.acquire ?timeout:(timeout_of_ms ms) wrt
          else true
        in
        if granted then set_read_count rc (n + 1);
        Eden_sim.Semaphore.release mutex;
        granted
      end)

let unlock_shared ctx =
  with_lock_parts ctx (fun ~mutex ~wrt ~rc ->
      ignore (Eden_sim.Semaphore.acquire mutex);
      let n = read_count rc in
      if n > 0 then begin
        set_read_count rc (n - 1);
        if n = 1 then Eden_sim.Semaphore.release wrt
      end;
      Eden_sim.Semaphore.release mutex)

let lock_exclusive ctx ms =
  with_lock_parts ctx (fun ~mutex:_ ~wrt ~rc:_ ->
      Eden_sim.Semaphore.acquire ?timeout:(timeout_of_ms ms) wrt)

let unlock_exclusive ctx =
  with_lock_parts ctx (fun ~mutex:_ ~wrt ~rc:_ ->
      Eden_sim.Semaphore.release wrt)

(* The prepared-transaction marker, also short-term state. *)
let prepared_cell ctx = ctx.port "txn.prepared"

let prepared_by ctx =
  let cell = prepared_cell ctx in
  cell_update cell ~default:Value.Unit (fun v ->
      ( v,
        match v with
        | Value.Str txn -> Some txn
        | Value.Unit | _ -> None ))

let set_prepared ctx txn =
  let cell = prepared_cell ctx in
  cell_update cell ~default:Value.Unit (fun _ -> (Value.Str txn, ()))

let clear_prepared ctx =
  let cell = prepared_cell ctx in
  cell_update cell ~default:Value.Unit (fun _ -> (Value.Unit, ()))

let file_ops =
  [
    Typemgr.operation "current" ~mutates:false (fun ctx args ->
        let* () = no_args args in
        let* _next, versions = file_repr ctx in
        match versions with
        | Value.Pair (Value.Int vno, Value.Cap c) :: _ ->
          reply [ Value.Int vno; Value.Cap c ]
        | [] -> user_error "file has no versions"
        | _ -> user_error "corrupt version list");
    Typemgr.operation "version_at" ~mutates:false (fun ctx args ->
        let* v = arg1 args in
        let* want = int_arg v in
        let* _next, versions = file_repr ctx in
        let found =
          List.find_map
            (fun entry ->
              match entry with
              | Value.Pair (Value.Int vno, Value.Cap c) when vno = want ->
                Some c
              | _ -> None)
            versions
        in
        match found with
        | Some c -> reply [ Value.Cap c ]
        | None -> user_error (Printf.sprintf "no version %d" want));
    Typemgr.operation "version_count" ~mutates:false (fun ctx args ->
        let* () = no_args args in
        let* next, _ = file_repr ctx in
        reply [ Value.Int next ]);
    Typemgr.operation "prepare" (fun ctx args ->
        let* a, b = arg2 args in
        let* txn = str_arg a in
        let* expected = int_arg b in
        match prepared_by ctx with
        | Some other when other <> txn -> reply [ Value.Bool false ]
        | Some _ | None ->
          let* next, _ = file_repr ctx in
          if expected >= 0 && expected <> next - 1 then
            (* Optimistic validation failed: the file advanced past the
               version this transaction read. *)
            reply [ Value.Bool false ]
          else begin
            set_prepared ctx txn;
            reply [ Value.Bool true ]
          end);
    Typemgr.operation "commit_version" (fun ctx args ->
        let* a, b = arg2 args in
        let* txn = str_arg a in
        let* vcap = cap_arg b in
        match prepared_by ctx with
        | Some holder when holder = txn ->
          let* next, versions = file_repr ctx in
          let entry = Value.Pair (Value.Int next, Value.Cap vcap) in
          let* () =
            ctx.set_repr
              (Value.Pair (Value.Int (next + 1), Value.List (entry :: versions)))
          in
          clear_prepared ctx;
          reply [ Value.Int next ]
        | Some _ | None -> user_error "commit without prepare");
    Typemgr.operation "abort_txn" (fun ctx args ->
        let* v = arg1 args in
        let* txn = str_arg v in
        (match prepared_by ctx with
        | Some holder when holder = txn -> clear_prepared ctx
        | Some _ | None -> ());
        reply_unit);
    Typemgr.operation "lock_shared" (fun ctx args ->
        let* v = arg1 args in
        let* ms = int_arg v in
        reply [ Value.Bool (lock_shared ctx ms) ]);
    Typemgr.operation "lock_exclusive" (fun ctx args ->
        let* v = arg1 args in
        let* ms = int_arg v in
        reply [ Value.Bool (lock_exclusive ctx ms) ]);
    Typemgr.operation "unlock_shared" (fun ctx args ->
        let* () = no_args args in
        unlock_shared ctx;
        reply_unit);
    Typemgr.operation "unlock_exclusive" (fun ctx args ->
        let* () = no_args args in
        unlock_exclusive ctx;
        reply_unit);
    Typemgr.operation "checkpoint_now" (fun ctx args ->
        let* () = no_args args in
        let* () = ctx.checkpoint () in
        reply_unit);
    set_checksites_op;
  ]

let file_classes =
  [
    (* Lock operations block while waiting, so they need headroom. *)
    {
      Opclass.class_name = "sync";
      operations =
        [ "lock_shared"; "lock_exclusive"; "unlock_shared"; "unlock_exclusive" ];
      limit = 32;
    };
    (* Data operations are serialised: prepare/commit atomicity. *)
    {
      Opclass.class_name = "data";
      operations =
        [
          "current"; "version_at"; "version_count"; "prepare";
          "commit_version"; "abort_txn"; "checkpoint_now"; "set_checksites";
        ];
      limit = 1;
    };
  ]

(* Operations:
   ["current"] [] -> [Int vno; Cap version] (error [User_error] when empty);
   ["version_at"] [Int vno] -> [Cap version];
   ["version_count"] [] -> [Int];
   ["prepare"] [Str txn; Int expected_vno] -> [Bool ok] — [expected_vno]
   of [-1] skips validation (two-phase locking mode);
   ["commit_version"] [Str txn; Cap version] -> [Int new_vno];
   ["abort_txn"] [Str txn] -> [];
   ["lock_shared"] [Int timeout_ms] -> [Bool granted];
   ["lock_exclusive"] [Int timeout_ms] -> [Bool granted];
   ["unlock_shared"] [] -> [];
   ["unlock_exclusive"] [] -> [];
   ["checkpoint_now"] [] -> []. *)
let file_type =
  Typemgr.make_exn ~name:"efs_file" ~classes:file_classes ~code_bytes:12_288
    file_ops

(* ------------------------------------------------------------------ *)
(* Directories *)

let dir_entries ctx =
  match ctx.get_repr () with
  | Value.List entries -> Ok entries
  | _ -> Error (Error.User_error "corrupt directory representation")

(* Operations:
   ["lookup"] [Str name] -> [Cap];
   ["bind"] [Str name; Cap c] -> [] (error if bound);
   ["rebind"] [Str name; Cap c] -> [];
   ["unbind"] [Str name] -> [];
   ["list"] [] -> [List of Str];
   ["entries"] [] -> [List of Pair(Str, Cap)];
   ["checkpoint_now"] [] -> []. *)
let dir_type =
  Typemgr.make_exn ~name:"efs_dir" ~code_bytes:8_192
    ~classes:
      (Opclass.one_class ~name:"all"
         ~operations:
           [ "lookup"; "bind"; "rebind"; "unbind"; "list"; "entries";
             "checkpoint_now" ]
         ~limit:1)
    [
      Typemgr.operation "lookup" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* name = str_arg v in
          let* entries = dir_entries ctx in
          let found =
            List.find_map
              (fun e ->
                match e with
                | Value.Pair (Value.Str n, Value.Cap c) when n = name -> Some c
                | _ -> None)
              entries
          in
          match found with
          | Some c -> reply [ Value.Cap c ]
          | None -> user_error (Printf.sprintf "no entry %S" name));
      Typemgr.operation "bind" (fun ctx args ->
          let* a, b = arg2 args in
          let* name = str_arg a in
          let* c = cap_arg b in
          let* entries = dir_entries ctx in
          let exists =
            List.exists
              (fun e ->
                match e with
                | Value.Pair (Value.Str n, _) -> n = name
                | _ -> false)
              entries
          in
          if exists then user_error (Printf.sprintf "entry %S exists" name)
          else
            let* () =
              ctx.set_repr
                (Value.List
                   (Value.Pair (Value.Str name, Value.Cap c) :: entries))
            in
            reply_unit);
      Typemgr.operation "rebind" (fun ctx args ->
          let* a, b = arg2 args in
          let* name = str_arg a in
          let* c = cap_arg b in
          let* entries = dir_entries ctx in
          let others =
            List.filter
              (fun e ->
                match e with
                | Value.Pair (Value.Str n, _) -> n <> name
                | _ -> true)
              entries
          in
          let* () =
            ctx.set_repr
              (Value.List (Value.Pair (Value.Str name, Value.Cap c) :: others))
          in
          reply_unit);
      Typemgr.operation "unbind" (fun ctx args ->
          let* v = arg1 args in
          let* name = str_arg v in
          let* entries = dir_entries ctx in
          let others =
            List.filter
              (fun e ->
                match e with
                | Value.Pair (Value.Str n, _) -> n <> name
                | _ -> true)
              entries
          in
          if List.length others = List.length entries then
            user_error (Printf.sprintf "no entry %S" name)
          else
            let* () = ctx.set_repr (Value.List others) in
            reply_unit);
      Typemgr.operation "list" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          let* entries = dir_entries ctx in
          let names =
            List.filter_map
              (fun e ->
                match e with
                | Value.Pair (Value.Str n, _) -> Some (Value.Str n)
                | _ -> None)
              entries
          in
          reply [ Value.List names ]);
      Typemgr.operation "entries" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          let* entries = dir_entries ctx in
          reply [ Value.List entries ]);
      Typemgr.operation "checkpoint_now" (fun ctx args ->
          let* () = no_args args in
          let* () = ctx.checkpoint () in
          reply_unit);
    ]

let register cl =
  Cluster.register_type cl version_type;
  Cluster.register_type cl file_type;
  Cluster.register_type cl dir_type
