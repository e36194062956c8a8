(* Tests for the comparison baselines: location-dependent RPC and the
   centralized configuration. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Eden_baseline

let check_bool = Alcotest.(check bool)

let with_rpc ?(n = 3) body =
  let f = Rpc.default ~n_nodes:n () in
  let result = ref None in
  let _ = Rpc.in_process f (fun () -> result := Some (body f)) in
  Rpc.run f;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver did not complete"

let echo_handler ctx args =
  ctx.Rpc.rpc_compute (Time.ms 1);
  Ok args

let test_rpc_local_and_remote () =
  with_rpc (fun f ->
      Rpc.register f ~node:0 ~proc:"echo" echo_handler;
      Rpc.register f ~node:1 ~proc:"echo" echo_handler;
      let r = Rpc.call f ~from:0 ~node:0 ~proc:"echo" [ Value.Int 1 ] in
      check_bool "local echo" true (r = Ok [ Value.Int 1 ]);
      let r = Rpc.call f ~from:0 ~node:1 ~proc:"echo" [ Value.Int 2 ] in
      check_bool "remote echo" true (r = Ok [ Value.Int 2 ]))

let test_rpc_remote_slower () =
  with_rpc (fun f ->
      Rpc.register f ~node:0 ~proc:"echo" echo_handler;
      Rpc.register f ~node:1 ~proc:"echo" echo_handler;
      let eng = Rpc.engine f in
      let timed thunk =
        let t0 = Engine.now eng in
        ignore (thunk ());
        Time.to_ns (Time.diff (Engine.now eng) t0)
      in
      let local =
        timed (fun () -> Rpc.call f ~from:0 ~node:0 ~proc:"echo" [])
      in
      let remote =
        timed (fun () -> Rpc.call f ~from:0 ~node:1 ~proc:"echo" [])
      in
      check_bool "remote > local" true (remote > local))

let test_rpc_errors () =
  with_rpc (fun f ->
      Rpc.register f ~node:1 ~proc:"echo" echo_handler;
      (match Rpc.call f ~from:0 ~node:1 ~proc:"nope" [] with
      | Error (Error.No_such_operation _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected No_such_operation");
      Alcotest.check_raises "duplicate registration"
        (Invalid_argument "Rpc.register: \"echo\" already registered on node 1")
        (fun () -> Rpc.register f ~node:1 ~proc:"echo" echo_handler))

let test_rpc_timeout () =
  with_rpc (fun f ->
      Rpc.register f ~node:1 ~proc:"slow" (fun ctx args ->
          ctx.Rpc.rpc_compute (Time.ms 100);
          Ok args);
      match
        Rpc.call f ~from:0 ~timeout:(Time.ms 5) ~node:1 ~proc:"slow" []
      with
      | Error Error.Timeout -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected timeout")

let test_rpc_nested_call () =
  with_rpc (fun f ->
      Rpc.register f ~node:2 ~proc:"leaf" (fun _ args -> Ok args);
      Rpc.register f ~node:1 ~proc:"relay" (fun ctx args ->
          ctx.Rpc.rpc_call ~node:2 ~proc:"leaf" args);
      let r = Rpc.call f ~from:0 ~node:1 ~proc:"relay" [ Value.Str "x" ] in
      check_bool "relayed" true (r = Ok [ Value.Str "x" ]))

let test_rpc_no_transparency () =
  (* The defining limitation: calling the wrong node fails even though
     the procedure exists elsewhere. *)
  with_rpc (fun f ->
      Rpc.register f ~node:2 ~proc:"only_here" echo_handler;
      match Rpc.call f ~from:0 ~node:1 ~proc:"only_here" [] with
      | Error (Error.No_such_operation _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "location dependence violated")

(* ------------------------------------------------------------------ *)
(* Central configuration *)

let counter_type =
  let open Api in
  Typemgr.make_exn ~name:"central_counter"
    [
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
    ]

let test_central_placement () =
  let cl = Central.cluster ~terminals:3 () in
  Cluster.register_type cl counter_type;
  let outcome = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        match Central.create_on_server cl ~type_name:"central_counter"
                (Value.Int 0)
        with
        | Error e -> outcome := Some (Error e)
        | Ok cap ->
          (* All terminals share the same central object. *)
          let r1 = Cluster.invoke cl ~from:1 cap ~op:"incr" [] in
          let r2 = Cluster.invoke cl ~from:2 cap ~op:"incr" [] in
          let r3 = Cluster.invoke cl ~from:3 cap ~op:"incr" [] in
          outcome := Some (Ok (r1, r2, r3, Cluster.where_is cl cap)))
  in
  Cluster.run cl;
  match !outcome with
  | Some (Ok (r1, _, r3, where)) ->
    check_bool "first incr" true (r1 = Ok [ Value.Int 1 ]);
    check_bool "third incr" true (r3 = Ok [ Value.Int 3 ]);
    check_bool "lives on server" true (where = Some Central.server_node);
    check_bool "remote traffic happened" true
      (Cluster.stats_remote_invocations cl >= 3)
  | Some (Error e) -> Alcotest.failf "create: %s" (Error.to_string e)
  | None -> Alcotest.fail "driver did not run"

let () =
  Alcotest.run "eden_baseline"
    [
      ( "rpc",
        [
          Alcotest.test_case "local and remote" `Quick
            test_rpc_local_and_remote;
          Alcotest.test_case "remote slower" `Quick test_rpc_remote_slower;
          Alcotest.test_case "errors" `Quick test_rpc_errors;
          Alcotest.test_case "timeout" `Quick test_rpc_timeout;
          Alcotest.test_case "nested call" `Quick test_rpc_nested_call;
          Alcotest.test_case "no transparency" `Quick
            test_rpc_no_transparency;
        ] );
      ( "central",
        [ Alcotest.test_case "placement" `Quick test_central_placement ] );
    ]
