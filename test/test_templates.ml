(* Tests for the standard object templates (paper sec. 4.1: "language
   subsystems will provide standard object templates"). *)

open Eden_kernel
open Eden_typesys

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Error.to_string e)

let with_cluster ~types body =
  let cl = Cluster.default ~n_nodes:2 () in
  List.iter (Cluster.register_type cl) types;
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body cl)) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver did not complete"

(* ------------------------------------------------------------------ *)
(* Register *)

let test_register_template () =
  let tm = Templates.register_type ~name:"cell" in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"cell" (Value.Int 1))
      in
      check_bool "read initial" true
        (Cluster.invoke cl ~from:1 cap ~op:"read" [] = Ok [ Value.Int 1 ]);
      ignore
        (ok_or_fail "write"
           (Cluster.invoke cl ~from:1 cap ~op:"write" [ Value.Str "two" ]));
      check_bool "read new" true
        (Cluster.invoke cl ~from:0 cap ~op:"read" [] = Ok [ Value.Str "two" ]);
      (* The write right (Aux 0) is enforced. *)
      let read_only = Capability.restrict cap Rights.invoke_only in
      match Cluster.invoke cl ~from:0 read_only ~op:"write" [ Value.Unit ] with
      | Error (Error.Rights_violation _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "write without Aux 0 accepted")

(* ------------------------------------------------------------------ *)
(* Queue *)

let test_queue_template () =
  let tm = Templates.queue_type ~name:"q" in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"q" (Value.List []))
      in
      (match Cluster.invoke cl ~from:0 cap ~op:"dequeue" [] with
      | Error (Error.User_error _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "empty dequeue");
      List.iter
        (fun i ->
          ignore
            (ok_or_fail "enqueue"
               (Cluster.invoke cl ~from:(i mod 2) cap ~op:"enqueue"
                  [ Value.Int i ])))
        [ 1; 2; 3 ];
      check_bool "length" true
        (Cluster.invoke cl ~from:0 cap ~op:"length" [] = Ok [ Value.Int 3 ]);
      check_bool "peek" true
        (Cluster.invoke cl ~from:1 cap ~op:"peek" [] = Ok [ Value.Int 1 ]);
      check_bool "fifo 1" true
        (Cluster.invoke cl ~from:0 cap ~op:"dequeue" [] = Ok [ Value.Int 1 ]);
      check_bool "fifo 2" true
        (Cluster.invoke cl ~from:0 cap ~op:"dequeue" [] = Ok [ Value.Int 2 ]);
      check_bool "fifo 3" true
        (Cluster.invoke cl ~from:1 cap ~op:"dequeue" [] = Ok [ Value.Int 3 ]))

(* ------------------------------------------------------------------ *)
(* KV *)

let test_kv_template () =
  let tm = Templates.kv_type ~name:"kv" in
  with_cluster ~types:[ tm ] (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"kv" (Value.List []))
      in
      let put k v =
        ignore
          (ok_or_fail "put"
             (Cluster.invoke cl ~from:0 cap ~op:"put" [ Value.Str k; v ]))
      in
      put "a" (Value.Int 1);
      put "b" (Value.Int 2);
      put "a" (Value.Int 10) (* overwrite *);
      check_bool "get a" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [ Value.Str "a" ]
        = Ok [ Value.Int 10 ]);
      check_bool "size" true
        (Cluster.invoke cl ~from:0 cap ~op:"size" [] = Ok [ Value.Int 2 ]);
      ignore
        (ok_or_fail "delete"
           (Cluster.invoke cl ~from:0 cap ~op:"delete" [ Value.Str "a" ]));
      (match Cluster.invoke cl ~from:0 cap ~op:"get" [ Value.Str "a" ] with
      | Error (Error.User_error _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "deleted key still present");
      match Cluster.invoke cl ~from:0 cap ~op:"keys" [] with
      | Ok [ Value.List [ Value.Str "b" ] ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "keys wrong")

(* ------------------------------------------------------------------ *)
(* Auto-checkpoint wrapper *)

let test_auto_checkpoint () =
  let tm =
    Templates.with_auto_checkpoint ~every:3 (Templates.queue_type ~name:"aq")
  in
  let cl = Cluster.default ~n_nodes:2 () in
  Cluster.register_type cl tm;
  let cap_ref = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        let cap =
          ok_or_fail "create"
            (Cluster.create_object cl ~node:0 ~type_name:"aq" (Value.List []))
        in
        cap_ref := Some cap;
        (* Two mutations: below the threshold, no checkpoint yet. *)
        for i = 1 to 2 do
          ignore
            (ok_or_fail "enq"
               (Cluster.invoke cl ~from:0 cap ~op:"enqueue" [ Value.Int i ]))
        done;
        Alcotest.(check (list int))
          "no snapshot yet" []
          (Cluster.checkpoint_sites cl cap);
        (* Third mutation triggers the template's checkpoint. *)
        ignore
          (ok_or_fail "enq3"
             (Cluster.invoke cl ~from:0 cap ~op:"enqueue" [ Value.Int 3 ]));
        check_bool "snapshot exists" true
          (Cluster.checkpoint_sites cl cap <> []);
        (* A fourth mutation happens after the checkpoint... *)
        ignore
          (ok_or_fail "enq4"
             (Cluster.invoke cl ~from:0 cap ~op:"enqueue" [ Value.Int 4 ])))
  in
  Cluster.run cl;
  let cap = Option.get !cap_ref in
  (* Crash the node: the object reincarnates from the every=3 boundary,
     losing only the fourth element. *)
  Cluster.crash_node cl 0;
  Cluster.restart_node cl 0;
  let len = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        len := Some (Cluster.invoke cl ~from:1 cap ~op:"length" []))
  in
  Cluster.run cl;
  check_bool "recovered at checkpoint boundary" true
    (!len = Some (Ok [ Value.Int 3 ]))

let test_auto_checkpoint_validation () =
  Alcotest.check_raises "every=0"
    (Invalid_argument "Templates.with_auto_checkpoint: every < 1") (fun () ->
      ignore
        (Templates.with_auto_checkpoint ~every:0
           (Templates.queue_type ~name:"x")))

(* ------------------------------------------------------------------ *)
(* Operation log wrapper *)

let test_operation_log () =
  let tm = Templates.with_operation_log (Templates.register_type ~name:"lc") in
  let cl = Cluster.default ~n_nodes:1 () in
  Cluster.register_type cl tm;
  let _ =
    Cluster.in_process cl (fun () ->
        match
          Cluster.create_object cl ~node:0 ~type_name:"lc" (Value.Int 0)
        with
        | Error _ -> ()
        | Ok cap ->
          ignore (Cluster.invoke cl ~from:0 cap ~op:"read" []);
          ignore (Cluster.invoke cl ~from:0 cap ~op:"write" [ Value.Int 1 ]))
  in
  Cluster.run cl;
  let logs =
    List.filter_map
      (fun (e : Eden_obs.Journal.event) ->
        match e.ev_kind with
        | Eden_obs.Journal.Log { text; _ } -> Some text
        | _ -> None)
      (Eden_obs.Timeline.events (Cluster.timeline cl))
  in
  check_int "two operations logged" 2 (List.length logs);
  check_bool "read logged ok" true (List.mem "read: ok" logs)

let () =
  Alcotest.run "eden_templates"
    [
      ( "types",
        [
          Alcotest.test_case "register" `Quick test_register_template;
          Alcotest.test_case "queue" `Quick test_queue_template;
          Alcotest.test_case "kv" `Quick test_kv_template;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "auto-checkpoint" `Quick test_auto_checkpoint;
          Alcotest.test_case "auto-checkpoint validation" `Quick
            test_auto_checkpoint_validation;
          Alcotest.test_case "operation log" `Quick test_operation_log;
        ] );
    ]
