(* Third kernel test wave: forwarding chains, stale knowledge after
   destruction, degraded mirrors, rights of capabilities passed as
   parameters, and remote creation against dead nodes. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Error.to_string e)

let expect_error label expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" label (Error.to_string expected)
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: got %s" label (Error.to_string e))
      true
      (e = expected)

let counter_type =
  Typemgr.make_exn ~name:"counter3"
    [
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "slow_incr" (fun ctx args ->
          let* () = no_args args in
          Engine.delay (Time.ms 20);
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "poke_other" (fun ctx args ->
          (* Invoke "incr" on a capability received as a parameter,
             exactly as presented: rights travel with the capability. *)
          let* v = arg1 args in
          let* target = cap_arg v in
          let* r = ctx.invoke target ~op:"incr" [] in
          reply r);
      Typemgr.operation "read_other" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* target = cap_arg v in
          let* r = ctx.invoke target ~op:"get" [] in
          reply r);
      Typemgr.operation "set_rel_mirror" (fun ctx args ->
          let* v = arg1 args in
          let* l =
            Value.to_list v
            |> Result.map_error (fun m -> Error.Bad_arguments m)
          in
          let sites =
            List.filter_map (fun x -> Result.to_option (Value.to_int x)) l
          in
          let* () = ctx.set_reliability (Reliability.Mirrored sites) in
          reply_unit);
      Typemgr.operation "checkpoint" (fun ctx args ->
          let* () = no_args args in
          let* () = ctx.checkpoint () in
          reply_unit);
    ]

let with_cluster ?seed ?(n = 4) body =
  let cl = Cluster.default ?seed ~n_nodes:n () in
  Cluster.register_type cl counter_type;
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body cl)) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver did not complete"

let new_counter cl ~node init =
  ok_or_fail "create"
    (Cluster.create_object cl ~node ~type_name:"counter3" (Value.Int init))

(* ------------------------------------------------------------------ *)

let test_forwarding_chain_of_moves () =
  (* Object moves 0 -> 1 -> 2; a caller whose hint still points at node
     0 is forwarded along the chain, and its hint is repaired. *)
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      (* Node 3 learns the object is at node 0. *)
      ignore (ok_or_fail "warm" (Cluster.invoke cl ~from:3 cap ~op:"get" []));
      ignore (ok_or_fail "move1" (Cluster.move cl cap ~to_node:1));
      ignore (ok_or_fail "move2" (Cluster.move cl cap ~to_node:2));
      check_bool "at node 2" true (Cluster.where_is cl cap = Some 2);
      (* Stale hint at node 3 -> node 0 forward -> node 1 forward -> 2. *)
      check_int "reached through the chain" 1
        (match Cluster.invoke cl ~from:3 cap ~op:"incr" [] with
        | Ok [ Value.Int n ] -> n
        | Ok _ | Error _ -> -1);
      (* Second call must be direct (hint repaired): compare times. *)
      let eng = Cluster.engine cl in
      let t0 = Engine.now eng in
      ignore (ok_or_fail "direct" (Cluster.invoke cl ~from:3 cap ~op:"get" []));
      let direct = Time.to_ns (Time.diff (Engine.now eng) t0) in
      check_bool "repaired to one hop" true (direct < 3_000_000))

let test_move_ping_pong () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      for _ = 1 to 3 do
        ignore (ok_or_fail "there" (Cluster.move cl cap ~to_node:1));
        ignore (ok_or_fail "back" (Cluster.move cl cap ~to_node:0))
      done;
      check_bool "home again" true (Cluster.where_is cl cap = Some 0);
      (* Forward pointers formed loops 0->1->0; hop caps and fresh
         pointers must still deliver. *)
      check_int "still serving" 1
        (match Cluster.invoke cl ~from:2 cap ~op:"incr" [] with
        | Ok [ Value.Int n ] -> n
        | Ok _ | Error _ -> -1))

let test_stale_hint_after_destroy () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore (ok_or_fail "warm" (Cluster.invoke cl ~from:1 cap ~op:"get" []));
      ignore (ok_or_fail "destroy" (Cluster.destroy cl cap));
      Engine.delay (Time.ms 5);
      (* Node 1's hint is gone (purged by the notice), and even if it
         weren't, the request must end in No_such_object, not hang. *)
      expect_error "gone" Error.No_such_object
        (Cluster.invoke cl ~from:1 cap ~op:"get" []))

let test_mirror_survives_dead_sibling () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      ignore
        (ok_or_fail "mirror"
           (Cluster.invoke cl ~from:0 cap ~op:"set_rel_mirror"
              [ Value.List [ Value.Int 1; Value.Int 2 ] ]));
      ignore (ok_or_fail "incr" (Cluster.invoke cl ~from:0 cap ~op:"incr" []));
      (* One mirror dies before the checkpoint: the checkpoint reports
         the failure but the surviving site still gets the snapshot. *)
      Cluster.crash_node cl 1;
      expect_error "degraded checkpoint" Error.Node_down
        (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []);
      check_bool "surviving mirror holds it" true
        (List.mem 2 (Cluster.checkpoint_sites cl cap));
      (* Recovery through the survivor works. *)
      Cluster.crash_node cl 0;
      check_int "recovered value" 1
        (match Cluster.invoke cl ~from:3 cap ~op:"get" [] with
        | Ok [ Value.Int n ] -> n
        | Ok _ | Error _ -> -1);
      check_bool "reincarnated at survivor" true
        (Cluster.where_is cl cap = Some 2))

let test_transferred_capability_keeps_own_rights () =
  (* An object invoking through a capability it RECEIVED uses that
     capability's rights, not its own standing. *)
  with_cluster (fun cl ->
      let target = new_counter cl ~node:1 0 in
      let relay = new_counter cl ~node:2 0 in
      (* Full-rights parameter: the relay can increment the target. *)
      (match
         Cluster.invoke cl ~from:0 relay ~op:"poke_other"
           [ Value.Cap target ]
       with
      | Ok [ Value.Int 1 ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "full-rights poke failed");
      (* A read-only parameter: mutation through it must be refused,
         even though the SAME relay object just succeeded with a
         stronger capability for the SAME target. *)
      let read_only =
        Capability.restrict target (Rights.of_list [ Rights.Invoke ])
      in
      (* "incr" requires only Invoke; restrict further to nothing. *)
      let no_rights = Capability.restrict target Rights.none in
      expect_error "no-rights parameter refused"
        (Error.Rights_violation "incr")
        (Cluster.invoke cl ~from:0 relay ~op:"poke_other"
           [ Value.Cap no_rights ]);
      (match
         Cluster.invoke cl ~from:0 relay ~op:"read_other"
           [ Value.Cap read_only ]
       with
      | Ok [ Value.Int 1 ] -> ()
      | Ok _ | Error _ -> Alcotest.fail "read-only parameter should read"))

let test_failed_move_readmits_stashed_requests () =
  (* A move to a full node fails; a request that arrived during the
     drain must still be answered afterwards (regression: stashed work
     was dropped on the failure paths). *)
  let tiny =
    {
      (Eden_hw.Machine.default_config ~name:"tiny") with
      Eden_hw.Machine.memory_bytes = 2_000;
    }
  in
  let configs =
    [
      Eden_hw.Machine.default_config ~name:"n0";
      Eden_hw.Machine.default_config ~name:"n1";
      tiny;
    ]
  in
  let cl = Cluster.create ~configs () in
  Cluster.register_type cl counter_type;
  let slow_holder = ref None and during = ref None and move_r = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        let cap = new_counter cl ~node:0 0 in
        (* Hold the object busy so the move has to drain. *)
        slow_holder :=
          Some (Cluster.invoke_async cl ~from:1 cap ~op:"slow_incr" []);
        Engine.delay (Time.ms 5);
        ignore
          (Cluster.in_process cl (fun () ->
               move_r := Some (Cluster.move cl cap ~to_node:2)));
        Engine.delay (Time.ms 1);
        (* This arrives while the object drains for the doomed move. *)
        during := Some (Cluster.invoke_async cl ~from:1 cap ~op:"incr" []))
  in
  Cluster.run cl;
  (match !move_r with
  | Some (Error Error.Out_of_memory) -> ()
  | Some (Ok ()) -> Alcotest.fail "move to a full node succeeded"
  | Some (Error e) -> Alcotest.failf "move: %s" (Error.to_string e)
  | None -> Alcotest.fail "move never resolved");
  (match !during with
  | Some p -> (
    match Eden_sim.Promise.peek p with
    | Some (Ok [ Value.Int 2 ]) -> ()
    | Some (Ok _) -> Alcotest.fail "wrong stashed result"
    | Some (Error e) ->
      Alcotest.failf "stashed request failed: %s" (Error.to_string e)
    | None -> Alcotest.fail "stashed request never answered")
  | None -> Alcotest.fail "no stashed request");
  ignore !slow_holder

let test_remote_create_on_dead_node () =
  let spawner =
    Typemgr.make_exn ~name:"spawner3"
      [
        Typemgr.operation "spawn_at" (fun ctx args ->
            let* v = arg1 args in
            let* node = int_arg v in
            match ctx.create_object ~type_name:"counter3" ~node (Value.Int 0) with
            | Ok cap -> reply [ Value.Cap cap ]
            | Error e -> Error e);
      ]
  in
  let cl = Cluster.default ~n_nodes:3 () in
  Cluster.register_type cl counter_type;
  Cluster.register_type cl spawner;
  let outcome = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        let sp =
          ok_or_fail "create spawner"
            (Cluster.create_object cl ~node:0 ~type_name:"spawner3" Value.Unit)
        in
        Cluster.crash_node cl 2;
        outcome :=
          Some (Cluster.invoke cl ~from:0 sp ~op:"spawn_at" [ Value.Int 2 ]))
  in
  Cluster.run cl;
  match !outcome with
  | Some (Error Error.Node_down) -> ()
  | Some (Ok _) -> Alcotest.fail "created an object on a dead node"
  | Some (Error e) -> Alcotest.failf "unexpected: %s" (Error.to_string e)
  | None -> Alcotest.fail "driver did not run"

let test_freeze_then_move_keeps_replicas_valid () =
  (* Replicas are immutable snapshots of a frozen object; moving the
     primary afterwards must not disturb them. *)
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 5 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      ignore (ok_or_fail "replicate" (Cluster.replicate cl cap ~to_node:3));
      ignore (ok_or_fail "move" (Cluster.move cl cap ~to_node:1));
      check_bool "primary moved" true (Cluster.where_is cl cap = Some 1);
      Alcotest.(check (list int)) "replica still at 3" [ 3 ]
        (Cluster.replica_sites cl cap);
      let before = Cluster.stats_remote_invocations cl in
      check_int "replica serves locally" 5
        (match Cluster.invoke cl ~from:3 cap ~op:"get" [] with
        | Ok [ Value.Int n ] -> n
        | Ok _ | Error _ -> -1);
      check_int "without network" before (Cluster.stats_remote_invocations cl))

(* ------------------------------------------------------------------ *)
(* Multi-segment clusters (paper Fig. 1: other networks via a gateway) *)

let two_segment_cluster () =
  let configs =
    List.init 4 (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "n%d" i))
  in
  let cl = Cluster.create ~segments:[ 2; 2 ] ~configs () in
  Cluster.register_type cl counter_type;
  cl

let test_cross_segment_invocation () =
  let cl = two_segment_cluster () in
  let outcome = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        check_int "node 1 on segment 0" 0 (Cluster.node_segment cl 1);
        check_int "node 2 on segment 1" 1 (Cluster.node_segment cl 2);
        let cap = new_counter cl ~node:0 0 in
        (* The locate broadcast must cross the bridge to find nothing
           beyond, and the invocation from segment 1 must reach segment
           0 transparently. *)
        outcome := Some (Cluster.invoke cl ~from:2 cap ~op:"incr" []))
  in
  Cluster.run cl;
  check_bool "cross-segment invoke" true (!outcome = Some (Ok [ Value.Int 1 ]));
  check_bool "bridge was used" true
    (Transport.bridge_forwards (Cluster.network cl) > 0)

let test_cross_segment_slower_than_intra () =
  let cl = two_segment_cluster () in
  let intra = ref Time.zero and cross = ref Time.zero in
  let _ =
    Cluster.in_process cl (fun () ->
        let eng = Cluster.engine cl in
        let cap = new_counter cl ~node:0 0 in
        let timed_from from =
          (* warm first *)
          ignore (ok_or_fail "warm" (Cluster.invoke cl ~from cap ~op:"get" []));
          let t0 = Engine.now eng in
          ignore (ok_or_fail "get" (Cluster.invoke cl ~from cap ~op:"get" []));
          Time.diff (Engine.now eng) t0
        in
        intra := timed_from 1;
        cross := timed_from 3)
  in
  Cluster.run cl;
  check_bool "bridge hop costs" true Time.(!cross > !intra);
  (* Two bridged hops (request + reply) at 500us each. *)
  check_bool "about a millisecond more" true
    (Time.to_ns !cross - Time.to_ns !intra > 900_000)

let test_cross_segment_move () =
  let cl = two_segment_cluster () in
  let _ =
    Cluster.in_process cl (fun () ->
        let cap = new_counter cl ~node:0 7 in
        ignore (ok_or_fail "move across" (Cluster.move cl cap ~to_node:3));
        check_bool "lives on segment 1" true
          (Cluster.where_is cl cap = Some 3);
        (* Forwarded invocation from the old segment still lands. *)
        check_int "state travelled" 7
          (match Cluster.invoke cl ~from:1 cap ~op:"get" [] with
          | Ok [ Value.Int n ] -> n
          | Ok _ | Error _ -> -1))
  in
  Cluster.run cl

let test_segment_validation () =
  let configs =
    List.init 3 (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "n%d" i))
  in
  Alcotest.check_raises "wrong sum"
    (Invalid_argument "Cluster.create: segment sizes must sum to node count")
    (fun () -> ignore (Cluster.create ~segments:[ 2; 2 ] ~configs ()));
  Alcotest.check_raises "empty segment"
    (Invalid_argument "Cluster.create: segment sizes must be positive")
    (fun () -> ignore (Cluster.create ~segments:[ 3; 0 ] ~configs ()))

(* ------------------------------------------------------------------ *)
(* Lifecycle fuzz: random interleavings of every kernel primitive.
   The point is not the outcomes (most are allowed to fail) but the
   invariants: no internal assertion, no Fatal, no deadlock, and every
   surviving object still answers coherently afterwards. *)

let legitimate = function
  | Ok _ -> true
  | Error
      ( Error.No_such_object | Error.Timeout | Error.Object_crashed
      | Error.Node_down | Error.Out_of_memory | Error.Frozen_immutable
      | Error.Rights_violation _ | Error.Move_refused _ | Error.Disk_failed )
    ->
    true
  | Error (Error.No_such_operation _ | Error.Bad_arguments _ | Error.User_error _)
    ->
    false

(* One soup, drawn from [seed]: true when every outcome was legitimate
   and neither run stalled.  Exceptions (an internal assertion, an
   accounting error) propagate. *)
let lifecycle_soup seed =
  let cl = Cluster.default ~seed:(Int64.of_int (seed + 13)) ~n_nodes:4 () in
  Cluster.register_type cl counter_type;
  let rng = Splitmix.create (Int64.of_int seed) in
  let caps = ref [||] in
  let bad = ref 0 in
  let record r = if not (legitimate r) then incr bad in
  let actor () =
    for _ = 1 to 30 do
      Engine.delay (Time.ms (1 + Splitmix.int rng 20));
      let arr = !caps in
      if Array.length arr > 0 then begin
        let cap = arr.(Splitmix.int rng (Array.length arr)) in
        match Splitmix.int rng 8 with
        | 0 | 1 | 2 ->
          record
            (Cluster.invoke cl ~from:0 ~timeout:(Time.s 1) cap ~op:"incr"
               [])
        | 3 ->
          record
            (Result.map (fun () -> [])
               (Cluster.checkpoint_of cl cap))
        | 4 ->
          record
            (Result.map
               (fun () -> [])
               (Cluster.move cl cap
                  ~to_node:(Splitmix.int rng 4)))
        | 5 ->
          record (Result.map (fun () -> []) (Cluster.freeze cl cap));
          record
            (Result.map
               (fun () -> [])
               (Cluster.replicate cl cap
                  ~to_node:(Splitmix.int rng 4)))
        | 6 ->
          record
            (Cluster.invoke cl ~from:0 ~timeout:(Time.s 1) cap
               ~op:"checkpoint" []);
          record
            (Cluster.invoke cl ~from:0 ~timeout:(Time.s 1) cap ~op:"get"
               [])
        | _ -> record (Result.map (fun () -> []) (Cluster.destroy cl cap))
      end
    done
  in
  let chaos () =
    for _ = 1 to 6 do
      Engine.delay (Time.ms (10 + Splitmix.int rng 60));
      (* Node 0 hosts the actors' viewpoint; never kill it. *)
      let victim = 1 + Splitmix.int rng 3 in
      Cluster.crash_node cl victim;
      Engine.delay (Time.ms (5 + Splitmix.int rng 40));
      Cluster.restart_node cl victim
    done
  in
  let _ =
    Cluster.in_process cl (fun () ->
        caps :=
          Array.init 6 (fun i ->
              match
                Cluster.create_object cl ~node:(i mod 4)
                  ~type_name:"counter3" (Value.Int 0)
              with
              | Ok c -> c
              | Error e -> failwith (Error.to_string e));
        ignore (Cluster.in_process cl actor);
        ignore (Cluster.in_process cl actor);
        ignore (Cluster.in_process cl chaos))
  in
  (match Cluster.run cl with
  | () -> ()
  | exception Engine.Stalled_waiting -> incr bad);
  (* Every capability still resolves to a coherent outcome. *)
  let _ =
    Cluster.in_process cl (fun () ->
        Array.iter
          (fun cap ->
            record
              (Cluster.invoke cl ~from:0 ~timeout:(Time.s 2) cap ~op:"get"
                 []))
          !caps)
  in
  (match Cluster.run cl with
  | () -> ()
  | exception Engine.Stalled_waiting -> incr bad);
  !bad = 0

let prop_cluster_lifecycle_fuzz =
  QCheck.Test.make ~name:"random kernel lifecycle soup stays coherent"
    ~count:25
    QCheck.(int_range 0 100_000)
    lifecycle_soup

(* Inputs the fuzz once failed on, each an operation that straddles a
   node crash: a destroy of an object registered against memory the
   restarted node never reserved (86939), a move whose source crashed
   while it waited for the target's ack (2892), and a run that ended
   stalled (3196). *)
let test_soup_input seed () =
  check_bool (Printf.sprintf "soup %d coherent" seed) true (lifecycle_soup seed)

(* [test_kernel3.exe sweep LO HI]: the soup on every input from LO to HI
   in turn, so the outcome does not depend on a random seed.  Prints
   each failing input and exits 1 if there was one. *)
let sweep lo hi =
  let failed = ref 0 in
  for seed = lo to hi do
    let verdict =
      match lifecycle_soup seed with
      | true -> None
      | false -> Some "incoherent outcome or stall"
      | exception e -> Some (Printexc.to_string e)
    in
    Option.iter
      (fun why ->
        incr failed;
        Printf.printf "soup %d: %s\n%!" seed why)
      verdict
  done;
  Printf.printf "lifecycle sweep %d..%d: %d failed\n" lo hi !failed;
  exit (if !failed = 0 then 0 else 1)

let () =
  (match Sys.argv with
  | [| _; "sweep"; lo; hi |] -> sweep (int_of_string lo) (int_of_string hi)
  | _ -> ());
  Alcotest.run "eden_kernel3"
    [
      ( "location",
        [
          Alcotest.test_case "forwarding chain" `Quick
            test_forwarding_chain_of_moves;
          Alcotest.test_case "move ping-pong" `Quick test_move_ping_pong;
          Alcotest.test_case "stale hint after destroy" `Quick
            test_stale_hint_after_destroy;
          Alcotest.test_case "failed move re-admits stash" `Quick
            test_failed_move_readmits_stashed_requests;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "degraded mirror" `Quick
            test_mirror_survives_dead_sibling;
          Alcotest.test_case "remote create on dead node" `Quick
            test_remote_create_on_dead_node;
        ] );
      ( "capabilities",
        [
          Alcotest.test_case "transferred rights" `Quick
            test_transferred_capability_keeps_own_rights;
        ] );
      ( "replication",
        [
          Alcotest.test_case "freeze, replicate, move" `Quick
            test_freeze_then_move_keeps_replicas_valid;
        ] );
      ( "segments",
        [
          Alcotest.test_case "cross-segment invocation" `Quick
            test_cross_segment_invocation;
          Alcotest.test_case "bridge latency visible" `Quick
            test_cross_segment_slower_than_intra;
          Alcotest.test_case "cross-segment move" `Quick
            test_cross_segment_move;
          Alcotest.test_case "validation" `Quick test_segment_validation;
        ] );
      ( "fuzz",
        QCheck_alcotest.to_alcotest prop_cluster_lifecycle_fuzz
        :: List.map
             (fun seed ->
               Alcotest.test_case (Printf.sprintf "soup input %d" seed) `Quick
                 (test_soup_input seed))
             [ 86939; 2892; 3196 ] );
    ]
