(* Second kernel test wave: destruction, concurrency corner cases,
   the locate-storm regression, memory pressure, and frozen-object
   lifecycle interactions. *)

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
  Typemgr.make_exn ~name:"counter2"
    [
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "grow" (fun ctx args ->
          let* v = arg1 args in
          let* bytes = int_arg v in
          let* () = ctx.set_repr (Value.Blob bytes) in
          reply_unit);
      Typemgr.operation "checkpoint" (fun ctx args ->
          let* () = no_args args in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "slow_get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          ignore ctx;
          Engine.delay (Time.ms 20);
          reply [ ctx.get_repr () ]);
      Typemgr.operation "spawn_and_wait" (fun ctx args ->
          let* () = no_args args in
          (* A subordinate process computes; the invocation waits for
             its signal through an object port. *)
          let port = ctx.port "sub_done" in
          ctx.spawn_subprocess (fun () ->
              ctx.compute (Time.ms 5);
              ignore (Eden_sim.Mailbox.try_send port (Value.Int 99)));
          match Eden_sim.Mailbox.recv ~timeout:(Time.s 1) port with
          | Some v -> reply [ v ]
          | None -> user_error "subprocess never signalled");
    ]

let with_cluster ?seed ?options ?(n = 3) body =
  let cl = Cluster.default ?seed ?options ~n_nodes:n () in
  Cluster.register_type cl counter_type;
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body cl)) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver did not complete"

let new_counter cl ~node init =
  ok_or_fail "create"
    (Cluster.create_object cl ~node ~type_name:"counter2" (Value.Int init))

(* ------------------------------------------------------------------ *)
(* Destroy *)

let test_destroy_active () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 5 in
      ignore (ok_or_fail "destroy" (Cluster.destroy cl cap));
      check_bool "not active" false (Cluster.is_active cl cap);
      expect_error "gone" Error.No_such_object
        (Cluster.invoke cl ~from:1 cap ~op:"get" []))

let test_destroy_purges_checkpoints () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 5 in
      ignore (ok_or_fail "ckpt" (Cluster.invoke cl ~from:0 cap ~op:"checkpoint" []));
      check_bool "snapshot exists" true (Cluster.checkpoint_sites cl cap <> []);
      ignore (ok_or_fail "destroy" (Cluster.destroy cl cap));
      (* Give the broadcast notice time to arrive everywhere. *)
      Engine.delay (Time.ms 5);
      Alcotest.(check (list int)) "snapshots purged" []
        (Cluster.checkpoint_sites cl cap);
      expect_error "cannot reincarnate" Error.No_such_object
        (Cluster.invoke cl ~from:2 cap ~op:"get" []))

let test_destroy_requires_right () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      let weak = Capability.restrict cap Rights.invoke_only in
      expect_error "denied" (Error.Rights_violation "destroy")
        (Cluster.destroy cl weak);
      (* Still alive after the failed attempt. *)
      check_bool "alive" true (Cluster.is_active cl cap))

let test_destroy_missing_object () =
  with_cluster (fun cl ->
      let ghost =
        Capability.make (Name.make ~birth_node:0 ~serial:999_999) Rights.all
      in
      expect_error "nothing to destroy" Error.No_such_object
        (Cluster.destroy cl ghost))

let test_destroy_kills_replicas () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 1 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      ignore (ok_or_fail "replicate" (Cluster.replicate cl cap ~to_node:2));
      Alcotest.(check (list int)) "replica up" [ 2 ]
        (Cluster.replica_sites cl cap);
      ignore (ok_or_fail "destroy" (Cluster.destroy cl cap));
      Engine.delay (Time.ms 5);
      Alcotest.(check (list int)) "replica gone" []
        (Cluster.replica_sites cl cap);
      expect_error "unreachable from replica node" Error.No_such_object
        (Cluster.invoke cl ~from:2 cap ~op:"get" []))

(* ------------------------------------------------------------------ *)
(* Concurrency corners *)

let test_locate_storm_regression () =
  (* 70 simultaneous remote invocations from 7 nodes used to starve the
     locate window and fail with No_such_object (see DESIGN.md on
     locate coalescing). *)
  with_cluster ~n:8 (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      let ps =
        List.concat_map
          (fun from ->
            List.init 10 (fun _ ->
                Cluster.invoke_async cl ~from cap ~op:"incr" []))
          (List.init 8 Fun.id)
      in
      let failures =
        List.fold_left
          (fun acc p ->
            match Promise.await p with
            | Some (Ok _) -> acc
            | Some (Error _) | None -> acc + 1)
          0 ps
      in
      check_int "no failures under storm" 0 failures;
      check_int "all increments landed" 80
        (match Cluster.invoke cl ~from:0 cap ~op:"get" [] with
        | Ok [ Value.Int n ] -> n
        | Ok _ | Error _ -> -1))

let test_invoke_during_move_completes () =
  (* Requests that arrive while the object drains for a move are
     stashed and served after the transfer. *)
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      (* A slow invocation holds the object busy while we move it. *)
      let slow = Cluster.invoke_async cl ~from:1 cap ~op:"slow_get" [] in
      Engine.delay (Time.ms 2);
      let move_p =
        let pr = Promise.create (Cluster.engine cl) in
        ignore
          (Cluster.in_process cl (fun () ->
               ignore (Promise.fill pr (Cluster.move cl cap ~to_node:2))));
        pr
      in
      Engine.delay (Time.ms 2);
      (* This request lands mid-drain. *)
      let during = Cluster.invoke_async cl ~from:1 cap ~op:"incr" [] in
      (match Promise.await slow with
      | Some (Ok _) -> ()
      | _ -> Alcotest.fail "slow invocation failed");
      (match Promise.await move_p with
      | Some (Ok ()) -> ()
      | Some (Error e) -> Alcotest.failf "move: %s" (Error.to_string e)
      | None -> Alcotest.fail "move never finished");
      (match Promise.await during with
      | Some (Ok [ Value.Int 1 ]) -> ()
      | Some (Ok _) -> Alcotest.fail "wrong increment result"
      | Some (Error e) -> Alcotest.failf "stashed request: %s" (Error.to_string e)
      | None -> Alcotest.fail "stashed request lost");
      check_bool "lives on node 2" true (Cluster.where_is cl cap = Some 2))

let test_subprocess () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      match Cluster.invoke cl ~from:0 cap ~op:"spawn_and_wait" [] with
      | Ok [ Value.Int 99 ] -> ()
      | Ok _ -> Alcotest.fail "wrong subprocess reply"
      | Error e -> Alcotest.failf "subprocess op: %s" (Error.to_string e))

let test_set_repr_out_of_memory () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 0 in
      expect_error "grow beyond node memory" Error.Out_of_memory
        (Cluster.invoke cl ~from:0 cap ~op:"grow" [ Value.Int 5_000_000 ]);
      (* The failed growth must not corrupt the object. *)
      check_bool "still serving" true
        (Cluster.invoke cl ~from:0 cap ~op:"get" [] = Ok [ Value.Int 0 ]))

let test_frozen_survives_reincarnation () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 7 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      ignore (ok_or_fail "ckpt" (Cluster.checkpoint_of cl cap));
      Cluster.crash_node cl 0;
      Cluster.restart_node cl 0;
      check_bool "readable again" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 7 ]);
      (* Frozenness is part of the long-term state. *)
      expect_error "still frozen" Error.Frozen_immutable
        (Cluster.invoke cl ~from:1 cap ~op:"incr" []))

let test_double_crash_restart_idempotent () =
  with_cluster (fun cl ->
      Cluster.crash_node cl 1;
      Cluster.crash_node cl 1;
      check_bool "down" false (Cluster.node_up cl 1);
      Cluster.restart_node cl 1;
      Cluster.restart_node cl 1;
      check_bool "up" true (Cluster.node_up cl 1);
      (* The node works after the cycle. *)
      let cap = new_counter cl ~node:1 3 in
      check_bool "creates and serves" true
        (Cluster.invoke cl ~from:0 cap ~op:"get" [] = Ok [ Value.Int 3 ]))

let test_many_objects_same_type_share_code () =
  (* Type code is loaded once per node: creating many small objects
     must cost far less memory than code-per-object would. *)
  with_cluster ~n:1 (fun cl ->
      let caps =
        List.init 20 (fun i -> new_counter cl ~node:0 i)
      in
      List.iteri
        (fun i cap ->
          check_bool
            (Printf.sprintf "counter %d intact" i)
            true
            (Cluster.invoke cl ~from:0 cap ~op:"get" [] = Ok [ Value.Int i ]))
        caps;
      (* 20 counters plus the kernel's own node object. *)
      check_int "all twenty active" 21 (Cluster.active_objects cl 0))

let test_stats_monotone () =
  with_cluster (fun cl ->
      let before = Cluster.stats_invocations cl in
      let cap = new_counter cl ~node:0 0 in
      ignore (ok_or_fail "a" (Cluster.invoke cl ~from:0 cap ~op:"incr" []));
      ignore (ok_or_fail "b" (Cluster.invoke cl ~from:1 cap ~op:"incr" []));
      check_bool "counted" true (Cluster.stats_invocations cl >= before + 2);
      check_bool "remote subset" true
        (Cluster.stats_remote_invocations cl <= Cluster.stats_invocations cl))

(* ------------------------------------------------------------------ *)
(* Node objects (paper sec. 4.3: "a node is an object") *)

let test_timeout_bounds_locate () =
  (* A tight budget is honoured even when the kernel would otherwise
     spend several widening locate windows finding nothing. *)
  with_cluster (fun cl ->
      let ghost =
        Capability.make (Name.make ~birth_node:0 ~serial:123_456) Rights.all
      in
      let eng = Cluster.engine cl in
      let t0 = Engine.now eng in
      expect_error "deadline wins" Error.Timeout
        (Cluster.invoke cl ~from:0 ~timeout:(Time.ms 5) ghost ~op:"get" []);
      let waited = Time.to_ns (Time.diff (Engine.now eng) t0) in
      check_bool "returned promptly" true (waited <= 6_000_000);
      (* Without a deadline the verdict is No_such_object. *)
      expect_error "untimed verdict" Error.No_such_object
        (Cluster.invoke cl ~from:0 ghost ~op:"get" []))

let test_node_object_info () =
  with_cluster (fun cl ->
      let node1 = Cluster.node_object cl 1 in
      match Cluster.invoke cl ~from:0 node1 ~op:"info" [] with
      | Ok [ Value.Int gdps; Value.Int cap; Value.Int avail; Value.Int active ]
        ->
        check_int "gdps" 2 gdps;
        check_int "capacity" 1_000_000 cap;
        check_bool "memory available" true (avail > 0 && avail <= cap);
        (* Just the node object itself is active there. *)
        check_int "active objects" 1 active
      | Ok _ -> Alcotest.fail "unexpected info shape"
      | Error e -> Alcotest.failf "info: %s" (Error.to_string e))

let test_node_object_reflects_population () =
  with_cluster (fun cl ->
      let _ = new_counter cl ~node:1 0 in
      let _ = new_counter cl ~node:1 0 in
      match Cluster.invoke cl ~from:1 (Cluster.node_object cl 1) ~op:"info" [] with
      | Ok [ _; _; _; Value.Int active ] ->
        check_int "node object + two counters" 3 active
      | Ok _ | Error _ -> Alcotest.fail "info failed")

let test_node_object_heartbeat () =
  with_cluster (fun cl ->
      let target = Cluster.node_object cl 1 in
      (* Healthy: ping succeeds (and warms the hint). *)
      (match Cluster.invoke cl ~from:0 target ~op:"ping" [] with
      | Ok [] -> ()
      | Ok _ | Error _ -> Alcotest.fail "healthy ping failed");
      Cluster.crash_node cl 1;
      (* Down: the heartbeat times out. *)
      expect_error "down node" Error.Timeout
        (Cluster.invoke cl ~from:0 ~timeout:(Time.ms 50) target ~op:"ping" []);
      Cluster.restart_node cl 1;
      (* The node object reboots under the same name. *)
      match Cluster.invoke cl ~from:0 target ~op:"ping" [] with
      | Ok [] -> ()
      | Ok _ | Error _ -> Alcotest.fail "rebooted ping failed")

(* A property: any sequence of incr operations issued from random nodes
   equals the counter value afterwards (per-object serial semantics
   with singleton classes). *)
let prop_counter_linearises =
  QCheck.Test.make ~name:"increments from random nodes all land" ~count:20
    QCheck.(pair (int_range 1 30) (int_range 0 1000))
    (fun (n_ops, seed) ->
      let cl = Cluster.default ~seed:(Int64.of_int (seed + 1)) ~n_nodes:3 () in
      Cluster.register_type cl counter_type;
      let rng = Splitmix.create (Int64.of_int seed) in
      let ok = ref false in
      let _ =
        Cluster.in_process cl (fun () ->
            match
              Cluster.create_object cl ~node:0 ~type_name:"counter2"
                (Value.Int 0)
            with
            | Error _ -> ()
            | Ok cap ->
              let ps =
                List.init n_ops (fun _ ->
                    Cluster.invoke_async cl ~from:(Splitmix.int rng 3) cap
                      ~op:"incr" [])
              in
              List.iter (fun p -> ignore (Promise.await p)) ps;
              ok :=
                Cluster.invoke cl ~from:0 cap ~op:"get" []
                = Ok [ Value.Int n_ops ])
      in
      Cluster.run cl;
      !ok)

(* ------------------------------------------------------------------ *)
(* Soak: sustained mixed traffic with node failures, restarts and
   migrations happening mid-flight.  The assertions are liveness and
   sanity, not exact counts: nothing may deadlock, every user finishes,
   and every surviving object remains reachable and consistent. *)

let test_soak_with_failures () =
  let cl = Cluster.default ~seed:2024L ~n_nodes:6 () in
  Cluster.register_type cl counter_type;
  let eng = Cluster.engine cl in
  let caps = ref [] in
  let successes = ref 0 and failures = ref 0 and finished_users = ref 0 in
  let _ =
    Cluster.in_process cl (fun () ->
        (* Twelve durable counters spread over the cluster. *)
        for i = 0 to 11 do
          let cap = new_counter cl ~node:(i mod 6) 0 in
          ignore
            (ok_or_fail "ckpt" (Cluster.invoke cl ~from:(i mod 6) cap ~op:"checkpoint" []));
          caps := cap :: !caps
        done;
        let caps_arr = Array.of_list !caps in
        (* One user per node issuing tolerant invocations. *)
        for u = 0 to 5 do
          let rng = Engine.fork_rng eng in
          ignore
            (Cluster.in_process cl ~name:(Printf.sprintf "soak%d" u)
               (fun () ->
                 for _ = 1 to 15 do
                   Engine.delay (Time.ms (10 + Splitmix.int rng 40));
                   let cap = caps_arr.(Splitmix.int rng 12) in
                   match
                     Cluster.invoke cl ~from:u ~timeout:(Time.ms 500) cap
                       ~op:"incr" []
                   with
                   | Ok _ -> incr successes
                   | Error _ -> incr failures
                 done;
                 incr finished_users))
        done;
        (* A meddler migrates objects while traffic flows. *)
        ignore
          (Cluster.in_process cl ~name:"meddler" (fun () ->
               for k = 0 to 5 do
                 Engine.delay (Time.ms 60);
                 ignore
                   (Cluster.move cl caps_arr.(k * 2) ~to_node:((k + 3) mod 6))
               done));
        (* Failure injection, scheduled relative to the end of setup so
           the population is in place when machines start dying. *)
        Engine.schedule eng ~after:(Time.ms 120) (fun () ->
            Cluster.crash_node cl 1);
        Engine.schedule eng ~after:(Time.ms 320) (fun () ->
            Cluster.restart_node cl 1);
        Engine.schedule eng ~after:(Time.ms 450) (fun () ->
            Cluster.crash_node cl 2);
        Engine.schedule eng ~after:(Time.ms 650) (fun () ->
            Cluster.restart_node cl 2))
  in
  Cluster.run cl;
  check_int "every user finished" 6 !finished_users;
  check_int "all attempts accounted" 90 (!successes + !failures);
  check_bool "most invocations succeeded" true (!successes >= 60);
  (* After the dust settles, every object must be reachable and hold a
     sane value. *)
  let sane = ref 0 in
  let _ =
    Cluster.in_process cl (fun () ->
        List.iter
          (fun cap ->
            match Cluster.invoke cl ~from:0 ~timeout:(Time.s 2) cap ~op:"get" [] with
            | Ok [ Value.Int n ] when n >= 0 && n <= 90 -> incr sane
            | Ok _ | Error _ -> ())
          !caps)
  in
  Cluster.run cl;
  check_int "all objects reachable and sane" 12 !sane

(* ------------------------------------------------------------------ *)
(* Frozen-replica cache *)

module Snapshot = Eden_obs.Snapshot
module Metrics = Eden_obs.Metrics

let cache_opts =
  { Cluster.default_options with Cluster.use_replica_cache = true }

let cache_counter cl name ~node =
  let snap = Cluster.metrics_snapshot cl in
  match Snapshot.find snap ~labels:[ ("node", string_of_int node) ] name with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.failf "missing counter %s" name

let test_cache_miss_then_hit () =
  with_cluster ~options:cache_opts (fun cl ->
      let cap = new_counter cl ~node:0 7 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      check_bool "first read is remote" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 7 ]);
      check_bool "miss recorded" true
        (cache_counter cl "eden.replica_cache.misses" ~node:1 >= 1);
      (* Let the background fetch install the local copy. *)
      Engine.delay (Time.ms 200);
      let remote_before = Cluster.stats_remote_invocations cl in
      check_bool "second read still correct" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 7 ]);
      check_int "served locally, no new remote invocation" remote_before
        (Cluster.stats_remote_invocations cl);
      check_int "hit recorded" 1
        (cache_counter cl "eden.replica_cache.hits" ~node:1))

let test_cache_off_by_default () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 3 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      for _ = 1 to 3 do
        check_bool "read" true
          (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 3 ])
      done;
      Engine.delay (Time.ms 200);
      check_int "no misses without the option" 0
        (cache_counter cl "eden.replica_cache.misses" ~node:1);
      check_int "no hits either" 0
        (cache_counter cl "eden.replica_cache.hits" ~node:1))

let test_cache_unfreeze_invalidates () =
  with_cluster ~options:cache_opts (fun cl ->
      let cap = new_counter cl ~node:0 1 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      check_bool "warm the cache" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 1 ]);
      Engine.delay (Time.ms 200);
      check_int "cache serving" 1
        (Cluster.invoke cl ~from:1 cap ~op:"get" []
         |> function Ok [ Value.Int n ] -> n | _ -> -1);
      (* The version bump: unfreeze broadcasts on the nack path and
         every cached copy of the old representation must go. *)
      ignore (ok_or_fail "unfreeze" (Cluster.unfreeze cl cap));
      Engine.delay (Time.ms 5);
      check_bool "invalidation recorded" true
        (cache_counter cl "eden.replica_cache.invalidations" ~node:1 >= 1);
      check_bool "mutable again" true
        (Cluster.invoke cl ~from:1 cap ~op:"incr" [] = Ok [ Value.Int 2 ]);
      (* A freeze-mutate cycle must never serve the stale cached 1. *)
      check_bool "fresh value read" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 2 ]))

let test_unfreeze_refused_with_replicas () =
  with_cluster (fun cl ->
      let cap = new_counter cl ~node:0 4 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      ignore (ok_or_fail "replicate" (Cluster.replicate cl cap ~to_node:2));
      (match Cluster.unfreeze cl cap with
      | Error (Error.Move_refused _) -> ()
      | Ok () -> Alcotest.fail "unfreeze succeeded with pinned replicas"
      | Error e ->
        Alcotest.failf "unexpected error: %s" (Error.to_string e));
      expect_error "still frozen" Error.Frozen_immutable
        (Cluster.invoke cl ~from:1 cap ~op:"incr" []);
      let weak = Capability.restrict cap Rights.invoke_only in
      expect_error "needs the checkpoint right"
        (Error.Rights_violation "unfreeze")
        (Cluster.unfreeze cl weak))

let test_stale_fetch_discarded () =
  (* A [Cache_data] delayed past the unfreeze version bump carries the
     pre-thaw representation and must be discarded on arrival, not
     installed: the invalidation broadcast bypasses the unicast fault
     injector and overtakes the delayed reply. *)
  with_cluster ~options:cache_opts (fun cl ->
      let cap = new_counter cl ~node:0 1 in
      (* A plain read before freezing plants a location hint on node 1
         so the later reads need no locate round (locate replies would
         be delayed too). *)
      check_bool "plant the hint" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 1 ]);
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      let plan =
        Eden_fault.Plan.make
          [
            {
              Eden_fault.Plan.at = Time.ms 0;
              action =
                Eden_fault.Plan.Break_link
                  {
                    src = 0;
                    dst = 1;
                    kind = Eden_fault.Plan.Delay (Time.ms 60);
                    p = 1.0;
                  };
            };
          ]
      in
      let ctl = Eden_fault.Controller.arm cl plan in
      (* The frozen-hinted reply starts a background fetch whose
         Cache_data will now trail ~60ms behind. *)
      check_bool "read the frozen value" true
        (Cluster.invoke cl ~from:1 ~timeout:(Time.s 2) cap ~op:"get" []
        = Ok [ Value.Int 1 ]);
      (* Give the Cache_fetch time to reach node 0 and be answered
         while the object is still frozen (the 60ms delay applies only
         to the 0->1 direction), then bump and mutate while the
         Cache_data reply is still in flight. *)
      Engine.delay (Time.ms 20);
      ignore (ok_or_fail "unfreeze" (Cluster.unfreeze cl cap));
      check_bool "mutate at home" true
        (Cluster.invoke cl ~from:0 cap ~op:"incr" [] = Ok [ Value.Int 2 ]);
      (* Let the stale payload arrive, then heal the link. *)
      Engine.delay (Time.ms 200);
      Eden_fault.Controller.disarm ctl;
      (* Were the stale replica installed, this read would be served
         locally from the pre-thaw representation (1). *)
      check_bool "no stale read after the bump" true
        (Cluster.invoke cl ~from:1 ~timeout:(Time.s 2) cap ~op:"get" []
        = Ok [ Value.Int 2 ]))

let test_unfreeze_spares_unrelated_inflight () =
  (* The version bump used to ride the nack path with a fresh request
     id from the home node's counter; sequence numbers are node-local,
     so on a receiving node it could collide with an unrelated pending
     request — spuriously nacking a live invocation or dying on a
     pending-kind mismatch.  It now travels as [Cache_invalidate] with
     no request id, so freeze/unfreeze cycles while another node holds
     pending request state must leave that state untouched. *)
  let cl = Cluster.default ~options:cache_opts ~n_nodes:3 () in
  Cluster.register_type cl counter_type;
  let inflight = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        let frozen = new_counter cl ~node:0 7 in
        ignore (ok_or_fail "freeze" (Cluster.freeze cl frozen));
        let busy = new_counter cl ~node:2 5 in
        let _ =
          Cluster.in_process cl ~name:"slow-reader" (fun () ->
              inflight :=
                Some
                  (Cluster.invoke cl ~from:1 ~timeout:(Time.s 2) busy
                     ~op:"slow_get" []))
        in
        (* Let the reader finish its locate and park in the 20ms
           slow_get, then cycle so the home node's request-id counter
           sweeps the low sequence numbers node 1 is waiting on while
           its request is pending. *)
        Engine.delay (Time.ms 5);
        for _ = 1 to 5 do
          ignore (ok_or_fail "unfreeze" (Cluster.unfreeze cl frozen));
          ignore (ok_or_fail "freeze" (Cluster.freeze cl frozen));
          Engine.delay (Time.ms 2)
        done;
        Engine.delay (Time.ms 200))
  in
  Cluster.run cl;
  check_bool "in-flight invocation survived the version bumps" true
    (!inflight = Some (Ok [ Value.Int 5 ]));
  (* The bump must not be mistaken for a nack of the pending request
     (which would burn the retry budget and re-locate). *)
  check_int "no spurious nacks on the reading node" 0
    (cache_counter cl "eden.nacks" ~node:1)

let test_cache_cleared_on_crash () =
  with_cluster ~options:cache_opts (fun cl ->
      let cap = new_counter cl ~node:0 9 in
      ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
      ignore (ok_or_fail "warm" (Cluster.invoke cl ~from:1 cap ~op:"get" []));
      Engine.delay (Time.ms 200);
      Cluster.crash_node cl 1;
      Cluster.restart_node cl 1;
      (* The restarted node lost its volatile cache: the next read is
         remote again (a fresh miss), and still correct. *)
      let misses = cache_counter cl "eden.replica_cache.misses" ~node:1 in
      check_bool "read after restart" true
        (Cluster.invoke cl ~from:1 cap ~op:"get" [] = Ok [ Value.Int 9 ]);
      check_bool "fresh miss" true
        (cache_counter cl "eden.replica_cache.misses" ~node:1 > misses))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eden_kernel2"
    [
      ( "destroy",
        [
          Alcotest.test_case "active object" `Quick test_destroy_active;
          Alcotest.test_case "purges checkpoints" `Quick
            test_destroy_purges_checkpoints;
          Alcotest.test_case "requires right" `Quick
            test_destroy_requires_right;
          Alcotest.test_case "missing object" `Quick
            test_destroy_missing_object;
          Alcotest.test_case "kills replicas" `Quick
            test_destroy_kills_replicas;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "locate storm regression" `Quick
            test_locate_storm_regression;
          Alcotest.test_case "invoke during move" `Quick
            test_invoke_during_move_completes;
          Alcotest.test_case "subprocess" `Quick test_subprocess;
          Alcotest.test_case "set_repr OOM" `Quick
            test_set_repr_out_of_memory;
          Alcotest.test_case "frozen reincarnation" `Quick
            test_frozen_survives_reincarnation;
          Alcotest.test_case "crash/restart idempotent" `Quick
            test_double_crash_restart_idempotent;
          Alcotest.test_case "code sharing" `Quick
            test_many_objects_same_type_share_code;
          Alcotest.test_case "stats monotone" `Quick test_stats_monotone;
          qt prop_counter_linearises;
        ] );
      ( "node objects",
        [
          Alcotest.test_case "timeout bounds locate" `Quick
            test_timeout_bounds_locate;
          Alcotest.test_case "info" `Quick test_node_object_info;
          Alcotest.test_case "population" `Quick
            test_node_object_reflects_population;
          Alcotest.test_case "heartbeat" `Quick test_node_object_heartbeat;
        ] );
      ( "replica cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "off by default" `Quick test_cache_off_by_default;
          Alcotest.test_case "unfreeze invalidates" `Quick
            test_cache_unfreeze_invalidates;
          Alcotest.test_case "unfreeze refused with replicas" `Quick
            test_unfreeze_refused_with_replicas;
          Alcotest.test_case "stale in-flight fetch discarded" `Quick
            test_stale_fetch_discarded;
          Alcotest.test_case "unfreeze spares unrelated in-flight requests"
            `Quick test_unfreeze_spares_unrelated_inflight;
          Alcotest.test_case "cleared on crash" `Quick
            test_cache_cleared_on_crash;
        ] );
      ( "soak",
        [ Alcotest.test_case "failures + migration" `Quick test_soak_with_failures ]
      );
    ]
