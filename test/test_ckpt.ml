(* The checkpoint write path: versioned snapshots, delta checkpoints,
   the shared acknowledgement deadline, and the asynchronous pipeline.

   The three regression tests here fail against the pre-delta
   checkpoint code:
   - [test_shared_deadline]: do_checkpoint used to await each remote
     ack with a full 15s timeout of its own, so two dead checksites
     cost 30s instead of one shared 15s window.
   - [test_stale_reincarnation]: reincarnation used to rebuild from
     the first able checksite in list order, even when a later site
     held a newer snapshot.
   - [test_delta_fallback]: depends on the Ckpt_delta machinery (the
     fallback counter does not exist before it). *)

open Eden_util
open Eden_sim
open Eden_kernel
open Api
module Snapshot = Eden_obs.Snapshot
module Metrics = Eden_obs.Metrics
module Plan = Eden_fault.Plan
module Controller = Eden_fault.Controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Error.to_string e)

(* A counter plus a chunked variant: the repr is a [Value.List] of
   integer chunks, so touching one chunk dirties exactly one delta
   unit. *)
let chunky_ops =
  [
    Typemgr.operation "get" ~mutates:false (fun ctx args ->
        let* () = no_args args in
        reply [ ctx.get_repr () ]);
    Typemgr.operation "touch" (fun ctx args ->
        (* set chunk [i] to [v] *)
        let* a, b = arg2 args in
        let* i = int_arg a in
        let* v = int_arg b in
        let* chunks =
          Value.to_list (ctx.get_repr ())
          |> Result.map_error (fun m -> Error.Bad_arguments m)
        in
        let* () =
          ctx.set_repr
            (Value.List
               (List.mapi
                  (fun j c -> if j = i then Value.Int v else c)
                  chunks))
        in
        reply_unit);
    Typemgr.operation "grow" (fun ctx args ->
        let* v = arg1 args in
        let* bytes = int_arg v in
        let* () = ctx.set_repr (Value.Blob bytes) in
        reply_unit);
    Typemgr.operation "mirror" (fun ctx args ->
        let* v = arg1 args in
        let* l =
          Value.to_list v |> Result.map_error (fun m -> Error.Bad_arguments m)
        in
        let sites =
          List.filter_map (fun x -> Result.to_option (Value.to_int x)) l
        in
        let* () = ctx.set_reliability (Reliability.Mirrored sites) in
        reply_unit);
  ]

let chunky_type = Typemgr.make_exn ~name:"chunky" chunky_ops

let with_cluster ?seed ?options ?segments ?(n = 3) body =
  let configs =
    List.init n (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  let cl = Cluster.create ?seed ?options ?segments ~configs () in
  Cluster.register_type cl chunky_type;
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body cl)) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver process did not complete"

let delta_opts = { Cluster.default_options with Cluster.use_ckpt_delta = true }

let new_chunky cl ~node chunks =
  ok_or_fail "create chunky"
    (Cluster.create_object cl ~node ~type_name:"chunky"
       (Value.List (List.map (fun i -> Value.Int i) chunks)))

let mirror cl cap sites =
  ignore
    (ok_or_fail "mirror"
       (Cluster.invoke cl ~from:0 cap ~op:"mirror"
          [ Value.List (List.map (fun s -> Value.Int s) sites) ]))

let touch cl ~from cap i v =
  ignore
    (ok_or_fail "touch"
       (Cluster.invoke cl ~from cap ~op:"touch" [ Value.Int i; Value.Int v ]))

let get_chunks cl ~from cap =
  match Cluster.invoke cl ~from cap ~op:"get" [] with
  | Ok [ Value.List vs ] ->
    List.map
      (fun v -> match v with Value.Int n -> n | _ -> Alcotest.fail "chunk")
      vs
  | Ok _ -> Alcotest.fail "get: unexpected shape"
  | Error e -> Alcotest.failf "get: %s" (Error.to_string e)

let node_counter cl name ~node =
  let snap = Cluster.metrics_snapshot cl in
  match Snapshot.find snap ~labels:[ ("node", string_of_int node) ] name with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.failf "missing counter %s" name

let total_counter cl name =
  let rec sum node acc =
    if node >= Cluster.node_count cl then acc
    else sum (node + 1) (acc + node_counter cl name ~node)
  in
  sum 0 0

let node_gauge cl name ~node =
  let snap = Cluster.metrics_snapshot cl in
  match Snapshot.find snap ~labels:[ ("node", string_of_int node) ] name with
  | Some (Metrics.Gauge g) -> g
  | _ -> Alcotest.failf "missing gauge %s" name

(* ------------------------------------------------------------------ *)
(* Shared acknowledgement deadline (regression) *)

let test_shared_deadline () =
  (* Both checksites live across a partitioned bridge: neither write
     is ever acknowledged.  The round must give up after ONE shared
     15s window, not one window per dead site (the old sequential
     await cost 30s here). *)
  with_cluster ~segments:[ 2; 2 ] ~n:4 (fun cl ->
      let cap = new_chunky cl ~node:0 [ 1; 2; 3 ] in
      mirror cl cap [ 2; 3 ];
      let plan =
        Plan.make [ { Plan.at = Time.ms 1; action = Plan.Partition_segment 1 } ]
      in
      let _ctl = Controller.arm cl plan in
      Engine.delay (Time.ms 5);
      let t0 = Engine.now (Cluster.engine cl) in
      (match Cluster.checkpoint_of cl cap with
      | Ok () -> Alcotest.fail "checkpoint across a partition succeeded"
      | Error _ -> ());
      let elapsed = Time.diff (Engine.now (Cluster.engine cl)) t0 in
      check_bool
        (Printf.sprintf "one shared window, not one per site (%s)"
           (Time.to_string elapsed))
        true
        (Time.(elapsed < s 16) && Time.(elapsed >= s 14)))

(* ------------------------------------------------------------------ *)
(* Versioned reincarnation (regression) *)

let test_stale_reincarnation () =
  (* Checkpoint v1 everywhere, v2 only where the disk still works,
     then crash the home node.  The survivor holding v2 must win the
     reincarnation even though the stale site is listed first in the
     checksite order (and proactively rebuilds on restart). *)
  with_cluster (fun cl ->
      let cap = new_chunky cl ~node:0 [ 0 ] in
      mirror cl cap [ 2; 1 ];
      touch cl ~from:0 cap 0 1;
      ignore (ok_or_fail "ckpt v1" (Cluster.checkpoint_of cl cap));
      Cluster.set_disk_failed cl 2 true;
      touch cl ~from:0 cap 0 2;
      (* Site 2 refuses this round; site 1 now holds the newer state. *)
      (match Cluster.checkpoint_of cl cap with
      | Ok () -> Alcotest.fail "checkpoint with a failed mirror succeeded"
      | Error _ -> ());
      Cluster.set_disk_failed cl 2 false;
      Cluster.crash_node cl 0;
      Cluster.crash_node cl 2;
      Cluster.restart_node ~rebuild:true cl 2;
      Engine.delay (Time.ms 100);
      (* Pre-versioning, node 2 (first in [2; 1]) rebuilt its stale v1
         snapshot here and this read returned 1. *)
      check_int "newest state wins" 2
        (List.hd
           (get_chunks cl ~from:1 cap)))

(* ------------------------------------------------------------------ *)
(* Delta checkpoints and the fallback path *)

let test_delta_then_fallback () =
  with_cluster ~options:delta_opts (fun cl ->
      let cap = new_chunky cl ~node:0 [ 10; 20; 30; 40 ] in
      mirror cl cap [ 1; 2 ];
      (* Round 1 has no diff base: full writes. *)
      ignore (ok_or_fail "ckpt v1" (Cluster.checkpoint_of cl cap));
      let full1 = node_counter cl "eden.ckpt.full_bytes" ~node:0 in
      check_bool "first round ships full payloads" true (full1 > 0);
      check_int "no deltas yet" 0
        (node_counter cl "eden.ckpt.delta_bytes" ~node:0);
      (* Round 2: both sites acked v1, so one dirty chunk travels as a
         delta. *)
      touch cl ~from:0 cap 2 33;
      ignore (ok_or_fail "ckpt v2" (Cluster.checkpoint_of cl cap));
      check_bool "second round ships deltas" true
        (node_counter cl "eden.ckpt.delta_bytes" ~node:0 > 0);
      check_int "no extra full payloads" full1
        (node_counter cl "eden.ckpt.full_bytes" ~node:0);
      check_int "no fallbacks on the happy path" 0
        (total_counter cl "eden.ckpt.fallbacks");
      (* A failed disk nacks its delta; the sender falls back to a
         full write (which the dead disk also refuses). *)
      Cluster.set_disk_failed cl 2 true;
      touch cl ~from:0 cap 0 11;
      (match Cluster.checkpoint_of cl cap with
      | Ok () -> Alcotest.fail "checkpoint with a failed mirror succeeded"
      | Error _ -> ());
      check_bool "nacked delta fell back" true
        (total_counter cl "eden.ckpt.fallbacks" >= 1);
      Cluster.set_disk_failed cl 2 false;
      let fallbacks_before = total_counter cl "eden.ckpt.fallbacks" in
      (* Crash the home: the object reincarnates from the newest
         snapshot (site 1, v3) and optimistically assumes both mirrors
         are at that version.  Site 2 is actually still at v2, so the
         next delta is nacked on a genuine version mismatch and the
         full representation is re-sent. *)
      Cluster.crash_node cl 0;
      check_int "reincarnated state is current" 11
        (List.hd (get_chunks cl ~from:1 cap));
      touch cl ~from:1 cap 3 44;
      ignore (ok_or_fail "ckpt after reincarnation" (Cluster.checkpoint_of cl cap));
      check_bool "version mismatch fell back to a full write" true
        (total_counter cl "eden.ckpt.fallbacks" > fallbacks_before);
      (* And the fallback repaired the stale mirror: another round is
         all-delta again. *)
      let fallbacks_after = total_counter cl "eden.ckpt.fallbacks" in
      touch cl ~from:1 cap 1 22;
      ignore (ok_or_fail "ckpt repaired" (Cluster.checkpoint_of cl cap));
      check_int "mirror repaired, no further fallback" fallbacks_after
        (total_counter cl "eden.ckpt.fallbacks");
      check_bool "state survives it all" true
        (get_chunks cl ~from:2 cap = [ 11; 22; 33; 44 ]))

let test_delta_off_by_default () =
  with_cluster (fun cl ->
      let cap = new_chunky cl ~node:0 [ 1; 2 ] in
      mirror cl cap [ 1; 2 ];
      ignore (ok_or_fail "ckpt" (Cluster.checkpoint_of cl cap));
      touch cl ~from:0 cap 0 9;
      ignore (ok_or_fail "ckpt" (Cluster.checkpoint_of cl cap));
      check_int "no deltas without the option" 0
        (total_counter cl "eden.ckpt.delta_bytes"))

(* ------------------------------------------------------------------ *)
(* The asynchronous pipeline *)

let test_async_returns_immediately () =
  with_cluster ~options:delta_opts (fun cl ->
      let cap = new_chunky cl ~node:0 [ 0 ] in
      mirror cl cap [ 1; 2 ];
      (* A half-megabyte representation takes around a second to reach
         two mirrors over an era disk and LAN: the synchronous path
         blocks for that long, the async call must not. *)
      ignore
        (ok_or_fail "grow"
           (Cluster.invoke cl ~from:0 cap ~op:"grow"
              [ Value.Int 500_000 ]));
      let t0 = Engine.now (Cluster.engine cl) in
      ignore (ok_or_fail "ckpt async" (Cluster.checkpoint_async_of cl cap));
      let elapsed = Time.diff (Engine.now (Cluster.engine cl)) t0 in
      check_bool
        (Printf.sprintf "returned immediately (%s)" (Time.to_string elapsed))
        true
        Time.(elapsed < ms 1);
      (* While the round is in flight the gauge reads 1 and further
         requests coalesce instead of stacking. *)
      Engine.delay (Time.ms 10);
      check_bool "pipeline in flight" true
        (node_gauge cl "eden.ckpt.async_inflight" ~node:0 >= 1.0);
      ignore (ok_or_fail "coalesce 1" (Cluster.checkpoint_async_of cl cap));
      ignore (ok_or_fail "coalesce 2" (Cluster.checkpoint_async_of cl cap));
      check_int "both requests coalesced" 2
        (node_counter cl "eden.ckpt.coalesced" ~node:0);
      Engine.delay (Time.s 20);
      check_bool "pipeline drained" true
        (node_gauge cl "eden.ckpt.async_inflight" ~node:0 = 0.0);
      Alcotest.(check (list int))
        "both mirrors hold the snapshot" [ 1; 2 ]
        (Cluster.checkpoint_sites cl cap))

let test_async_then_sync_serialise () =
  (* A synchronous checkpoint issued while an async round is in flight
     waits for the slot instead of interleaving two rounds. *)
  with_cluster (fun cl ->
      let cap = new_chunky cl ~node:0 [ 0 ] in
      mirror cl cap [ 1; 2 ];
      ignore
        (ok_or_fail "grow"
           (Cluster.invoke cl ~from:0 cap ~op:"grow" [ Value.Int 500_000 ]));
      ignore (ok_or_fail "ckpt async" (Cluster.checkpoint_async_of cl cap));
      Engine.delay (Time.ms 1);
      ignore (ok_or_fail "ckpt sync" (Cluster.checkpoint_of cl cap));
      Alcotest.(check (list int))
        "snapshot settled" [ 1; 2 ]
        (Cluster.checkpoint_sites cl cap))

(* ------------------------------------------------------------------ *)
(* Every request/reply protocol, pinned across commits *)

(* A type whose one operation creates a [chunky] object on another
   node: the kernel's remote create, issued from inside a handler. *)
let spawner_type =
  Typemgr.make_exn ~name:"spawner"
    [
      Typemgr.operation "spawn" (fun ctx args ->
          let* a, init = arg2 args in
          let* node = int_arg a in
          let* cap = ctx.create_object ~type_name:"chunky" ~node init in
          reply [ Value.Cap cap ]);
    ]

(* One run that drives every request/reply exchange the kernel has:
   remote create, mirrored full, delta and async checkpoints, a move,
   freeze + replicate, frozen reads that fetch into the replica cache,
   and directory lookups that hit and (after the lease runs out) miss.
   The digest of the merged timeline and the final metrics snapshot is
   pinned, so any change to the order or content of a protocol's steps
   fails here. *)
let test_protocol_digest () =
  let options =
    {
      Cluster.default_options with
      Cluster.use_replica_cache = true;
      use_ckpt_delta = true;
      use_directory = true;
    }
  in
  let cl =
    with_cluster ~seed:29L ~options ~n:5 (fun cl ->
        Cluster.register_type cl spawner_type;
        let sp =
          ok_or_fail "create spawner"
            (Cluster.create_object cl ~node:0 ~type_name:"spawner" Value.Unit)
        in
        let cap =
          match
            Cluster.invoke cl ~from:0 sp ~op:"spawn"
              [
                Value.Int 3;
                Value.List (List.map (fun i -> Value.Int i) [ 1; 2; 3; 4 ]);
              ]
          with
          | Ok [ Value.Cap c ] -> c
          | Ok _ -> Alcotest.fail "spawn: unexpected shape"
          | Error e -> Alcotest.failf "spawn: %s" (Error.to_string e)
        in
        mirror cl cap [ 1; 2 ];
        ignore (ok_or_fail "ckpt full" (Cluster.checkpoint_of cl cap));
        touch cl ~from:1 cap 2 30;
        ignore (ok_or_fail "ckpt delta" (Cluster.checkpoint_of cl cap));
        touch cl ~from:2 cap 0 10;
        ignore (ok_or_fail "ckpt async" (Cluster.checkpoint_async_of cl cap));
        Engine.delay (Time.s 2);
        ignore (ok_or_fail "move" (Cluster.move cl cap ~to_node:4));
        touch cl ~from:1 cap 1 20;
        ignore (ok_or_fail "freeze" (Cluster.freeze cl cap));
        ignore (ok_or_fail "replicate" (Cluster.replicate cl cap ~to_node:2));
        for round = 1 to 4 do
          List.iter
            (fun from ->
              check_bool
                (Printf.sprintf "read %d from %d" round from)
                true
                (get_chunks cl ~from cap = [ 10; 20; 30; 4 ]))
            [ 0; 1; 3 ];
          Engine.delay (Time.ms 50)
        done;
        let late = new_chunky cl ~node:2 [ 7 ] in
        Engine.delay (Time.s 11);
        List.iter
          (fun from -> ignore (get_chunks cl ~from late))
          [ 0; 1; 3; 4 ];
        cl)
  in
  check_bool "cache hits" true (total_counter cl "eden.replica_cache.hits" > 0);
  check_bool "directory hits" true (total_counter cl "eden.dir.hits" > 0);
  check_bool "delta bytes" true (total_counter cl "eden.ckpt.delta_bytes" > 0);
  let digest =
    Digest.to_hex
      (Digest.string
         (Eden_obs.Timeline.to_text (Cluster.timeline cl)
         ^ Snapshot.to_string (Cluster.metrics_snapshot cl)))
  in
  Alcotest.(check string) "protocol digest"
    "5afcc4cbac9654df2180b4525e15fb90" digest

(* A type that reads other objects from inside its handlers: [relay]
   through one nested [ctx.invoke], [gather] through one
   [ctx.invoke_async] per target.  The journal names the handler's
   invocation as the caller of each read. *)
let relay_type =
  Typemgr.make_exn ~name:"relay"
    [
      Typemgr.operation "relay" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* cap = cap_arg v in
          ctx.invoke cap ~op:"get" []);
      Typemgr.operation "gather" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* targets =
            Value.to_list v |> Result.map_error (fun m -> Error.Bad_arguments m)
          in
          let* caps =
            List.fold_right
              (fun t acc ->
                let* c = cap_arg t in
                let* cs = acc in
                Ok (c :: cs))
              targets (Ok [])
          in
          let pending =
            List.map (fun cap -> ctx.invoke_async cap ~op:"get" []) caps
          in
          let answered =
            List.filter
              (fun pr ->
                match Promise.await pr with Some (Ok _) -> true | _ -> false)
              pending
          in
          reply [ Value.Int (List.length answered) ]);
    ]

(* One run through every branch of the speculative invocation path:
   cloned reads of a frozen, replicated object (fan-outs, loser
   cancels, losers' late replies counted as orphans), hedged requests
   to a node slowed mid-run, a stale hint that the old home nacks after
   a crash, and nested [ctx.invoke] / [invoke_async] reads.  The digest
   of the merged timeline (the nested reads' caller links included)
   and the final metrics snapshot is pinned, so any change to what the
   requester sends, waits for or records fails here. *)
let test_speculation_digest () =
  let options =
    {
      Cluster.default_options with
      Cluster.use_replica_cache = true;
      speculate =
        { Api.no_speculation with Api.sp_clone = true; sp_hedge = true };
    }
  in
  let cl =
    with_cluster ~seed:31L ~options ~n:5 (fun cl ->
        Cluster.register_type cl relay_type;
        let frozen = new_chunky cl ~node:3 [ 7; 8 ] in
        ignore (ok_or_fail "freeze" (Cluster.freeze cl frozen));
        List.iter
          (fun n ->
            ignore
              (ok_or_fail "replicate" (Cluster.replicate cl frozen ~to_node:n)))
          [ 1; 2 ];
        let hot = new_chunky cl ~node:2 [ 1; 2; 3 ] in
        let stale = new_chunky cl ~node:1 [ 5 ] in
        let relay =
          ok_or_fail "create relay"
            (Cluster.create_object cl ~node:4 ~type_name:"relay" Value.Unit)
        in
        (* Round trips to feed the hedge estimator, with frozen reads
           from every node between them. *)
        for i = 1 to 30 do
          touch cl ~from:0 hot 0 i;
          ignore (get_chunks cl ~from:(i mod 5) frozen)
        done;
        ignore (get_chunks cl ~from:4 stale);
        (* Node 2 turns slow: requests to it outrun the latency
           quantile and are hedged. *)
        let plan =
          Plan.make
            [
              {
                Plan.at = Time.ms 1;
                action = Plan.Slow_node { node = 2; by = Time.ms 6 };
              };
              { Plan.at = Time.ms 400; action = Plan.Heal_slow 2 };
            ]
        in
        let _ctl = Controller.arm cl plan in
        for i = 1 to 20 do
          touch cl ~from:0 hot 1 i;
          ignore (get_chunks cl ~from:3 hot)
        done;
        Engine.delay (Time.ms 400);
        (* [stale] leaves node 1, then node 1 crashes and forgets the
           forwarding entry: node 4's hint now names a node that nacks. *)
        ignore (ok_or_fail "move" (Cluster.move cl stale ~to_node:3));
        Cluster.crash_node cl 1;
        Cluster.restart_node cl 1;
        check_bool "stale read answered" true
          (get_chunks cl ~from:4 stale = [ 5 ]);
        (* Nested reads from inside a handler on node 4. *)
        for _ = 1 to 3 do
          (match
             Cluster.invoke cl ~from:0 relay ~op:"relay" [ Value.Cap frozen ]
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "relay: %s" (Error.to_string e));
          match
            Cluster.invoke cl ~from:1 relay ~op:"gather"
              [
                Value.List [ Value.Cap frozen; Value.Cap hot; Value.Cap stale ];
              ]
          with
          | Ok [ Value.Int 3 ] -> ()
          | Ok _ -> Alcotest.fail "gather: not every read answered"
          | Error e -> Alcotest.failf "gather: %s" (Error.to_string e)
        done;
        Engine.delay (Time.s 1);
        cl)
  in
  List.iter
    (fun name ->
      check_bool (name ^ " > 0") true (total_counter cl name > 0))
    [
      "eden.clone.fanouts";
      "eden.clone.cancels";
      "eden.hedge.sent";
      "eden.nacks";
      "eden.orphaned_invocations";
    ];
  check_bool "nested reads name their caller" true
    (List.exists
       (fun (e : Eden_obs.Journal.event) ->
         match e.ev_kind with
         | Eden_obs.Journal.Inv_begin { op = "get"; caller; _ } -> caller >= 0
         | _ -> false)
       (Eden_obs.Timeline.events (Cluster.timeline cl)));
  let digest =
    Digest.to_hex
      (Digest.string
         (Eden_obs.Timeline.to_text (Cluster.timeline cl)
         ^ Snapshot.to_string (Cluster.metrics_snapshot cl)))
  in
  Alcotest.(check string) "speculation digest"
    "efd914712428273832d84554ba64c12f" digest

let () =
  Alcotest.run "eden_ckpt"
    [
      ( "deadline",
        [ Alcotest.test_case "shared ack deadline" `Quick test_shared_deadline ]
      );
      ( "versioning",
        [
          Alcotest.test_case "stale reincarnation" `Quick
            test_stale_reincarnation;
        ] );
      ( "delta",
        [
          Alcotest.test_case "delta then fallback" `Quick
            test_delta_then_fallback;
          Alcotest.test_case "off by default" `Quick test_delta_off_by_default;
        ] );
      ( "async",
        [
          Alcotest.test_case "returns immediately" `Quick
            test_async_returns_immediately;
          Alcotest.test_case "serialises with sync" `Quick
            test_async_then_sync_serialise;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "pinned digest" `Quick test_protocol_digest;
          Alcotest.test_case "speculation digest" `Quick
            test_speculation_digest;
        ] );
    ]
