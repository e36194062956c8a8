(* Chaos and property tests for Eden_fault: plan round-trips, random
   plan well-formedness, and whole-cluster runs under seeded fault
   schedules with recovery and determinism invariants. *)

open Eden_util
open Eden_sim
open Eden_kernel
module Plan = Eden_fault.Plan
module Controller = Eden_fault.Controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Plan: text format *)

let sample_plan =
  Plan.make
    [
      { Plan.at = Time.ms 100; action = Plan.Crash_node 1 };
      { Plan.at = Time.ms 600;
        action = Plan.Restart_node { node = 1; rebuild = true } };
      { Plan.at = Time.ms 150; action = Plan.Fail_disk 2 };
      { Plan.at = Time.ms 450; action = Plan.Heal_disk 2 };
      { Plan.at = Time.ms 200; action = Plan.Partition_segment 1 };
      { Plan.at = Time.ms 400; action = Plan.Heal_segment 1 };
      { Plan.at = Time.ms 50;
        action = Plan.Break_link { src = 0; dst = 2; kind = Plan.Drop; p = 0.5 } };
      { Plan.at = Time.us 60;
        action =
          Plan.Break_link { src = 0; dst = 2; kind = Plan.Duplicate; p = 0.25 } };
      { Plan.at = Time.ms 70;
        action =
          Plan.Break_link
            { src = 0; dst = 2; kind = Plan.Delay (Time.ms 2); p = 1.0 } };
      { Plan.at = Time.ms 300; action = Plan.Heal_link { src = 0; dst = 2 } };
    ]

let test_plan_roundtrip () =
  (* The hand-built plan and ten random ones all survive print/parse. *)
  let plans =
    sample_plan
    :: List.init 10 (fun i ->
           Plan.random ~seed:(Int64.of_int i) ~nodes:4 ~segments:2
             ~horizon:(Time.s 2))
  in
  List.iter
    (fun p ->
      match Plan.of_string (Plan.to_string p) with
      | Ok q ->
        check_bool "round-trip preserves events" true
          (Plan.events p = Plan.events q)
      | Error e -> Alcotest.failf "re-parse failed: %s\n%s" e (Plan.to_string p))
    plans

let test_plan_sorted () =
  let evs = Plan.events sample_plan in
  check_int "all events kept" 10 (List.length evs);
  let rec mono = function
    | a :: (b : Plan.event) :: rest ->
      check_bool "sorted by time" true Time.(a.Plan.at <= b.at);
      mono (b :: rest)
    | _ -> ()
  in
  mono evs

let test_plan_parse_errors () =
  let bad s =
    match Plan.of_string s with
    | Error msg -> msg
    | Ok _ -> Alcotest.failf "parsed garbage %S" s
  in
  check_bool "names the line" true
    (String.length (bad "at 1ms crash 0\nwibble") > 0
    && String.sub (bad "at 1ms crash 0\nwibble") 0 7 = "line 2:");
  ignore (bad "at 5parsecs crash 0");
  ignore (bad "at 5ms crash zero");
  ignore (bad "at 5ms drop 0->0x p=0.5");
  ignore (bad "at 5ms delay 0->1 p=0.5");
  (* Comments and blank lines are fine. *)
  match Plan.of_string "# a comment\n\nat 1ms crash 0  # trailing\n" with
  | Ok p -> check_int "one event" 1 (List.length (Plan.events p))
  | Error e -> Alcotest.failf "comment handling: %s" e

let test_plan_validate () =
  let one at action = Plan.make [ { Plan.at; action } ] in
  let ok p = Plan.validate p ~nodes:4 ~segments:2 = Ok () in
  check_bool "in range" true (ok (one (Time.ms 1) (Plan.Crash_node 3)));
  check_bool "node out of range" false (ok (one (Time.ms 1) (Plan.Crash_node 4)));
  check_bool "segment out of range" false
    (ok (one (Time.ms 1) (Plan.Partition_segment 2)));
  check_bool "negative probability" false
    (ok
       (one (Time.ms 1)
          (Plan.Break_link { src = 0; dst = 1; kind = Plan.Drop; p = -0.1 })));
  check_bool "probability above one" false
    (ok
       (one (Time.ms 1)
          (Plan.Break_link { src = 0; dst = 1; kind = Plan.Drop; p = 1.5 })));
  check_bool "self-loop link" false
    (ok
       (one (Time.ms 1)
          (Plan.Break_link { src = 2; dst = 2; kind = Plan.Drop; p = 0.5 })))

let test_plan_random_wellformed () =
  for seed = 0 to 9 do
    let horizon = Time.s 2 in
    let p =
      Plan.random ~seed:(Int64.of_int seed) ~nodes:4 ~segments:2 ~horizon
    in
    (match Plan.validate p ~nodes:4 ~segments:2 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: invalid random plan: %s" seed e);
    List.iter
      (fun (ev : Plan.event) ->
        check_bool "within horizon" true Time.(ev.at < horizon);
        match ev.action with
        | Plan.Crash_node n | Plan.Fail_disk n ->
          check_bool "node 0 spared" true (n <> 0)
        | _ -> ())
      (Plan.events p);
    (* Same seed, same plan. *)
    let q =
      Plan.random ~seed:(Int64.of_int seed) ~nodes:4 ~segments:2 ~horizon
    in
    check_bool "reproducible" true (Plan.events p = Plan.events q)
  done

(* ------------------------------------------------------------------ *)
(* Chaos runs *)

let chaos_type =
  let open Api in
  Typemgr.make_exn ~name:"chaos_counter"
    [
      Typemgr.operation "config" (fun ctx args ->
          let* v = arg1 args in
          let* sites =
            Value.to_list v
            |> Result.map_error (fun m -> Error.Bad_arguments m)
          in
          let sites =
            List.filter_map (fun s -> Result.to_option (Value.to_int s)) sites
          in
          let* () = ctx.set_reliability (Reliability.Mirrored sites) in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          (match ctx.checkpoint () with Ok () | Error _ -> ());
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
    ]

let nodes = 4
let requests = 220
let horizon = Time.s 2

type chaos_result = {
  ok : int;
  failed : int;
  probes_ok : bool;  (* post-heal, every counter answered *)
  injected : int;
  snapshot : string;
  trace : string;  (* assembled cross-node timeline, text form *)
  trace_nodes : int;
  violations : string list;  (* trace-checker verdicts, formatted *)
  reads : int option list;  (* frozen-read results, stream order *)
  fanouts : int;  (* clone fan-outs, summed over nodes *)
  cancels : int;  (* clone cancels sent, summed over nodes *)
  dedup_dropped : int;  (* duplicates the serving side refused *)
  dir_hits : int;  (* directory resolutions, summed over nodes *)
  dir_fallbacks : int;  (* attempts that fell back to broadcast *)
}

let sum_counter snap name =
  List.fold_left
    (fun acc i ->
      match
        Eden_obs.Snapshot.find snap
          ~labels:[ ("node", string_of_int i) ]
          name
      with
      | Some (Eden_obs.Metrics.Counter n) -> acc + n
      | _ -> acc)
    0
    (List.init nodes Fun.id)

(* A seeded chaos run: 4 nodes on 2 bridged segments, one Mirrored
   counter per node, a paced request stream from node 0 under the
   seed's random plan, then a post-heal probe of every counter.  With
   [frozen_reads] a frozen counter lives on node 3 with replicas on
   1 and 2, and every other stream iteration reads it from node 0 —
   the shape the speculation hot path (cloning + hedging) acts on. *)
let run_chaos ?plan ?options ?coalesce ?(frozen_reads = false) ~seed () =
  let configs =
    List.init nodes (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  let cl =
    Cluster.create ~seed:(Int64.of_int seed) ~segments:[ 2; 2 ] ?options
      ?coalesce ~configs ()
  in
  Cluster.register_type cl chaos_type;
  let eng = Cluster.engine cl in
  let plan =
    match plan with
    | Some p -> p
    | None ->
      Plan.random ~seed:(Int64.of_int seed) ~nodes ~segments:2 ~horizon
  in
  let caps = ref [||] in
  let frozen = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        caps :=
          Array.init nodes (fun i ->
              let cap =
                match
                  Cluster.create_object cl ~node:i ~type_name:"chaos_counter"
                    (Value.Int 0)
                with
                | Ok c -> c
                | Error e -> failwith ("create: " ^ Error.to_string e)
              in
              match
                Cluster.invoke cl ~from:i cap ~op:"config"
                  [
                    Value.List
                      [ Value.Int i; Value.Int ((i + 1) mod nodes) ];
                  ]
              with
              | Ok _ -> cap
              | Error e -> failwith ("config: " ^ Error.to_string e));
        if frozen_reads then begin
          let cap =
            match
              Cluster.create_object cl ~node:(nodes - 1)
                ~type_name:"chaos_counter" (Value.Int 7)
            with
            | Ok c -> c
            | Error e -> failwith ("create frozen: " ^ Error.to_string e)
          in
          (match Cluster.freeze cl cap with
          | Ok () -> ()
          | Error e -> failwith ("freeze: " ^ Error.to_string e));
          List.iter
            (fun n ->
              match Cluster.replicate cl cap ~to_node:n with
              | Ok () -> ()
              | Error e -> failwith ("replicate: " ^ Error.to_string e))
            [ 1; 2 ];
          frozen := Some cap
        end)
  in
  Cluster.run cl;
  let ctl = Controller.arm ~seed:(Int64.of_int seed) cl plan in
  let ok = ref 0 and failed = ref 0 in
  let probes_ok = ref true in
  let reads = ref [] in
  let _ =
    Cluster.in_process cl (fun () ->
        let last = ref (Engine.now eng) in
        for r = 0 to requests - 1 do
          Engine.delay (Time.ms 10);
          (* The virtual clock never runs backwards, faults or not. *)
          if Time.(Engine.now eng < !last) then
            failwith "virtual clock went backwards";
          last := Engine.now eng;
          (match
             Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
               ~retry:Api.default_retry
               (!caps).(r mod nodes)
               ~op:"incr" []
           with
          | Ok _ -> incr ok
          | Error _ -> incr failed);
          match !frozen with
          | Some cap when r mod 2 = 0 -> (
            match
              Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
                ~retry:Api.default_retry cap ~op:"get" []
            with
            | Ok [ Value.Int v ] -> reads := Some v :: !reads
            | Ok _ | Error _ -> reads := None :: !reads)
          | _ -> ()
        done;
        (* Post-heal: every fault has healed (the stream outlives the
           plan horizon), so every Mirrored counter must answer. *)
        Array.iter
          (fun cap ->
            match
              Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
                ~retry:Api.default_retry cap ~op:"get" []
            with
            | Ok [ Value.Int _ ] -> ()
            | Ok _ | Error _ -> probes_ok := false)
          !caps)
  in
  Cluster.run cl;
  let tl = Cluster.timeline cl in
  let violations =
    Eden_obs.Check.run ~complete:(Cluster.journal_dropped cl = 0) tl
    |> List.map (Format.asprintf "%a" Eden_obs.Check.pp_violation)
  in
  let snap = Cluster.metrics_snapshot cl in
  {
    ok = !ok;
    failed = !failed;
    probes_ok = !probes_ok;
    injected = Controller.injected ctl;
    snapshot = Eden_obs.Snapshot.to_string snap;
    trace = Eden_obs.Timeline.to_text tl;
    trace_nodes = List.length (Eden_obs.Timeline.nodes tl);
    violations;
    reads = List.rev !reads;
    fanouts = sum_counter snap "eden.clone.fanouts";
    cancels = sum_counter snap "eden.clone.cancels";
    dedup_dropped = sum_counter snap "eden.dedup.dropped";
    dir_hits = sum_counter snap "eden.dir.hits";
    dir_fallbacks = sum_counter snap "eden.dir.fallbacks";
  }

let test_chaos_no_faults_no_failures () =
  let r = run_chaos ~plan:(Plan.make []) ~seed:3 () in
  check_int "no faults injected" 0 r.injected;
  check_int "no lost replies without faults" 0 r.failed;
  check_int "all requests completed" requests r.ok;
  check_bool "probes answer" true r.probes_ok

let test_chaos_invariants () =
  for seed = 0 to 9 do
    let r = run_chaos ~seed () in
    check_int
      (Printf.sprintf "seed %d: every request accounted for" seed)
      requests (r.ok + r.failed);
    check_bool
      (Printf.sprintf "seed %d: mirrored counters recover post-heal" seed)
      true r.probes_ok;
    (* The random plan always schedules at least a crash/restart pair. *)
    check_bool (Printf.sprintf "seed %d: faults fired" seed) true
      (r.injected >= 2)
  done

let test_chaos_deterministic () =
  List.iter
    (fun seed ->
      let a = run_chaos ~seed () and b = run_chaos ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical metrics snapshots" seed)
        a.snapshot b.snapshot;
      check_int "identical completions" a.ok b.ok;
      check_int "identical fault counts" a.injected b.injected;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: byte-identical assembled timelines" seed)
        a.trace b.trace)
    [ 0; 7 ]

(* The trace checker audits every chaos run end to end: journals on
   all nodes assemble into one timeline whose cross-node invariants
   (recv-matches-send, causal time order, retry termination, cache
   epochs) hold under drops, delays, duplicates, crashes and
   partitions. *)
let test_chaos_trace_invariants () =
  for seed = 0 to 4 do
    let r = run_chaos ~seed () in
    check_bool
      (Printf.sprintf "seed %d: trace invariants hold (%s)" seed
         (String.concat "; " r.violations))
      true (r.violations = []);
    check_bool (Printf.sprintf "seed %d: trace spans >= 3 nodes" seed) true
      (r.trace_nodes >= 3)
  done

(* The invocation hot path options must not break chaos invariants:
   with coalescing batching kernel messages (a dropped or delayed wire
   transfer now loses or holds back every member) and the replica
   cache armed, every request is still accounted for and the cluster
   still recovers post-heal. *)
let hot_path_options =
  { Cluster.default_options with Cluster.use_replica_cache = true }

let test_chaos_hot_path_invariants () =
  for seed = 0 to 4 do
    let r =
      run_chaos ~options:hot_path_options
        ~coalesce:Eden_kernel.Transport.default_coalesce ~seed ()
    in
    check_int
      (Printf.sprintf "seed %d: every request accounted for" seed)
      requests (r.ok + r.failed);
    check_bool
      (Printf.sprintf "seed %d: counters recover post-heal" seed)
      true r.probes_ok;
    check_bool (Printf.sprintf "seed %d: faults fired" seed) true
      (r.injected >= 2)
  done

let test_chaos_hot_path_deterministic () =
  (* The acceptance bar for the cache + coalescer: equal seeds give
     byte-identical metrics snapshots with both features enabled. *)
  List.iter
    (fun seed ->
      let once () =
        run_chaos ~options:hot_path_options
          ~coalesce:Eden_kernel.Transport.default_coalesce ~seed ()
      in
      let a = once () and b = once () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical snapshots with cache+coalescer"
           seed)
        a.snapshot b.snapshot;
      check_int "identical completions" a.ok b.ok;
      check_int "identical fault counts" a.injected b.injected)
    [ 2; 11 ]

(* ------------------------------------------------------------------ *)
(* Speculation under chaos: cloning + hedged retries *)

let spec_options =
  {
    Cluster.default_options with
    Cluster.speculate =
      { Api.no_speculation with Api.sp_clone = true; sp_hedge = true };
  }

(* A fixed plan shaped for the speculation hot path: a duplicating
   link into the frozen object's home (feeds the serving-side dedup
   table), two overlapping slow-node windows (the straggler pattern
   cloning and hedging exist for), and a replica crash + rebuild
   (clone fan-outs must resolve even when a fan-out site is down). *)
let spec_plan =
  Plan.make
    [
      { Plan.at = Time.ms 80;
        action =
          Plan.Break_link
            { src = 0; dst = 3; kind = Plan.Duplicate; p = 0.4 } };
      { Plan.at = Time.ms 1600; action = Plan.Heal_link { src = 0; dst = 3 } };
      { Plan.at = Time.ms 300;
        action = Plan.Slow_node { node = 3; by = Time.ms 4 } };
      { Plan.at = Time.ms 900; action = Plan.Heal_slow 3 };
      { Plan.at = Time.ms 500;
        action = Plan.Slow_node { node = 1; by = Time.ms 2 } };
      { Plan.at = Time.ms 1100; action = Plan.Heal_slow 1 };
      { Plan.at = Time.ms 700; action = Plan.Crash_node 2 };
      { Plan.at = Time.ms 1300;
        action = Plan.Restart_node { node = 2; rebuild = true } };
    ]

(* Speculation must change who answers a read, never what it answers:
   the frozen-read result stream is identical with cloning on and
   off, every loser is retracted, and the dedup table absorbs the
   duplicating link's extra copies. *)
let test_spec_chaos_results_match () =
  let base = run_chaos ~plan:spec_plan ~frozen_reads:true ~seed:5 () in
  let spec =
    run_chaos ~plan:spec_plan ~options:spec_options ~frozen_reads:true
      ~seed:5 ()
  in
  check_int "baseline never fans out" 0 base.fanouts;
  check_bool "speculation fans out" true (spec.fanouts > 0);
  check_bool "losers are cancelled" true (spec.cancels > 0);
  check_bool "dedup table drops duplicates" true (spec.dedup_dropped > 0);
  Alcotest.(check (list (option int)))
    "read results identical with cloning on and off" base.reads spec.reads;
  check_bool "every read answered with the frozen value" true
    (base.reads <> [] && List.for_all (( = ) (Some 7)) base.reads);
  check_bool "no trace violations with speculation on" true
    (spec.violations = [])

let test_spec_chaos_deterministic () =
  (* Same seed, same random plan, speculation on: byte-identical
     metrics snapshots and assembled timelines — first-response-wins
     races are resolved by virtual time, not wall-clock chance. *)
  List.iter
    (fun seed ->
      let once () =
        run_chaos ~options:spec_options ~frozen_reads:true ~seed ()
      in
      let a = once () and b = once () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical snapshots with speculation" seed)
        a.snapshot b.snapshot;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: byte-identical timelines with speculation"
           seed)
        a.trace b.trace;
      Alcotest.(check (list (option int)))
        "identical read results" a.reads b.reads;
      check_int "identical completions" a.ok b.ok)
    [ 1; 9 ]

let test_spec_chaos_trace_invariants () =
  (* Random plans (drops, delays, duplicates, crashes, partitions,
     slow nodes) with cloning + hedging armed: the clone-resolves-once
     invariant and all the older cross-node invariants must hold. *)
  for seed = 0 to 2 do
    let r = run_chaos ~options:spec_options ~frozen_reads:true ~seed () in
    check_bool
      (Printf.sprintf "seed %d: trace invariants hold (%s)" seed
         (String.concat "; " r.violations))
      true (r.violations = []);
    check_int
      (Printf.sprintf "seed %d: every request accounted for" seed)
      requests (r.ok + r.failed);
    check_bool
      (Printf.sprintf "seed %d: counters recover post-heal" seed)
      true r.probes_ok
  done

(* Regression: cancels are keyed by the full (origin, sequence) id.
   Per-origin sequence counters all start at zero, so sequence numbers
   collide across nodes constantly; bookkeeping keyed by sequence
   alone lets one requester's clone cancels retract another
   requester's queued work at a shared serving node — or a cancelled
   clone's tombstone silently drop an unrelated request that reused
   the number.  Node 0 clone-reads a frozen object whose losers
   (node 3 among them) get cancelled every iteration, while node 1
   drives a counter that lives on node 3; with its sequence counter
   pushed ahead, node 0's cancels name sequence numbers node 1 has
   yet to use.  Verified failing against a sequence-only key. *)
let test_cancel_cross_origin_isolation () =
  let configs =
    List.init nodes (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  let cl =
    Cluster.create ~seed:42L ~segments:[ 2; 2 ] ~options:spec_options ~configs
      ()
  in
  Cluster.register_type cl chaos_type;
  let must what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)
  in
  let rounds = 40 in
  let _ =
    Cluster.in_process cl (fun () ->
        let frozen =
          must "create frozen"
            (Cluster.create_object cl ~node:3 ~type_name:"chaos_counter"
               (Value.Int 7))
        in
        must "freeze" (Cluster.freeze cl frozen);
        List.iter
          (fun n -> must "replicate" (Cluster.replicate cl frozen ~to_node:n))
          [ 1; 2 ];
        let counter =
          must "create counter"
            (Cluster.create_object cl ~node:3 ~type_name:"chaos_counter"
               (Value.Int 0))
        in
        (* Warm reads push node 0's sequence counter ahead of node
           1's, so every cancelled loser names a sequence number node
           1 is still approaching. *)
        for _ = 1 to 6 do
          ignore
            (must "warm"
               (Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300) frozen
                  ~op:"get" []))
        done;
        for r = 1 to rounds do
          Engine.delay (Time.ms 2);
          ignore
            (must "clone read"
               (Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300) frozen
                  ~op:"get" []));
          match
            Cluster.invoke cl ~from:1 ~timeout:(Time.ms 300) counter
              ~op:"incr" []
          with
          | Ok [ Value.Int v ] -> check_int "monotonic count" r v
          | Ok _ -> Alcotest.fail "incr: unexpected reply shape"
          | Error e ->
            Alcotest.failf
              "incr %d retracted by a foreign cancel: %s" r
              (Error.to_string e)
        done;
        match
          Cluster.invoke cl ~from:1 ~timeout:(Time.ms 300) counter ~op:"get" []
        with
        | Ok [ Value.Int v ] -> check_int "no increment lost" rounds v
        | Ok _ | Error _ -> Alcotest.fail "final get failed")
  in
  Cluster.run cl;
  let snap = Cluster.metrics_snapshot cl in
  check_bool "the reads really cloned and cancelled" true
    (sum_counter snap "eden.clone.fanouts" > 0
    && sum_counter snap "eden.clone.cancels" > 0)

(* ------------------------------------------------------------------ *)
(* The sharded locate directory under chaos *)

let dir_options =
  { Cluster.default_options with Cluster.use_directory = true }

(* Hint cache and forwarding off: every invocation pays the full
   resolution price, so the directory (not a warm hint) is what finds
   the object — the configuration the directed regressions need. *)
let dir_cold_options =
  {
    Cluster.default_options with
    Cluster.use_directory = true;
    use_hint_cache = false;
    use_forwarding = false;
  }

let must what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Error.to_string e)

let dir_cluster ?(options = dir_cold_options) ~seed () =
  let configs =
    List.init nodes (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  let cl =
    Cluster.create ~seed:(Int64.of_int seed) ~segments:[ 2; 2 ] ~options
      ~configs ()
  in
  Cluster.register_type cl chaos_type;
  cl

(* Object names are kernel-assigned, so tests that need a name whose
   registry shard lands on a particular node create until one does
   (shards spread evenly, so a handful of tries suffices; the spares
   are harmless). *)
let rec create_on_shard cl ~node ~shards ~tries init =
  if tries = 0 then Alcotest.fail "no name landed on the wanted shards"
  else
    let cap =
      must "create"
        (Cluster.create_object cl ~node ~type_name:"chaos_counter" init)
    in
    if List.mem (Cluster.directory_shard cl (Capability.name cap)) shards then
      cap
    else create_on_shard cl ~node ~shards ~tries:(tries - 1) init

let test_dir_chaos_deterministic () =
  (* Same seed, same random plan, directory on: byte-identical metrics
     snapshots and assembled timelines — ring placement, lease stamps
     and fallback races are all functions of virtual time and the
     seed, never of hash-table iteration or wall clock. *)
  List.iter
    (fun seed ->
      let once () = run_chaos ~options:dir_options ~seed () in
      let a = once () and b = once () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: identical snapshots with directory" seed)
        a.snapshot b.snapshot;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: byte-identical timelines with directory"
           seed)
        a.trace b.trace;
      check_int "identical completions" a.ok b.ok;
      check_int "identical fault counts" a.injected b.injected)
    [ 3; 8 ]

let test_dir_chaos_invariants () =
  (* Random plans (drops, delays, duplicates, crashes, partitions)
     with the directory armed: every request still accounted for, the
     cluster recovers post-heal, and all six cross-node invariants —
     dir-resolves-or-falls-back included — hold on the assembled
     timeline. *)
  let hits = ref 0 in
  for seed = 0 to 4 do
    let r = run_chaos ~options:dir_options ~seed () in
    check_bool
      (Printf.sprintf "seed %d: trace invariants hold (%s)" seed
         (String.concat "; " r.violations))
      true (r.violations = []);
    check_int
      (Printf.sprintf "seed %d: every request accounted for" seed)
      requests (r.ok + r.failed);
    check_bool
      (Printf.sprintf "seed %d: counters recover post-heal" seed)
      true r.probes_ok;
    hits := !hits + r.dir_hits
  done;
  (* With the hint cache on, a lucky seed can serve the whole stream
     from hints — but across the seeds, re-locates after crashes and
     partitions must have gone through the directory. *)
  check_bool "the directory resolved names across the seeds" true (!hits > 0)

let test_dir_shard_death_fallback () =
  (* A dead registry shard must cost one reply window, never the
     answer: the requester's Dir_get goes unanswered, the attempt
     falls back to the broadcast locate, and the invocation still
     completes. *)
  let cl = dir_cluster ~seed:21 () in
  let _ =
    Cluster.in_process cl (fun () ->
        (* Home the object on node 0; its shard must be elsewhere so
           crashing the shard leaves the object itself alive. *)
        let cap =
          create_on_shard cl ~node:0 ~shards:[ 2; 3 ] ~tries:50 (Value.Int 7)
        in
        let shard = Cluster.directory_shard cl (Capability.name cap) in
        Cluster.crash_node cl shard;
        Engine.delay (Time.ms 20);
        let from = 5 - shard in  (* the other seg-1 node: 2 <-> 3 *)
        match
          Cluster.invoke cl ~from ~timeout:(Time.ms 300) cap ~op:"get" []
        with
        | Ok [ Value.Int v ] -> check_int "value survives the dead shard" 7 v
        | Ok _ -> Alcotest.fail "unexpected reply shape"
        | Error e ->
          Alcotest.failf "invoke with dead shard: %s" (Error.to_string e))
  in
  Cluster.run cl;
  let snap = Cluster.metrics_snapshot cl in
  check_bool "fallback taken" true
    (sum_counter snap "eden.dir.fallbacks" > 0);
  check_bool "broadcast locate answered" true
    (sum_counter snap "eden.locate_broadcasts" > 0)

(* The stale-hint regression: a move whose Dir_put is lost to a
   partition leaves the shard naming the old home.  The next
   directory-routed request is nacked by that home; NACK-on-wrong-home
   must invalidate the shard entry and fall back to broadcast, or the
   stale answer wins every retry and the invocation fails.  A second
   requester asking the shard while the first is still broadcasting
   must miss rather than be sent to the stale home again: the
   broadcast's own republish comes too late to save it.  Verified
   failing with the shard invalidation dropped: the second requester
   is nacked too. *)
let test_dir_stale_hint_nack_fallback () =
  let cl = dir_cluster ~seed:29 () in
  let eng = Cluster.engine cl in
  let cap = ref None in
  let _ =
    Cluster.in_process cl (fun () ->
        (* The shard must sit across the bridge (segment 1), so the
           partition drops the move's publish but not the move. *)
        cap :=
          Some
            (create_on_shard cl ~node:0 ~shards:[ 2; 3 ] ~tries:50
               (Value.Int 7)))
  in
  Cluster.run cl;
  let cap = Option.get !cap in
  let now = Engine.now eng in
  let plan =
    Plan.make
      [
        { Plan.at = Time.add now (Time.ms 50);
          action = Plan.Partition_segment 1 };
        { Plan.at = Time.add now (Time.ms 150);
          action = Plan.Heal_segment 1 };
      ]
  in
  let _ctl = Controller.arm cl plan in
  let nacks () = sum_counter (Cluster.metrics_snapshot cl) "eden.dir.nacks" in
  let result = ref (Error Eden_kernel.Error.Timeout) in
  let second = ref (Error Eden_kernel.Error.Timeout) in
  let _ =
    Cluster.in_process cl (fun () ->
        Engine.delay (Time.ms 100);
        (* Partitioned: the move succeeds inside segment 0, its
           publish to the segment-1 shard is dropped at the bridge. *)
        must "move" (Cluster.move cl cap ~to_node:1);
        Engine.delay (Time.ms 100);
        (* Healed: the shard still names node 0. *)
        let first =
          Cluster.invoke_async cl ~from:3 ~timeout:(Time.ms 300) cap ~op:"get"
            []
        in
        (* The moment the stale home's nack is counted, a second
           requester asks the shard. *)
        while nacks () = 0 do
          Engine.delay (Time.us 100)
        done;
        second :=
          Cluster.invoke cl ~from:2 ~timeout:(Time.ms 300) cap ~op:"get" [];
        result := Option.get (Promise.await first))
  in
  Cluster.run cl;
  let snap = Cluster.metrics_snapshot cl in
  match (!result, !second) with
  | Ok [ Value.Int 7 ], Ok [ Value.Int 7 ] ->
    check_int "only the first requester met the stale home" 1
      (sum_counter snap "eden.dir.nacks");
    check_bool "the nack fell back to broadcast" true
      (sum_counter snap "eden.dir.fallbacks" > 0)
  | Ok _, Ok _ -> Alcotest.fail "unexpected reply shape"
  | Error e, _ | _, Error e ->
    Alcotest.failf "stale entry not recovered: %s"
      (Eden_kernel.Error.to_string e)

let test_dir_balance_publishes () =
  (* Policy.balance_once moves objects through Cluster.move, whose
     success path publishes the new home to the shard — so a fresh
     requester finds a balanced-away object in one directory exchange,
     no broadcast.  Pins the move-path publish: drop it and the hits
     stay but the broadcasts climb. *)
  let cl = dir_cluster ~seed:31 () in
  let caps = ref [] in
  let _ =
    Cluster.in_process cl (fun () ->
        caps :=
          List.init 6 (fun i ->
              must "create"
                (Cluster.create_object cl ~node:0 ~type_name:"chaos_counter"
                   (Value.Int i))))
  in
  Cluster.run cl;
  let snap0 = Cluster.metrics_snapshot cl in
  let bcasts0 = sum_counter snap0 "eden.locate_broadcasts" in
  let hits0 = sum_counter snap0 "eden.dir.hits" in
  let moved = ref 0 in
  let _ =
    Cluster.in_process cl (fun () ->
        moved := Policy.balance_once cl ~managed:!caps;
        Engine.delay (Time.ms 20);
        List.iteri
          (fun i cap ->
            match
              Cluster.invoke cl ~from:3 ~timeout:(Time.ms 300) cap ~op:"get"
                []
            with
            | Ok [ Value.Int v ] ->
              check_int (Printf.sprintf "object %d keeps its state" i) i v
            | Ok _ -> Alcotest.fail "unexpected reply shape"
            | Error e ->
              Alcotest.failf "get %d after balance: %s" i
                (Eden_kernel.Error.to_string e))
          !caps)
  in
  Cluster.run cl;
  let snap = Cluster.metrics_snapshot cl in
  check_bool "the balancer moved something" true (!moved > 0);
  check_int "no broadcast needed after the balance pass" bcasts0
    (sum_counter snap "eden.locate_broadcasts");
  check_bool "the directory answered the post-balance locates" true
    (sum_counter snap "eden.dir.hits" > hits0)

let test_controller_links_and_disarm () =
  let cl = Cluster.default ~seed:1L ~n_nodes:2 () in
  let plan =
    Plan.make
      [
        { Plan.at = Time.ms 1;
          action =
            Plan.Break_link { src = 0; dst = 1; kind = Plan.Drop; p = 1.0 } };
        { Plan.at = Time.ms 50; action = Plan.Heal_link { src = 0; dst = 1 } };
      ]
  in
  let ctl = Controller.arm cl plan in
  Cluster.run ~until:(Time.ms 10) cl;
  Alcotest.(check (list (pair int int)))
    "link recorded while broken" [ (0, 1) ] (Controller.broken_links ctl);
  Cluster.run ~until:(Time.ms 100) cl;
  Alcotest.(check (list (pair int int)))
    "heal clears the link" [] (Controller.broken_links ctl);
  Controller.disarm ctl;
  Alcotest.(check (list (pair int int)))
    "disarm leaves no links" [] (Controller.broken_links ctl)

let () =
  Alcotest.run "eden_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "sorted" `Quick test_plan_sorted;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "random well-formed" `Quick
            test_plan_random_wellformed;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "no faults, no failures" `Quick
            test_chaos_no_faults_no_failures;
          Alcotest.test_case "invariants over seeds 0-9" `Slow
            test_chaos_invariants;
          Alcotest.test_case "same seed, same snapshot" `Slow
            test_chaos_deterministic;
          Alcotest.test_case "trace invariants over seeds 0-4" `Slow
            test_chaos_trace_invariants;
          Alcotest.test_case "hot-path options keep invariants" `Slow
            test_chaos_hot_path_invariants;
          Alcotest.test_case "hot-path options stay deterministic" `Slow
            test_chaos_hot_path_deterministic;
          Alcotest.test_case "controller links + disarm" `Quick
            test_controller_links_and_disarm;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "cloning changes who answers, not what" `Slow
            test_spec_chaos_results_match;
          Alcotest.test_case "deterministic with speculation on" `Slow
            test_spec_chaos_deterministic;
          Alcotest.test_case "trace invariants with speculation on" `Slow
            test_spec_chaos_trace_invariants;
          Alcotest.test_case "cancels are origin-scoped" `Quick
            test_cancel_cross_origin_isolation;
        ] );
      ( "directory",
        [
          Alcotest.test_case "deterministic with directory on" `Slow
            test_dir_chaos_deterministic;
          Alcotest.test_case "six invariants under random plans" `Slow
            test_dir_chaos_invariants;
          Alcotest.test_case "dead shard falls back to broadcast" `Quick
            test_dir_shard_death_fallback;
          Alcotest.test_case "stale entry: NACK invalidates, or fails" `Quick
            test_dir_stale_hint_nack_fallback;
          Alcotest.test_case "balance pass publishes new homes" `Quick
            test_dir_balance_publishes;
        ] );
    ]
