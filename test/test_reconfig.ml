(* Online reconfiguration: epoch-stamped membership (join, drain,
   leave) plus the regression sweep that rode along with it — dead
   registry shards pinned in the ring, dedup tombstone leaks under
   drop-heavy cancels, the clone×directory broadcast seam, and the
   balancer refilling nodes a drain is emptying. *)

open Eden_util
open Eden_sim
open Eden_kernel
module Plan = Eden_fault.Plan
module Controller = Eden_fault.Controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let counter_type =
  let open Api in
  Typemgr.make_exn ~name:"reconfig_counter"
    [
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
    ]

(* Run [f] as a driver process to completion. *)
let phase cl f =
  let _ = Cluster.in_process cl f in
  Cluster.run cl

let must = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

let must_s = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let node_counter cl ~node name =
  match
    Eden_obs.Snapshot.find
      (Cluster.metrics_snapshot cl)
      ~labels:[ ("node", string_of_int node) ]
      name
  with
  | Some (Eden_obs.Metrics.Counter n) -> n
  | _ -> 0

let sum_counter cl name =
  List.fold_left
    (fun acc i -> acc + node_counter cl ~node:i name)
    0
    (List.init (Cluster.node_count cl) Fun.id)

let violations cl =
  Eden_obs.Check.run
    ~complete:(Cluster.journal_dropped cl = 0)
    (Cluster.timeline cl)
  |> List.map (Format.asprintf "%a" Eden_obs.Check.pp_violation)

(* ------------------------------------------------------------------ *)
(* Bugfix: dead registry shards are routed around, not pinned *)

let dir_options =
  {
    Cluster.default_options with
    Cluster.use_directory = true;
    use_hint_cache = false;
    use_forwarding = false;
  }

(* Before the detour, a crashed shard stayed pinned in the ring: every
   lookup of a name it owned burned the directory window against the
   dead node and fell back to broadcast — one fallback per touch,
   forever.  With [shard_skipping], publish and lookup agree on the
   next live ring point, so the stand-in serves from the first
   republish on: at most one fallback total after the crash. *)
let test_dead_shard_detour () =
  let cl = Cluster.default ~seed:11L ~options:dir_options ~n_nodes:5 () in
  Cluster.register_type cl counter_type;
  let found = ref None in
  phase cl (fun () ->
      (* An object homed on node 1 whose registry shard is neither the
         requester (0) nor the home (1), so crashing the shard leaves
         both endpoints alive. *)
      let rec mk () =
        let c =
          must
            (Cluster.create_object cl ~node:1 ~type_name:"reconfig_counter"
               (Value.Int 0))
        in
        let s = Cluster.directory_shard cl (Capability.name c) in
        if s = 0 || s = 1 then mk () else found := Some (c, s)
      in
      mk ());
  let cap, shard = Option.get !found in
  let touch () =
    match
      Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
        ~retry:Api.default_retry cap ~op:"get" []
    with
    | Ok [ Value.Int _ ] -> ()
    | Ok _ | Error _ -> Alcotest.fail "touch failed"
  in
  phase cl (fun () -> touch ());
  Cluster.crash_node cl shard;
  let before = node_counter cl ~node:0 "eden.dir.fallbacks" in
  phase cl (fun () ->
      touch ();
      touch ());
  let after = node_counter cl ~node:0 "eden.dir.fallbacks" in
  check_bool
    (Printf.sprintf
       "a dead shard costs at most one fallback, not one per touch (got %d)"
       (after - before))
    true
    (after - before <= 1)

(* ------------------------------------------------------------------ *)
(* Bugfix: cancelled-only dedup entries lease out instead of leaking *)

let test_dedup_tombstone_lease () =
  let rid seq = { Message.origin = 9; seq } in
  let live = { Message.origin = 3; seq = 1 } in
  (* The old behavior, for contrast: without leases, a drop-heavy run
     (cancels whose requests never arrive) fills the table with
     tombstones until cap eviction throws out live entries. *)
  let t0 = Dedup.create ~cap:64 () in
  Dedup.note_queued t0 live;
  for i = 0 to 499 do
    ignore (Dedup.cancel t0 (rid i))
  done;
  check_bool "without leases, tombstones evict live entries" true
    (Dedup.find t0 live = None);
  (* With a lease and a moving clock, the same storm stays bounded and
     the live entry survives. *)
  let now = ref Time.zero in
  let t =
    Dedup.create ~ttl:(Time.ms 10) ~now:(fun () -> !now) ~cap:64 ()
  in
  Dedup.note_queued t live;
  for i = 0 to 499 do
    now := Time.ms i;
    ignore (Dedup.cancel t (rid i))
  done;
  check_bool "leased tombstones are reclaimed before cap pressure" true
    (Dedup.size t <= 64);
  check_bool "live entry survives 500 orphaned cancels" true
    (Dedup.find t live = Some Dedup.Queued);
  (* Entries that progressed past Cancelled are never reclaimed. *)
  let started = { Message.origin = 4; seq = 2 } in
  Dedup.note_queued t started;
  check_bool "started before lease check" true (Dedup.start t started = `Run);
  now := Time.s 5;
  ignore (Dedup.cancel t (rid 1000));
  check_bool "expiry only touches Cancelled-only entries" true
    (Dedup.find t started = Some Dedup.Started)

(* ------------------------------------------------------------------ *)
(* Bugfix: the balancer must not refill spares or draining nodes *)

let test_policy_ignores_spares () =
  let cl = Cluster.default ~seed:5L ~spares:1 ~n_nodes:2 () in
  Cluster.register_type cl counter_type;
  let caps = ref [] in
  phase cl (fun () ->
      for _ = 1 to 4 do
        caps :=
          must
            (Cluster.create_object cl ~node:0 ~type_name:"reconfig_counter"
               (Value.Int 0))
          :: !caps
      done;
      caps :=
        must
          (Cluster.create_object cl ~node:1 ~type_name:"reconfig_counter"
             (Value.Int 0))
        :: !caps);
  let managed = !caps in
  phase cl (fun () -> ignore (Policy.balance_once cl ~managed));
  (* The spare (node 2) is up and empty — the most tempting cold
     target — but outside the membership: nothing may land there.
     Pre-fix, balance_once treated any up node as eligible and homed
     managed objects on it; a draining node would be refilled the same
     way, oscillating against the drain emptying it. *)
  List.iter
    (fun cap ->
      match Cluster.where_is cl cap with
      | Some n ->
        check_bool
          (Printf.sprintf "object balanced onto member (node %d)" n)
          true (n < 2)
      | None -> Alcotest.fail "managed object lost")
    managed;
  let counts = Policy.managed_load cl ~managed in
  check_bool "members balanced to spread <= 1" true
    (match counts with
    | [ (0, a); (1, b) ] -> abs (a - b) <= 1
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Tentpole: join + drain + leave under live traffic *)

let test_join_drain_leave () =
  let cl =
    Cluster.default ~seed:7L
      ~options:{ Cluster.default_options with Cluster.use_directory = true }
      ~spares:1 ~n_nodes:3 ()
  in
  Cluster.register_type cl counter_type;
  let caps = ref [] in
  phase cl (fun () ->
      for i = 0 to 2 do
        for _ = 1 to 2 do
          caps :=
            must
              (Cluster.create_object cl ~node:i ~type_name:"reconfig_counter"
                 (Value.Int 0))
            :: !caps
        done
      done);
  let caps = Array.of_list (List.rev !caps) in
  check_int "boot epoch" 0 (Cluster.epoch cl);
  check_bool "spare outside boot membership" false (Cluster.is_member cl 3);
  let ok = ref 0 and failed = ref 0 in
  let eng = Cluster.engine cl in
  (* A paced request stream keeps traffic in flight across both
     membership changes. *)
  let _ =
    Cluster.in_process cl ~name:"stream" (fun () ->
        for r = 0 to 79 do
          Engine.delay (Time.ms 2);
          match
            Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
              ~retry:Api.default_retry
              caps.(r mod Array.length caps)
              ~op:"incr" []
          with
          | Ok _ -> incr ok
          | Error _ -> incr failed
        done)
  in
  let _ =
    Cluster.in_process cl ~name:"reconfig" (fun () ->
        Engine.delay (Time.ms 30);
        must_s (Cluster.join_node cl 3);
        Engine.delay (Time.ms 30);
        must_s (Cluster.decommission_node cl 1);
        check_bool "drain cleared before power-off" false
          (Cluster.is_draining cl 1))
  in
  Cluster.run cl;
  ignore eng;
  check_int "two membership steps" 2 (Cluster.epoch cl);
  check_bool "decommissioned node left the membership" false
    (Cluster.is_member cl 1);
  check_bool "joined spare is a member" true (Cluster.is_member cl 3);
  check_bool "decommissioned node powered off" false (Cluster.node_up cl 1);
  check_int "no failed requests through join+drain+leave" 0 !failed;
  check_int "every request served" 80 !ok;
  (* Census: every object lives exactly once, on a member. *)
  Array.iter
    (fun cap ->
      match Cluster.where_is cl cap with
      | Some n ->
        check_bool
          (Printf.sprintf "object homed on a member (node %d)" n)
          true
          (Cluster.is_member cl n)
      | None -> Alcotest.fail "object lost by the drain")
    caps;
  check_bool "drain evacuated the leaver's objects" true
    (sum_counter cl "eden.drain.moves" >= 2);
  check_bool "epoch bumps journalled cluster-wide" true
    (sum_counter cl "eden.epoch.bumps" >= 4);
  let v = violations cl in
  check_bool
    (Printf.sprintf "all seven invariants hold (%s)" (String.concat "; " v))
    true (v = [])

(* Each epoch's ring is built on its first lookup, from the member list
   captured when the epoch was bumped.  Here nothing looks a name up
   until both bumps are done, so the current epoch's ring is first
   built after a later bump than the boot one: it must still be the
   ring over the current members, not the boot ring or the view
   between the two steps (every one of the three member sets differs). *)
let test_lazy_epoch_ring () =
  let cl =
    Cluster.default ~seed:7L
      ~options:{ Cluster.default_options with Cluster.use_directory = true }
      ~spares:1 ~n_nodes:3 ()
  in
  phase cl (fun () ->
      must_s (Cluster.join_node cl 3);
      must_s (Cluster.decommission_node cl 0));
  check_int "two membership steps" 2 (Cluster.epoch cl);
  Alcotest.(check (list int)) "members" [ 1; 2; 3 ] (Cluster.members cl);
  let ring = Directory.make ~nodes:(Cluster.members cl) in
  let names =
    List.init 256 (fun i -> Name.make ~birth_node:(i mod 4) ~serial:(i + 1))
  in
  List.iter
    (fun name ->
      check_int
        (Printf.sprintf "shard of %s" (Name.to_string name))
        (Directory.shard ring name)
        (Cluster.directory_shard cl name))
    names;
  (* The names spread over every member, so a ring over any other
     member set would disagree somewhere. *)
  check_int "names reach every member" 3
    (List.length
       (List.sort_uniq Int.compare (List.map (Cluster.directory_shard cl) names)))

(* ------------------------------------------------------------------ *)
(* Bugfix: cloned reads consult the directory instead of broadcasting *)

let clone_dir_options =
  {
    Cluster.default_options with
    Cluster.use_directory = true;
    speculate = { Api.no_speculation with Api.sp_clone = true };
  }

let test_clone_consults_directory () =
  let cl = Cluster.default ~seed:13L ~options:clone_dir_options ~n_nodes:4 () in
  Cluster.register_type cl counter_type;
  (* Everything runs in one phase so the virtual clock stays well
     inside the registry lease: any broadcast counted below is the
     clone machinery's own, not a lease-expiry fallback. *)
  let bcasts = ref (-1) and fanouts = ref (-1) in
  phase cl (fun () ->
      let cap =
        must
          (Cluster.create_object cl ~node:3 ~type_name:"reconfig_counter"
             (Value.Int 7))
      in
      must (Cluster.freeze cl cap);
      let read () =
        Engine.delay (Time.ms 1);
        match
          Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
            ~retry:Api.default_retry cap ~op:"get" []
        with
        | Ok [ Value.Int 7 ] -> ()
        | Ok _ | Error _ -> Alcotest.fail "frozen read failed"
      in
      let before = sum_counter cl "eden.locate_broadcasts" in
      (* Frozen but not yet replicated: the registry hit carries an
         empty replica set, so the frozen-hinted reply finds no clone
         entry to stand in for the asked-once marker.  Pre-fix this is
         exactly the window where the requester fired a clone-discovery
         broadcast despite the directory being on — counted over these
         reads, the delta must be zero. *)
      for _ = 1 to 5 do
        read ()
      done;
      bcasts := sum_counter cl "eden.locate_broadcasts" - before;
      List.iter (fun n -> must (Cluster.replicate cl cap ~to_node:n)) [ 1; 2 ];
      (* Replicated now: the registry entry names the replica set and
         every directory hit feeds it to the clone machinery — fan-outs
         fire without a discovery broadcast.  (Broadcasts are not
         re-counted over these reads: a shard congested by clone-cancel
         traffic can miss the directory window and legitimately fall
         back.) *)
      for _ = 1 to 20 do
        read ()
      done;
      fanouts := sum_counter cl "eden.clone.fanouts");
  check_int "cloned reads add no locate broadcasts" 0 !bcasts;
  check_bool "clone fan-outs still fire, fed by the directory" true
    (!fanouts > 0)

(* Same-seed determinism with both flags on AND reconfiguration in the
   plan: the whole run — chaos, joins, drains — must be
   byte-reproducible. *)
let chaos_reconfig_run seed =
  let cl =
    Cluster.default
      ~seed:(Int64.of_int seed)
      ~options:clone_dir_options ~spares:1 ~n_nodes:4 ()
  in
  Cluster.register_type cl counter_type;
  let caps = ref [] in
  phase cl (fun () ->
      for i = 0 to 3 do
        caps :=
          must
            (Cluster.create_object cl ~node:i ~type_name:"reconfig_counter"
               (Value.Int 0))
          :: !caps
      done);
  let caps = Array.of_list (List.rev !caps) in
  let horizon = Time.s 1 in
  let plan =
    Plan.make
      (Plan.events
         (Plan.random ~seed:(Int64.of_int seed) ~nodes:4 ~segments:1 ~horizon)
      @ [
          { Plan.at = Time.ms 200; action = Plan.Join_node 4 };
          { Plan.at = Time.ms 600; action = Plan.Decommission_node 2 };
        ])
  in
  let ctl = Controller.arm ~seed:(Int64.of_int seed) cl plan in
  let ok = ref 0 and failed = ref 0 in
  phase cl (fun () ->
      for r = 0 to 99 do
        Engine.delay (Time.ms 10);
        match
          Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
            ~retry:Api.default_retry
            caps.(r mod Array.length caps)
            ~op:"incr" []
        with
        | Ok _ -> incr ok
        | Error _ -> incr failed
      done);
  ( !ok,
    !failed,
    Controller.injected ctl,
    Eden_obs.Snapshot.to_string (Cluster.metrics_snapshot cl),
    Eden_obs.Timeline.to_text (Cluster.timeline cl) )

let test_chaos_reconfig_deterministic () =
  List.iter
    (fun seed ->
      let ok_a, failed_a, inj_a, snap_a, trace_a = chaos_reconfig_run seed in
      let ok_b, failed_b, inj_b, snap_b, trace_b = chaos_reconfig_run seed in
      check_int "identical completions" ok_a ok_b;
      check_int "identical failures" failed_a failed_b;
      check_int "identical fault counts" inj_a inj_b;
      check_bool "every request accounted for" true (ok_a + failed_a = 100);
      Alcotest.(check string)
        (Printf.sprintf
           "seed %d: byte-identical snapshots with clone+directory+reconfig"
           seed)
        snap_a snap_b;
      Alcotest.(check string)
        (Printf.sprintf "seed %d: byte-identical timelines" seed)
        trace_a trace_b)
    [ 3; 17 ]

(* ------------------------------------------------------------------ *)
(* Property: epoch bumps over random join/leave sequences *)

(* Each membership step must remap at most ~1/n of the name space
   (2/n with constant slack, matching the Directory-level property),
   and a run interleaving random churn with live traffic must keep
   every invariant — rule 6's resolve-or-fall-back and rule 7's
   epoch monotonicity included. *)
let test_epoch_random_churn () =
  List.iter
    (fun seed ->
      let cl =
        Cluster.default
          ~seed:(Int64.of_int seed)
          ~options:{ Cluster.default_options with Cluster.use_directory = true }
          ~spares:2 ~n_nodes:4 ()
      in
      Cluster.register_type cl counter_type;
      let rng = Splitmix.create (Int64.of_int ((seed * 31) + 5)) in
      let caps = ref [] in
      phase cl (fun () ->
          for i = 0 to 3 do
            caps :=
              must
                (Cluster.create_object cl ~node:i
                   ~type_name:"reconfig_counter" (Value.Int 0))
              :: !caps
          done);
      let caps = !caps in
      let sample =
        List.init 256 (fun i ->
            Name.make ~birth_node:(i mod 6) ~serial:(1000 + i))
      in
      let shards () = List.map (Cluster.directory_shard cl) sample in
      let touch_all () =
        List.iter
          (fun cap ->
            match
              Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
                ~retry:Api.default_retry cap ~op:"incr" []
            with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "touch: %s" (Error.to_string e))
          caps
      in
      let step_bound = ref [] in
      phase cl (fun () ->
          touch_all ();
          for _step = 1 to 5 do
            let before = shards () in
            let n_before = List.length (Cluster.members cl) in
            (* A random valid membership step: join a powered
               non-member when one exists and the coin says grow,
               otherwise drain a random member (never node 0, the
               driver; never the last pair). *)
            let non_members =
              List.filter
                (fun i ->
                  (not (Cluster.is_member cl i)) && Cluster.node_up cl i)
                (List.init (Cluster.node_count cl) Fun.id)
            in
            let members_but_0 =
              List.filter (fun i -> i <> 0) (Cluster.members cl)
            in
            if
              non_members <> []
              && (List.length members_but_0 < 2 || Splitmix.coin rng 0.5)
            then begin
              let pick =
                List.nth non_members
                  (Splitmix.int rng (List.length non_members))
              in
              must_s (Cluster.join_node cl pick)
            end
            else begin
              let pick =
                List.nth members_but_0
                  (Splitmix.int rng (List.length members_but_0))
              in
              must_s (Cluster.decommission_node cl pick);
              (* Power the leaver back on as a rejoinable spare —
                 exercising the restart-time epoch resync. *)
              Cluster.restart_node cl pick
            end;
            let after = shards () in
            let moved =
              List.fold_left2
                (fun acc a b -> if a = b then acc else acc + 1)
                0 before after
            in
            let n = min n_before (List.length (Cluster.members cl)) in
            step_bound := (moved, (2 * 256 / n) + 8) :: !step_bound;
            Engine.delay (Time.ms 5);
            touch_all ()
          done);
      List.iter
        (fun (moved, bound) ->
          check_bool
            (Printf.sprintf "seed %d: step remapped %d <= %d names" seed
               moved bound)
            true (moved <= bound))
        !step_bound;
      check_int "five epochs" 5 (Cluster.epoch cl);
      let v = violations cl in
      check_bool
        (Printf.sprintf "seed %d: invariants hold under churn (%s)" seed
           (String.concat "; " v))
        true (v = []))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Plan text format covers the new actions *)

let test_plan_reconfig_roundtrip () =
  let p =
    Plan.make
      [
        { Plan.at = Time.ms 250; action = Plan.Join_node 5 };
        { Plan.at = Time.ms 800; action = Plan.Decommission_node 2 };
      ]
  in
  (match Plan.of_string (Plan.to_string p) with
  | Ok q -> check_bool "round-trip" true (Plan.events p = Plan.events q)
  | Error e -> Alcotest.failf "re-parse failed: %s" e);
  (match Plan.validate p ~nodes:6 ~segments:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  check_bool "out-of-range join rejected" true
    (Plan.validate p ~nodes:4 ~segments:1 <> Ok ())

let () =
  Alcotest.run "eden_reconfig"
    [
      ( "bugfixes",
        [
          Alcotest.test_case "dead shard is routed around" `Quick
            test_dead_shard_detour;
          Alcotest.test_case "dedup tombstones lease out" `Quick
            test_dedup_tombstone_lease;
          Alcotest.test_case "balancer ignores spares/draining" `Quick
            test_policy_ignores_spares;
          Alcotest.test_case "cloned reads consult the directory" `Quick
            test_clone_consults_directory;
        ] );
      ( "membership",
        [
          Alcotest.test_case "join + drain + leave under load" `Quick
            test_join_drain_leave;
          Alcotest.test_case "plan actions round-trip" `Quick
            test_plan_reconfig_roundtrip;
          Alcotest.test_case "epoch ring built late keeps its members" `Quick
            test_lazy_epoch_ring;
          Alcotest.test_case "deterministic chaos with reconfig" `Slow
            test_chaos_reconfig_deterministic;
          Alcotest.test_case "random churn: remap bound + invariants" `Slow
            test_epoch_random_churn;
        ] );
    ]
