(* M1-M15 (M9 retired) — Bechamel microbenchmarks of the substrate
   itself: real wall-clock cost per operation of the simulator's hot
   paths.  These are not simulated-time experiments; they justify
   trusting the experiment harness to run large configurations. *)

open Bechamel
open Toolkit
open Eden_util
open Eden_sim

(* M1: schedule + drain one engine event. *)
let m1_engine_event =
  Test.make ~name:"M1 engine event"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         for _ = 1 to 64 do
           Engine.schedule eng ~after:(Time.us 1) (fun () -> ())
         done;
         Engine.run eng))

(* M2: spawn, run and finish a delaying process. *)
let m2_process =
  Test.make ~name:"M2 process lifecycle"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         for _ = 1 to 16 do
           ignore (Engine.spawn eng (fun () -> Engine.delay (Time.us 5)))
         done;
         Engine.run eng))

(* M3: a semaphore hand-off cycle between two processes. *)
let m3_semaphore =
  Test.make ~name:"M3 semaphore handoff"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         let sem = Semaphore.create eng ~init:0 in
         let _ =
           Engine.spawn eng (fun () ->
               for _ = 1 to 16 do
                 ignore (Semaphore.acquire sem)
               done)
         in
         let _ =
           Engine.spawn eng (fun () ->
               for _ = 1 to 16 do
                 Engine.delay (Time.us 1);
                 Semaphore.release sem
               done)
         in
         Engine.run eng))

(* M4: priority-queue churn at event-loop scale. *)
let m4_pqueue =
  Test.make ~name:"M4 pqueue push/pop x256"
    (Staged.stage (fun () ->
         let h = Pqueue.create ~dummy:0 () in
         for i = 0 to 255 do
           ignore (Pqueue.push_seq h ((i * 7919) land 1023) i i)
         done;
         while not (Pqueue.is_empty h) do
           ignore (Pqueue.pop_exn h)
         done))

(* M5: wire-size computation over a nested value. *)
let m5_value_size =
  let open Eden_kernel in
  let v =
    Value.List
      (List.init 16 (fun i ->
           Value.Pair
             ( Value.Str (Printf.sprintf "field%d" i),
               Value.List [ Value.Int i; Value.Blob 64; Value.Bool true ] )))
  in
  Test.make ~name:"M5 value size"
    (Staged.stage (fun () -> ignore (Value.size_bytes v)))

(* M6: the deterministic PRNG. *)
let m6_splitmix =
  let g = Splitmix.create 42L in
  Test.make ~name:"M6 splitmix int"
    (Staged.stage (fun () -> ignore (Splitmix.int g 1_000_000)))

(* M7: the full stack — build a 3-node cluster, create an object, run
   20 invocations (10 remote), in real time. *)
let m7_full_stack =
  Test.make ~name:"M7 cluster + 20 invocations"
    (Staged.stage (fun () ->
         let open Eden_kernel in
         let cl = Cluster.default ~n_nodes:3 () in
         Cluster.register_type cl Common.bench_type;
         let _ =
           Cluster.in_process cl (fun () ->
               match
                 Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
                   Value.Unit
               with
               | Error _ -> ()
               | Ok cap ->
                 for i = 0 to 19 do
                   ignore
                     (Cluster.invoke cl ~from:(i mod 2) cap ~op:"ping" [])
                 done)
         in
         Cluster.run cl))

(* M8: one 256 B unicast frame through the MAC on an idle two-station
   cable, engine drained.  The cable is rebuilt every 1024 frames,
   because its latency statistics keep every sample. *)
let m8_lan_unicast =
  let open Eden_net in
  let fresh () =
    let eng = Engine.create () in
    let lan = Lan.create eng in
    let src = Lan.attach lan ~name:"a" in
    Lan.on_receive (Lan.attach lan ~name:"b") ignore;
    Engine.run eng;
    (eng, src)
  in
  let cable = ref (fresh ()) and frames = ref 0 in
  Test.make ~name:"M8 Lan unicast frame"
    (Staged.stage (fun () ->
         if !frames = 1024 then begin
           cable := fresh ();
           frames := 0
         end;
         incr frames;
         let eng, src = !cable in
         Lan.send src ~dest:(Lan.Unicast 1) ~bytes:256 ();
         Engine.run eng))

(* M10: M1's single event, scheduled and drained while 2,000 timed
   waits are pending: the shape of hot_invoke's queue, where nearly
   every invocation leaves a stale 2 s timeout behind.  The engine is
   rebuilt long before the waits could fire. *)
let m10_event_with_timeouts =
  let fresh () =
    let eng = Engine.create () in
    for _ = 1 to 2000 do
      ignore
        (Engine.spawn eng (fun () ->
             ignore (Engine.suspend ~timeout:(Time.s 2) (fun _ -> ()))))
    done;
    Engine.run ~until:Time.zero eng;
    eng
  in
  let eng = ref None in
  Test.make ~name:"M10 engine event, 2000 timeouts pending"
    (Staged.stage (fun () ->
         let e =
           match !eng with
           | Some e when Time.(Engine.now e < s 1) -> e
           | Some _ | None ->
             let e = fresh () in
             eng := Some e;
             e
         in
         Engine.schedule e ~after:(Time.us 1) ignore;
         Engine.run ~until:(Time.add (Engine.now e) (Time.us 1)) e))

(* M11: process starts whose bodies run 40 frames deep before their
   one delay.  Sixteen start one after another in a run, each after the
   last has ended, so all but the first reuse a parked fiber whose
   stack has already grown to that depth.  One run is sixteen starts. *)
let m11_deep_process =
  let rec deep n = if n = 0 then (Engine.delay (Time.ns 500); 0) else 1 + deep (n - 1) in
  Test.make ~name:"M11 process start at stack depth 40"
    (Staged.stage (fun () ->
         let eng = Engine.create () in
         for i = 0 to 15 do
           ignore
             (Engine.spawn eng ~at:(Time.us i) (fun () -> ignore (deep 40)))
         done;
         Engine.run eng))

(* M12: journalling one Inv_request send on the invocation path: its
   message facts into a ring at the kernel's default capacity.  The
   text is rendered only when the journal is read. *)
let m12_journal_send =
  let open Eden_kernel in
  let module Journal = Eden_obs.Journal in
  let j = Journal.create (Journal.sink ()) ~node:0 ~cap:4096 in
  let msg =
    Message.Inv_request
      {
        inv_id = { Message.origin = 0; seq = 1 };
        target = Name.make ~birth_node:1 ~serial:17;
        op = "work";
        args = [];
        presented = Rights.all;
        reply_to = 0;
        hops = 0;
        may_activate = true;
        span = None;
      }
  in
  Test.make ~name:"M12 journal record of an inv_request send"
    (Staged.stage (fun () ->
         ignore
           (Journal.record_send j ~at:Time.zero ~ctx:None ~dst:(Some 1)
              ~code:(Message.journal_code msg) ~name:(Message.journal_name msg)
              ~arg:(Message.journal_arg msg) ~str:(Message.journal_str msg))))

(* M13: the trace analysis a benchmark round runs once its requests
   are done — [Check.run ~complete:true] (all eight rules) and
   [Profile.of_timeline] — over a synthetic timeline of 32,768
   events: 4,096 remote invocations of eight events each (begin, send,
   coalescer flush, receive, work start, reply, reply receipt, end),
   eight in flight at a time on eight nodes.  Reported per event. *)
let m13_events = 32_768

let m13_analysis =
  let module J = Eden_obs.Journal in
  let per_request = 8 and in_flight = 8 in
  let tl =
    lazy
      (List.init m13_events (fun id ->
          let wave = id / (per_request * in_flight) in
          let step = id / in_flight mod per_request and r = id mod in_flight in
          let at s = ((wave * per_request) + s) * in_flight + r in
          let client = r and server = (r + 1) mod in_flight in
          let node, kind =
            match step with
            | 0 -> (client, J.Inv_begin { op = "work"; target = "obj<1.7>"; caller = -1 })
            | 1 -> (client, J.Send { msg = "inv_request obj<1.7>.work"; dst = Some server })
            | 2 -> (client, J.Net_flush { dst = server; msgs = 2 })
            | 3 -> (server, J.Recv { msg = "inv_request obj<1.7>.work"; src = client })
            | 4 -> (server, J.Work_start { op = "work" })
            | 5 -> (server, J.Send { msg = "inv_reply ok"; dst = Some client })
            | 6 -> (client, J.Recv { msg = "inv_reply ok"; src = server })
            | _ -> (client, J.Inv_end { op = "work"; outcome = "ok" })
          in
          {
            J.ev_id = id;
            ev_node = node;
            ev_at = Time.us id;
            ev_trace = at 0;
            ev_parent =
              (match step with
              | 0 -> -1
              | 3 -> at 1
              | _ -> at (step - 1));
            ev_kind = kind;
          }))
  in
  Test.make ~name:"M13 check + profile, per timeline event"
    (Staged.stage (fun () ->
         let tl = Lazy.force tl in
         if Eden_obs.Check.run ~complete:true tl <> [] then
           failwith "M13: the synthetic timeline breaks an invariant";
         ignore (Eden_obs.Profile.of_timeline tl)))

(* M14: building the locate directory's consistent-hash ring with the
   default 512 virtual points per node, at the benchmark workloads'
   8 nodes and at 128, twice E23's largest cluster. *)
let m14_directory n =
  let nodes = List.init n Fun.id in
  Test.make
    ~name:(Printf.sprintf "M14 Directory.make, %d nodes" n)
    (Staged.stage (fun () ->
         ignore (Eden_kernel.Directory.make ~nodes)))

(* M15: cluster set-up with no objects — machines, LAN, kernels and
   the metrics registry's per-node instruments — at the benchmark
   workloads' 8 nodes and at 128, to show how set-up scales with the
   node count. *)
let m15_setup n =
  Test.make
    ~name:(Printf.sprintf "M15 Cluster.default, %d nodes" n)
    (Staged.stage (fun () ->
         ignore (Eden_kernel.Cluster.default ~n_nodes:n ())))

(* Each test with the operations one run stands for. *)
let tests =
  [ (m1_engine_event, 1); (m2_process, 1); (m3_semaphore, 1); (m4_pqueue, 1);
    (m5_value_size, 1); (m6_splitmix, 1); (m7_full_stack, 1);
    (m8_lan_unicast, 1); (m10_event_with_timeouts, 1);
    (m11_deep_process, 1); (m12_journal_send, 1);
    (m13_analysis, m13_events); (m14_directory 8, 1); (m14_directory 128, 1);
    (m15_setup 8, 1); (m15_setup 128, 1) ]

let run () =
  Common.heading "M1-M15" "substrate microbenchmarks (real time, Bechamel)";
  let cfg =
    Benchmark.cfg ~limit:500
      ~quota:(Bechamel.Time.second 0.25)
      ~kde:None ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table =
    Table.create ~title:"M  nanoseconds per run (ordinary least squares)"
      ~columns:[ ("benchmark", Table.Left); ("ns/run", Table.Right) ]
  in
  List.iter
    (fun (test, per) ->
      List.iter
        (fun elt ->
          let result =
            Benchmark.run cfg [ Instance.monotonic_clock ] elt
          in
          let est = Analyze.one ols Instance.monotonic_clock result in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (x :: _) -> x
            | Some [] | None -> Float.nan
          in
          Table.add_row table
            [ Test.Elt.name elt; Printf.sprintf "%.0f" (ns /. float_of_int per) ])
        (Test.elements test))
    tests;
  Table.print table;
  Common.note
    "single-event and process costs in the hundreds of nanoseconds keep \
     million-event experiments interactive."
