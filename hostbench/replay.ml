(* Replay drivers: each layer's hot operation run in isolation, on the
   workload's own message and value shapes, timed in host nanoseconds
   per operation (median of five repetitions).  Multiplied by the
   counts a traced run measures, they estimate each layer's share of
   the request phase; what they leave unexplained is the residual. *)

open Eden_util
open Eden_sim
open Eden_kernel

let host_ns = Clock.cpu_ns

let median5 f =
  let xs = Array.init 5 (fun _ -> f ()) in
  Array.sort Float.compare xs;
  xs.(2)

let fdiv a b = float_of_int a /. float_of_int b
let per ~ops dt = fdiv dt ops

(* Engine.schedule + run with [width] events pending at a time: each
   callback reschedules itself.  The pending count sets the heap depth,
   and with it the cost per event. *)
let engine_event ~width =
  median5 (fun () ->
      let eng = Engine.create () in
      let left = ref 200_000 in
      let rec tick () =
        if !left > 0 then begin
          decr left;
          Engine.schedule eng ~after:(Time.ns (1 + (!left land 1023))) tick
        end
      in
      let t0 = host_ns () in
      for _ = 1 to width do
        Engine.schedule eng tick
      done;
      Engine.run eng;
      per ~ops:(Engine.events_processed eng) (host_ns () - t0))

(* The wait of an invocation attempt: suspend with a 2 s timeout and be
   woken well before it.  Sixteen processes keep about 2,000 stale
   timeout events pending, as sixteen clients of an 8-node workload do;
   popping those later is part of the cost per wait.  Returns host ns
   and engine events per wait. *)
let timed_wait () =
  let events = ref 0.0 in
  let ns =
  median5 (fun () ->
      let eng = Engine.create () in
      let procs = 16 and waits = 2_000 in
      for _ = 1 to procs do
        ignore
          (Engine.spawn eng (fun () ->
               for _ = 1 to waits do
                 ignore
                   (Engine.suspend ~timeout:(Time.s 2) (fun h ->
                        Engine.schedule eng ~after:(Time.ms 16) (fun () ->
                            Engine.wake eng h)))
               done))
      done;
      let t0 = host_ns () in
      Engine.run eng;
      events := fdiv (Engine.events_processed eng) (procs * waits);
      per ~ops:(procs * waits) (host_ns () - t0))
  in
  (ns, !events)

(* Frames through the CSMA/CD model, spaced so they never contend,
   reported net of the engine events they schedule, costed at
   [engine_ns] each (an engine replay at this replay's own shallow
   heap depth). *)
let lan ~stations ~broadcast ~bytes ~engine_ns =
  let bytes = max 1 (min bytes Eden_net.Params.default.max_frame_bytes) in
  let gap =
    Time.scale (Eden_net.Params.frame_time Eden_net.Params.default ~payload_bytes:bytes) 3
  in
  median5 (fun () ->
      let eng = Engine.create () in
      let net = Eden_net.Lan.create eng in
      let sts =
        Array.init stations (fun i ->
            Eden_net.Lan.attach net ~name:(Printf.sprintf "s%d" i))
      in
      Array.iter (fun st -> Eden_net.Lan.on_receive st ignore) sts;
      let ops = if broadcast then 2_000 else 20_000 in
      let rec tick i () =
        if i < ops then begin
          let dest =
            if broadcast then Eden_net.Lan.Broadcast
            else Eden_net.Lan.Unicast ((i + 1) mod stations)
          in
          Eden_net.Lan.send sts.(i mod stations) ~dest ~bytes ();
          Engine.schedule eng ~after:gap (tick (i + 1))
        end
      in
      Engine.schedule eng (tick 0);
      let t0 = host_ns () in
      Engine.run eng;
      let dt = float_of_int (host_ns () - t0) in
      let events = float_of_int (Engine.events_processed eng) in
      (dt -. (events *. engine_ns)) /. float_of_int ops)

(* One representative message of each kind the workload sends. *)
let messages (spec : Workload.spec) =
  let target = Name.make ~birth_node:1 ~serial:7 in
  let id = { Message.origin = 0; seq = 1 } in
  let payload =
    Value.Pair (Value.Int 1, Value.Blob Workload.payload_blob)
  in
  let inv op args =
    Message.Inv_request
      { inv_id = id; target; op; args; presented = Rights.all; reply_to = 0;
        hops = 0; may_activate = false; span = None }
  in
  let reply vs =
    Message.Inv_reply { inv_id = id; result = Ok vs; frozen_hint = false }
  in
  let work =
    [ inv "work" [ payload; Value.Int Workload.compute_us ]; reply [ payload ] ]
  in
  let msgs =
    match spec.kind with
    | Workload.Hot_invoke -> work
    | Workload.Locate_scale ->
      Message.Locate_request { req_id = id; target; reply_to = 0 }
      :: Message.Locate_reply
           { req_id = id; target; at_node = 1; residence = Message.Res_active;
             version = 0 }
      :: work
    | Workload.Ckpt_mix | Workload.Ckpt_local ->
      let remote_checkpoint =
        if spec.kind = Workload.Ckpt_local then []
        else
          [ Message.Ckpt_write
              { req_id = id; target; type_name = Workload.type_name;
                repr = Workload.initial_repr spec.kind; version = 1;
                reliability = Reliability.Mirrored [ 1; 2 ]; frozen = false;
                reply_to = 0 };
            Message.Ckpt_ack { req_id = id; ok = true } ]
      in
      [ inv "read" [ Value.Int 3 ]; reply [ Workload.chunk 1 ];
        inv "poke" [ Value.Int 3; Workload.chunk 1 ]; reply [] ]
      @ remote_checkpoint
  in
  let ctx = Eden_obs.Tracectx.make ~trace:1 ~parent:2 in
  Array.of_list (List.map (Message.traced ~ctx) msgs)

let broadcast_bytes =
  Message.traced_size
    (Message.traced
       ~ctx:(Eden_obs.Tracectx.make ~trace:1 ~parent:2)
       (Message.Locate_request
          { req_id = { Message.origin = 0; seq = 1 };
            target = Name.make ~birth_node:1 ~serial:7; reply_to = 0 }))

(* Transport.send alone, down to the station's transmit queue; the
   engine drains the queues between batches, untimed. *)
let transport_send spec msgs =
  median5 (fun () ->
      let eng = Engine.create () in
      let net = Transport.create_net eng ~segments:1 in
      let n = spec.Workload.nodes in
      let eps =
        Array.init n (fun i ->
            Transport.attach net ~segment:0 ~name:(Printf.sprintf "n%d" i))
      in
      Array.iter (fun ep -> Transport.on_message ep (fun ~src:_ _ -> ())) eps;
      let batch = 500 and batches = 20 in
      let dt = ref 0 in
      for _ = 1 to batches do
        let t0 = host_ns () in
        for j = 0 to batch - 1 do
          Transport.send eps.(j mod n) ~dst:((j + 1) mod n)
            msgs.(j mod Array.length msgs)
        done;
        dt := !dt + (host_ns () - t0);
        Engine.run eng
      done;
      per ~ops:(batch * batches) !dt)

let sink = ref 0

let loop ~ops f =
  median5 (fun () ->
      let t0 = host_ns () in
      for i = 0 to ops - 1 do
        sink := !sink + f i
      done;
      per ~ops (host_ns () - t0))

let message_size msgs =
  loop ~ops:200_000 (fun i ->
      Message.traced_size msgs.(i mod Array.length msgs))

(* Value.size_bytes on the largest value the workload sizes: the
   chunked representation on ckpt_mix, the payload elsewhere. *)
let value_size (spec : Workload.spec) =
  let v =
    if Workload.chunked spec.kind then Workload.initial_repr spec.kind
    else Value.Pair (Value.Int 1, Value.Blob Workload.payload_blob)
  in
  loop ~ops:200_000 (fun _ -> Value.size_bytes v)

(* Journal.record into a ring at the kernel's default capacity. *)
let journal_record () =
  let j =
    Eden_obs.Journal.create (Eden_obs.Journal.sink ()) ~node:0 ~cap:4096
  in
  let ctx = Eden_obs.Tracectx.make ~trace:1 ~parent:2 in
  loop ~ops:200_000 (fun i ->
      Eden_obs.Journal.record j ~at:(Time.ns i) ~ctx
        (Eden_obs.Journal.Send { msg = "inv_request"; dst = Some 1 }))
