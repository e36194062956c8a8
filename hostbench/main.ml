(* Host-time benchmark of the Eden simulator.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   One workload per process: peak heap is a process-wide high-water
   mark.  A run repeats rounds — set-up, request phase, analysis —
   until S seconds have passed and reports the median of each host-time
   figure.  Round i replays input stream i mod streams of the seed, so
   it must repeat that stream's virtual-time results exactly; that is
   checked.  With --trace 1 the run alternates traced and untraced
   rounds, replays each layer in isolation, prints the per-layer
   metrics and writes the spans to DIR.  The last line of output is one
   JSON object; the exit code is 1 when any correctness check fails. *)

open Eden_util
open Eden_sim
open Eden_kernel
module Json = Eden_obs.Json

let host_ns = Clock.cpu_ns
let secs ns = float_of_int ns /. 1e9
let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Spans around every call into the library *)

let traced_hooks sp =
  let run_span = ref (-1) in
  let vnow cl = Time.to_ns (Engine.now (Cluster.engine cl)) in
  let wrap cl ?req name f =
    let id = Spans.open_ sp ~parent:!run_span ?req ~virt:(vnow cl) name in
    let r = f () in
    Spans.close sp id ~virt:(vnow cl);
    r
  in
  {
    Workload.on_create = (fun cl f -> wrap cl "Cluster.create_object" f);
    on_invoke = (fun cl ~req f -> wrap cl ~req "Cluster.invoke" f);
    on_run =
      (fun cl f ->
        let id = Spans.open_ sp ~virt:(vnow cl) "Cluster.run" in
        run_span := id;
        f ();
        Spans.close sp id ~virt:(vnow cl);
        run_span := -1);
  }

(* ------------------------------------------------------------------ *)
(* Counts a round measures for the per-layer metrics *)

let counter_totals cl =
  let h = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.Eden_obs.Metrics.s_value with
      | Eden_obs.Metrics.Counter n ->
        let k = s.Eden_obs.Metrics.s_name in
        Hashtbl.replace h k (n + Option.value ~default:0 (Hashtbl.find_opt h k))
      | _ -> ())
    (Cluster.metrics_snapshot cl).Eden_obs.Snapshot.metrics;
  h

type hw = { cpu_busy : int; gdps : int; disk_busy : int }

let hw_totals (spec : Workload.spec) cl =
  let acc = ref { cpu_busy = 0; gdps = 0; disk_busy = 0 } in
  for n = 0 to spec.nodes - 1 do
    let m = Cluster.machine cl n in
    let cpu = Eden_hw.Machine.cpu m in
    acc :=
      { cpu_busy = !acc.cpu_busy + Time.to_ns (Eden_hw.Cpu.busy_time cpu);
        gdps = !acc.gdps + Eden_hw.Cpu.gdps cpu;
        disk_busy =
          !acc.disk_busy
          + Time.to_ns (Eden_hw.Disk.busy_time (Eden_hw.Machine.disk m)) }
  done;
  !acc

type counts = {
  c_before : (string, int) Hashtbl.t;
  c_after : (string, int) Hashtbl.t;
  hw_before : hw;
  hw_after : hw;
  cpu_wait_p99_s : float;
  sends : float;  (** estimated kernel messages sent *)
}

let delta c name =
  let get h = Option.value ~default:0 (Hashtbl.find_opt h name) in
  get c.c_after - get c.c_before

(* ------------------------------------------------------------------ *)
(* One round *)

type round = {
  setup_ns : int;
  request_ns : int;
  events : int;  (** engine events in the request phase *)
  procs : int;  (** processes spawned in the request phase *)
  timeline_ns : int;
  check_ns : int;
  profile_ns : int;
  snapshot_ns : int;
  timeline_events : int;
  tally : Workload.tally;
  heap_setup_words : int;
  heap_run_words : int;
  minor_words : float;
  major_collections : int;
  counts : counts option;
}

let analyze_ns r = r.timeline_ns + r.check_ns + r.profile_ns + r.snapshot_ns

let round spec ~seed ~sub ~counters ~hooks ~spans =
  Gc.full_major ();
  let heap () = (Gc.quick_stat ()).Gc.top_heap_words in
  let t0 = host_ns () in
  let cl, caps = Workload.setup spec ~seed ~sub hooks in
  let setup_ns = host_ns () - t0 in
  let heap_setup_words = heap () in
  let before =
    if counters then Some (counter_totals cl, hw_totals spec cl) else None
  in
  let eng = Cluster.engine cl in
  let ev0 = Engine.events_processed eng in
  let pr0 = Engine.processes_spawned eng in
  let gc0 = Gc.quick_stat () in
  let t1 = host_ns () in
  let tally = Workload.request_phase spec ~seed ~sub cl caps hooks in
  let request_ns = host_ns () - t1 in
  let gc1 = Gc.quick_stat () in
  let events = Engine.events_processed eng - ev0 in
  let procs = Engine.processes_spawned eng - pr0 in
  let heap_run_words = heap () in
  let after =
    if counters then Some (counter_totals cl, hw_totals spec cl) else None
  in
  let timed name f =
    let t = host_ns () in
    let r = match spans with None -> f () | Some sp -> Spans.around sp name f in
    (r, host_ns () - t)
  in
  let tl, timeline_ns = timed "Cluster.timeline" (fun () -> Cluster.timeline cl) in
  let complete = Cluster.journal_dropped cl = 0 in
  let vs, check_ns =
    timed "Check.run" (fun () -> Eden_obs.Check.run ~complete tl)
  in
  let _, profile_ns =
    timed "Profile.of_timeline" (fun () -> Eden_obs.Profile.of_timeline tl)
  in
  let _, snapshot_ns =
    timed "Cluster.metrics_snapshot" (fun () -> Cluster.metrics_snapshot cl)
  in
  List.iter
    (fun v ->
      Workload.problem tally "trace invariant %s violated: %s"
        v.Eden_obs.Check.v_rule v.Eden_obs.Check.v_detail)
    vs;
  let timeline_events = Eden_obs.Timeline.length tl in
  let counts =
    match (before, after) with
    | Some (c_before, hw_before), Some (c_after, hw_after) ->
      let waits = ref (Stats.create ()) in
      for n = 0 to spec.nodes - 1 do
        waits :=
          Stats.merge !waits
            (Eden_hw.Cpu.wait_stats (Eden_hw.Machine.cpu (Cluster.machine cl n)))
      done;
      (* The journal is a ring: scale the retained share of sends to
         everything recorded in the request phase. *)
      let retained_sends =
        List.length
          (List.filter
             (fun e ->
               match e.Eden_obs.Journal.ev_kind with
               | Eden_obs.Journal.Send _ -> true
               | _ -> false)
             tl)
      in
      let recorded h =
        Option.value ~default:0 (Hashtbl.find_opt h "eden.journal.events")
      in
      Some
        { c_before; c_after; hw_before; hw_after;
          cpu_wait_p99_s =
            (if Stats.count !waits = 0 then 0.0
             else Stats.percentile !waits 99.0);
          sends =
            fdiv retained_sends timeline_events
            *. float_of_int (recorded c_after - recorded c_before) }
    | _ -> None
  in
  Workload.check spec cl caps tally;
  { setup_ns; request_ns; events; procs; timeline_ns; check_ns; profile_ns;
    snapshot_ns; timeline_events; tally; heap_setup_words; heap_run_words;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    counts }

(* Rounds of one seed must agree on every virtual-time outcome. *)
let same_virtual a b =
  let ta = a.tally and tb = b.tally in
  ta.attempted = tb.attempted && ta.ok = tb.ok && ta.failed = tb.failed
  && ta.v_start = tb.v_start && ta.v_end = tb.v_end
  && Array.sub ta.lat 0 ta.ok = Array.sub tb.lat 0 tb.ok
  && a.events = b.events

(* ------------------------------------------------------------------ *)
(* End-to-end metrics *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* Nearest-rank quantile over completed invocations' latencies (ns). *)
let quantile_ms lat q =
  let n = Array.length lat in
  if n = 0 then 0.0
  else begin
    let a = Array.copy lat in
    Array.sort Int.compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    float_of_int a.(max 0 (rank - 1)) /. 1e6
  end

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Nearest-rank quantile of a list of floats. *)
let rank_quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Virtual-time figures pool the first round of each input stream.
   Host figures come from every round.  Set-up time is the median; the
   request-phase rates are the 10th percentile over rounds and the
   analysis time the 90th, because the host runs at two speeds (see
   README.md): most rounds run at the slower, contended speed, and
   how many catch a quiet spell varies from run to run. *)
let end_to_end (spec : Workload.spec) rounds ~peak_heap_mb =
  let pooled = List.filteri (fun i _ -> i < spec.streams) rounds in
  let sum f = List.fold_left (fun acc r -> acc + f r.tally) 0 pooled in
  let ok = sum (fun t -> t.ok) in
  let lat = Array.concat (List.map (fun r -> Array.sub r.tally.lat 0 r.tally.ok) pooled) in
  let over q f = rank_quantile (List.map f rounds) q in
  [
    m "setup_s" "s" (median (List.map (fun r -> secs r.setup_ns) rounds));
    m "inv_per_host_s" "1/s"
      (over 0.1 (fun r -> float_of_int r.tally.ok /. secs r.request_ns));
    m "events_per_host_s" "1/s"
      (over 0.1 (fun r -> float_of_int r.events /. secs r.request_ns));
    m "peak_heap_mb" "MB" peak_heap_mb;
    m "analyze_s" "s" (over 0.9 (fun r -> secs (analyze_ns r)));
    m "virt_p50_ms" "ms" (quantile_ms lat 0.5);
    m "virt_p99_ms" "ms" (quantile_ms lat 0.99);
    m "virt_inv_per_s" "1/s"
      (float_of_int ok /. secs (sum (fun t -> t.v_end - t.v_start)));
    m "failed_frac" "frac" (fdiv (sum (fun t -> t.failed)) (sum (fun t -> t.attempted)));
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

type replays = {
  ns_event : float;
  ns_timed_wait : float;
  events_per_wait : float;
  ns_unicast : float;
  ns_broadcast_128 : float;
  ns_broadcast_here : float;
  ns_send : float;
  ns_msg_size : float;
  ns_value_size : float;
  ns_journal : float;
}

let run_replays (spec : Workload.spec) ~sp ~frame_bytes =
  let r name f = Spans.around sp ("replay." ^ name) f in
  let msgs = Replay.messages spec in
  let ns_event = r "engine_event" (fun () -> Replay.engine_event ~width:256) in
  let shallow = r "engine_event_shallow" (fun () -> Replay.engine_event ~width:4) in
  let lan ~stations ~broadcast ~bytes =
    Replay.lan ~stations ~broadcast ~bytes ~engine_ns:shallow
  in
  let ns_broadcast_128 =
    r "lan_broadcast" (fun () ->
        lan ~stations:128 ~broadcast:true ~bytes:Replay.broadcast_bytes)
  in
  let ns_timed_wait, events_per_wait = r "timed_wait" Replay.timed_wait in
  {
    ns_event;
    ns_timed_wait;
    events_per_wait;
    ns_unicast =
      r "lan_unicast" (fun () ->
          lan ~stations:spec.nodes ~broadcast:false ~bytes:frame_bytes);
    ns_broadcast_128;
    ns_broadcast_here =
      (if spec.nodes = 128 then ns_broadcast_128
       else
         r "lan_broadcast_here" (fun () ->
             lan ~stations:spec.nodes ~broadcast:true
               ~bytes:Replay.broadcast_bytes));
    ns_send = r "transport_send" (fun () -> Replay.transport_send spec msgs);
    ns_msg_size = r "message_size" (fun () -> Replay.message_size msgs);
    ns_value_size = r "value_size" (fun () -> Replay.value_size spec);
    ns_journal = r "journal_record" Replay.journal_record;
  }

(* Layer cost estimates: replay cost times the count the run measured,
   in host ns.  Lan and timed-wait costs are taken net of the engine
   events they schedule, which the engine term already counts. *)
let layer_costs (r : round) c rp =
  let t = r.tally in
  let f = float_of_int in
  let frames = delta c "net.frames_sent" and bc = delta c "net.frames_broadcast" in
  [
    ("engine events", f r.events *. rp.ns_event);
    ( "timed waits",
      f (t.attempted + delta c "eden.retries")
      *. (rp.ns_timed_wait -. (rp.events_per_wait *. rp.ns_event)) );
    ("lan unicast", f (frames - bc) *. rp.ns_unicast);
    ("lan broadcast", f bc *. rp.ns_broadcast_here);
    ("transport send", c.sends *. rp.ns_send);
    ("journal record", f (delta c "eden.journal.events") *. rp.ns_journal);
    (* set_repr sizes the old and the new representation *)
    ("value size", f ((2 * t.pokes) + t.saves) *. rp.ns_value_size);
  ]

let per_layer (spec : Workload.spec) (r : round) c rp ~request_ns ~create_us
    ~overhead ~spans =
  let t = r.tally in
  let inv x = fdiv x t.ok in
  let d = delta c in
  let v_span = t.v_end - t.v_start in
  let frames = d "net.frames_sent" in
  let delivered = d "net.frames_delivered" in
  let bytes = d "net.bytes_delivered" in
  let lan_util =
    (* Frames on the wire times the frame time at the mean delivered
       payload: an estimate, since the cluster does not expose the
       Lan's own busy time. *)
    let wire = frames - d "net.frames_dropped" in
    let avg = if delivered = 0 then 0 else bytes / delivered in
    let avg = max 0 (min avg Eden_net.Params.default.max_frame_bytes) in
    let ft = Time.to_ns (Eden_net.Params.frame_time Eden_net.Params.default ~payload_bytes:avg) in
    fdiv (wire * ft) v_span
  in
  let hits = d "eden.hint_hits" and misses = d "eden.hint_misses" in
  let ckpts = d "eden.checkpoints" in
  let costs = layer_costs r c rp in
  let explained = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 costs in
  let hwd f = f c.hw_after - f c.hw_before in
  ( [
      m "virt_p999_ms" "ms" (quantile_ms (Array.sub t.lat 0 t.ok) 0.999);
      m "engine.events_per_inv" "events/inv" (inv r.events);
      m "engine.procs_per_inv" "procs/inv" (inv r.procs);
      m "engine.ns_per_event" "ns" rp.ns_event;
      m "engine.ns_per_timed_wait" "ns" rp.ns_timed_wait;
      m "heap.bytes_per_inv" "B/inv"
        (inv ((r.heap_run_words - r.heap_setup_words) * (Sys.word_size / 8)));
      m "gc.minor_words_per_inv" "words/inv" (r.minor_words /. float_of_int t.ok);
      m "gc.major_collections" "count" (float_of_int r.major_collections);
      m "lan.frames_per_inv" "frames/inv" (inv frames);
      m "lan.broadcast_frac" "frac" (fdiv (d "net.frames_broadcast") frames);
      m "lan.ns_per_broadcast" "ns" rp.ns_broadcast_128;
      m "lan.ns_per_unicast" "ns" rp.ns_unicast;
      m "lan.collisions_per_frame" "count" (fdiv (d "net.collisions") frames);
      m "lan.util" "frac" lan_util;
      m "lan.frames_dropped" "count" (float_of_int (d "net.frames_dropped"));
      m "transport.bytes_per_frame" "B" (fdiv bytes delivered);
      m "transport.ns_per_send" "ns" rp.ns_send;
      m "message.ns_per_size" "ns" rp.ns_msg_size;
      m "value.ns_per_size" "ns" rp.ns_value_size;
      m "cluster.hint_hit_ratio" "frac" (fdiv hits (hits + misses));
      m "cluster.locates_per_inv" "locates/inv" (inv (d "eden.locate_broadcasts"));
      m "cluster.retries_per_inv" "retries/inv" (inv (d "eden.retries"));
      m "cluster.nacks" "count" (float_of_int (d "eden.nacks"));
      m "cluster.remote_frac" "frac"
        (fdiv (d "eden.invocations_remote") (d "eden.invocations"));
      m "cluster.create_us" "us" create_us;
      m "cluster.residual_share" "frac"
        (1.0 -. (explained /. float_of_int request_ns));
      m "ckpt.rounds" "count" (float_of_int ckpts);
      m "ckpt.bytes_per_round" "B" (fdiv (d "eden.checkpoint_bytes") ckpts);
      m "disk.util" "frac"
        (fdiv (hwd (fun h -> h.disk_busy)) (spec.nodes * v_span));
      m "cpu.util" "frac" (fdiv (hwd (fun h -> h.cpu_busy)) (c.hw_after.gdps * v_span));
      m "cpu.wait_p99_ms" "ms" (c.cpu_wait_p99_s *. 1e3);
      m "journal.events_per_inv" "events/inv" (inv (d "eden.journal.events"));
      m "journal.ns_per_record" "ns" rp.ns_journal;
      m "journal.dropped" "count" (float_of_int (d "eden.journal.dropped"));
      m "obs.timeline_ms" "ms" (float_of_int r.timeline_ns /. 1e6);
      m "obs.check_ms" "ms" (float_of_int r.check_ns /. 1e6);
      m "obs.profile_ms" "ms" (float_of_int r.profile_ns /. 1e6);
      m "obs.snapshot_ms" "ms" (float_of_int r.snapshot_ns /. 1e6);
      m "obs.timeline_events" "count" (float_of_int r.timeline_events);
      m "trace.overhead_frac" "frac" overhead;
      m "trace.spans" "count" (float_of_int spans);
    ],
    costs )

(* ------------------------------------------------------------------ *)
(* Output *)

let print_metrics ms =
  List.iter
    (fun x -> Printf.printf "  %-28s %16.6g %s\n" x.m_name x.m_value x.m_unit)
    ms

let result_json ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.m_name,
                    Json.Obj
                      [ ("value", Json.Float x.m_value); ("unit", Json.Str x.m_unit) ] ))
                ms) );
       ])

(* Round [i] replays input stream [i mod streams], so it must repeat
   round [i mod streams]'s virtual-time results exactly. *)
let report_problems ~streams rounds =
  let problems =
    List.concat_map (fun r -> List.rev r.tally.Workload.problems) rounds
  in
  let a = Array.of_list rounds in
  let deterministic = ref true in
  Array.iteri
    (fun i r -> if not (same_virtual a.(i mod streams) r) then deterministic := false)
    a;
  List.iteri
    (fun i p -> if i < 20 then Printf.printf "FAIL  %s\n" p)
    problems;
  if not !deterministic then
    Printf.printf "FAIL  rounds of one input stream disagree on virtual-time results\n";
  problems = [] && !deterministic

(* Totals over the rounds that feed the virtual-time figures. *)
let describe (spec : Workload.spec) pooled =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 pooled in
  let ok = sum (fun r -> r.tally.ok) in
  let attempted = sum (fun r -> r.tally.attempted) in
  let failed = sum (fun r -> r.tally.failed) in
  Printf.printf
    "  %d nodes, %d objects, %d clients; %d input stream(s) of %d requests\n"
    spec.nodes (Workload.total_objects spec) (Workload.total_clients spec)
    (List.length pooled) (Workload.attempts spec);
  let lat =
    Array.concat (List.map (fun r -> Array.sub r.tally.lat 0 r.tally.ok) pooled)
  in
  Printf.printf
    "  %d invocations attempted, %d completed, %d failed; %d engine events\n"
    attempted ok failed (sum (fun r -> r.events));
  Printf.printf
    "  %d latency samples: p99 %.3f ms (%d beyond), p999 %.3f ms (%d beyond)\n"
    ok (quantile_ms lat 0.99) (ok / 100) (quantile_ms lat 0.999) (ok / 1000);
  let errors = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun k n ->
          Hashtbl.replace errors k (n + Option.value ~default:0 (Hashtbl.find_opt errors k)))
        r.tally.errors)
    pooled;
  Hashtbl.iter (fun k n -> Printf.printf "  failed with %s: %d\n" k n) errors;
  (attempted, failed)

(* ------------------------------------------------------------------ *)
(* Runs *)

let untraced_run (spec : Workload.spec) ~seed ~seconds =
  let start = Clock.wall_ns () in
  let go i =
    round spec ~seed ~sub:(i mod spec.streams) ~counters:false
      ~hooks:Workload.no_hooks ~spans:None
  in
  let rounds = ref [] and i = ref 0 and peak = ref 0.0 in
  while !i < spec.streams || Clock.wall_ns () - start < seconds * 1_000_000_000 do
    rounds := go !i :: !rounds;
    incr i;
    (* Read after the fixed first cycle: the top heap keeps creeping up
       with every further round, and how many follow depends on the
       host's speed. *)
    if !i = spec.streams then peak := peak_heap_mb ()
  done;
  let rounds = List.rev !rounds in
  let attempted, failed =
    describe spec (List.filteri (fun i _ -> i < spec.streams) rounds)
  in
  Printf.printf "  %d rounds in %.1f s\n" (List.length rounds)
    (secs (Clock.wall_ns () - start));
  let correct = report_problems ~streams:spec.streams rounds in
  let ms = end_to_end spec rounds ~peak_heap_mb:!peak in
  print_metrics ms;
  (correct, attempted, failed, ms)

let traced_run spec ~seed ~seconds ~out =
  let start = Clock.wall_ns () in
  (* Round 1: untraced, with the counters read before and after the
     request phase; it also carries the heap growth of a fresh process. *)
  let go ~counters ~hooks ~spans = round spec ~seed ~sub:0 ~counters ~hooks ~spans in
  let first = go ~counters:true ~hooks:Workload.no_hooks ~spans:None in
  let plain = ref [] and traced = ref [] and last_sp = ref (Spans.create ()) in
  let pair () =
    let sp = Spans.create () in
    traced := go ~counters:false ~hooks:(traced_hooks sp) ~spans:(Some sp) :: !traced;
    last_sp := sp;
    plain := go ~counters:false ~hooks:Workload.no_hooks ~spans:None :: !plain
  in
  pair ();
  while Clock.wall_ns () - start < seconds * 1_000_000_000 do
    pair ()
  done;
  let sp = !last_sp in
  let rounds = first :: List.rev_append !traced (List.rev !plain) in
  let attempted, failed = describe spec [ first ] in
  let correct = report_problems ~streams:1 rounds in
  let med rs = median (List.map (fun r -> float_of_int r.request_ns) rs) in
  let overhead = (med !traced /. med !plain) -. 1.0 in
  let c = Option.get first.counts in
  let frame_bytes =
    let dl = delta c "net.frames_delivered" in
    if dl = 0 then 64 else delta c "net.bytes_delivered" / dl
  in
  let rp = run_replays spec ~sp ~frame_bytes in
  let create_us =
    Spans.host_total sp "Cluster.create_object"
    |> fun ns -> float_of_int ns /. 1e3 /. float_of_int (Workload.total_objects spec)
  in
  let ms, costs =
    per_layer spec first c rp ~request_ns:(int_of_float (med !plain)) ~create_us
      ~overhead ~spans:(Spans.count sp)
  in
  Printf.printf "  %d traced + %d untraced rounds after the first; tracing \
                 overhead %+.1f%% of request-phase host time\n"
    (List.length !traced) (List.length !plain) (100.0 *. overhead);
  Printf.printf "  layer shares of request-phase host time (replay cost x count):\n";
  let total = med !plain in
  List.iter
    (fun (name, ns) -> Printf.printf "    %-16s %6.1f%%\n" name (100.0 *. ns /. total))
    costs;
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat out
      (Printf.sprintf "spans_%s_%d.json" (Workload.name spec.kind) seed)
  in
  Spans.write sp ~path;
  Printf.printf "  %d spans written to %s\n" (Spans.count sp) path;
  print_metrics ms;
  (correct, attempted, failed, ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out = ref (Filename.concat "_build" "hostbench") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  hot_invoke | locate_scale | ckpt_mix | ckpt_local");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--out", Arg.Set_string out, "DIR  where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let kind =
    match Workload.of_name !workload with
    | Some k -> k
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let spec = Workload.spec kind in
  Printf.printf "workload %s  seed %d  trace %d  cluster seeds" !workload !seed
    !trace;
  for sub = 0 to (if !trace = 0 then spec.streams else 1) - 1 do
    Printf.printf " %Ld" (Workload.cluster_seed kind !seed ~sub)
  done;
  print_newline ();
  let correct, attempted, failed, ms =
    if !trace = 0 then untraced_run spec ~seed:!seed ~seconds:!seconds
    else traced_run spec ~seed:!seed ~seconds:!seconds ~out:!out
  in
  print_endline
    (result_json ~correct ~attempted ~failed ms);
  exit (if correct then 0 else 1)
