(* Tests for the observability library: metrics registry, JSON
   snapshots, event journals, and the kernel's instrumentation of the
   invocation path. *)

open Eden_util
open Eden_sim
open Eden_obs
open Eden_kernel
open Api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_registry_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~labels:[ ("node", "0") ] "inv" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter value" 5 (Metrics.counter_value c);
  (* Same (name, labels) returns the same instrument. *)
  let c' = Metrics.counter reg ~labels:[ ("node", "0") ] "inv" in
  Metrics.incr c';
  check_int "shared by name" 6 (Metrics.counter_value c);
  (* Labels are order-insensitive. *)
  let d = Metrics.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "depth" in
  Metrics.add d 3;
  let d' = Metrics.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "depth" in
  check_int "label order irrelevant" 3 (Metrics.counter_value d');
  (* Kind mismatch on an existing name is rejected. *)
  check_bool "kind mismatch raises" true
    (try
       ignore
         (Metrics.histogram reg ~labels:[ ("node", "0") ] ~buckets:[| 1.0 |]
            "inv");
       false
     with Invalid_argument _ -> true);
  (* Counters are monotonic. *)
  check_bool "negative add raises" true
    (try
       Metrics.add c (-1);
       false
     with Invalid_argument _ -> true)

let test_sample_determinism () =
  let reg = Metrics.create () in
  (* Register out of order; samples must come back sorted and stable. *)
  Metrics.incr (Metrics.counter reg ~labels:[ ("node", "1") ] "inv");
  Metrics.incr (Metrics.counter reg ~labels:[ ("node", "0") ] "inv");
  Metrics.register_gauge_fn reg "live" (fun () -> 7.0);
  let s1 = Metrics.sample reg in
  let s2 = Metrics.sample reg in
  check_bool "two samples identical" true (s1 = s2);
  check_int "three samples" 3 (List.length s1);
  (match List.map (fun s -> (s.Metrics.s_name, s.Metrics.s_labels)) s1 with
  | [ ("inv", [ ("node", "0") ]); ("inv", [ ("node", "1") ]); ("live", []) ]
    ->
    ()
  | other ->
    Alcotest.failf "unexpected sample order: %s"
      (String.concat "; " (List.map (fun (n, _) -> n) other)));
  check_bool "sampled closure read" true
    (Metrics.find s1 "live" = Some (Metrics.Gauge 7.0))

let test_histogram_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~buckets:[| 1.0; 2.0; 5.0 |] "lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 5.0; 7.0; 0.5 ];
  match Metrics.find (Metrics.sample reg) "lat" with
  | Some (Metrics.Histogram v) ->
    (* v <= bound lands in the first such bucket; beyond the last bound
       counts as overflow. *)
    check_bool "bucket counts" true (v.Metrics.counts = [| 2; 2; 1 |]);
    check_int "overflow" 1 v.Metrics.overflow;
    check_int "total count" 6 v.Metrics.count;
    check_bool "sum" true (abs_float (v.Metrics.sum -. 17.0) < 1e-9);
    check_bool "non-increasing bounds rejected" true
      (try
         ignore (Metrics.histogram reg ~buckets:[| 2.0; 2.0 |] "bad");
         false
       with Invalid_argument _ -> true)
  | _ -> Alcotest.fail "histogram sample missing"

(* Measurement-bug inputs must be dropped, not recorded: a NaN/
   negative/infinite observation would corrupt bucket counts or the
   sum. *)
let test_metrics_guards () =
  let reg = Metrics.create () in
  Metrics.register_gauge_fn reg "depth" (fun () -> 2.0);
  let h = Metrics.histogram reg ~buckets:[| 1.0; 2.0 |] "lat" in
  Metrics.observe h 1.5;
  (* Virtual time cannot go negative, so the duration guard lives at
     the float level: negative, NaN and infinite observations drop. *)
  List.iter (Metrics.observe h) [ nan; -0.5; infinity ];
  (match Metrics.find (Metrics.sample reg) "lat" with
  | Some (Metrics.Histogram v) ->
    check_int "only the valid observation counted" 1 v.Metrics.count;
    check_bool "sum untouched by dropped inputs" true
      (v.Metrics.sum = 1.5);
    check_int "nothing in overflow" 0 v.Metrics.overflow
  | _ -> Alcotest.fail "histogram sample missing");
  (* The iter filter skips rejected instruments before reading them:
     an expensive (here: exploding) collector must not run. *)
  Metrics.register_gauge_fn reg "expensive" (fun () ->
      Alcotest.fail "filtered-out collector was evaluated");
  let seen = ref [] in
  Metrics.iter
    ~filter:(fun name -> name <> "expensive")
    reg
    (fun name _ _ -> seen := name :: !seen);
  check_bool "filtered walk saw the others" true
    (List.sort compare !seen = [ "depth"; "lat" ])

(* ------------------------------------------------------------------ *)
(* Sliding windows *)

let test_window_basics () =
  let w = Window.create ~ticks:4 in
  check_bool "empty sum" true (Window.sum_last w 4 = 0.0);
  check_bool "empty max is nan" true (Float.is_nan (Window.max_last w 4));
  List.iter (Window.push w) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  (* Ring of 4: the 1.0 has been evicted. *)
  check_bool "sum over full window" true (Window.sum_last w 4 = 14.0);
  check_bool "sum over last 2" true (Window.sum_last w 2 = 9.0);
  check_bool "deeper query clamps to filled" true
    (Window.sum_last w 100 = 14.0);
  check_bool "max over last 3" true (Window.max_last w 3 = 5.0);
  check_bool "rate: sum / elapsed" true
    (Window.rate_last w 2 ~tick:(Time.of_sec 0.5) = 9.0);
  check_bool "zero ticks rejected" true
    (try
       ignore (Window.create ~ticks:0);
       false
     with Invalid_argument _ -> true)

let test_window_hist_quantile () =
  let bounds = [| 0.01; 0.1; 1.0 |] in
  let h = Window.Hist.create ~ticks:3 ~bounds in
  check_bool "empty quantile is nan" true
    (Float.is_nan (Window.Hist.quantile_last h 3 0.5));
  (* Tick 1: 10 fast, tick 2: 10 slow. *)
  Window.Hist.push h ~counts:[| 10; 0; 0 |] ~overflow:0;
  Window.Hist.push h ~counts:[| 0; 0; 10 |] ~overflow:0;
  check_bool "p25 stays in the fast bucket" true
    (Window.Hist.quantile_last h 3 0.25 <= 0.01);
  check_bool "p99 reaches the slow bucket" true
    (Window.Hist.quantile_last h 3 0.99 > 0.1);
  (* Depth 1 sees only the slow tick. *)
  check_bool "shallow query is all slow" true
    (Window.Hist.quantile_last h 1 0.25 > 0.1);
  (* Overflow mass reports the last bound (we know nothing beyond it). *)
  Window.Hist.push h ~counts:[| 0; 0; 0 |] ~overflow:5;
  check_bool "overflow quantile clamps to last bound" true
    (Window.Hist.quantile_last h 1 0.99 = 1.0);
  check_bool "quantile out of range rejected" true
    (try
       ignore (Window.Hist.quantile_last h 1 1.5);
       false
     with Invalid_argument _ -> true)

let test_window_hist_quantile_edges () =
  (* The hedge threshold on the invocation hot path derives from
     these quantiles, so the edges must be airtight: a single-bucket
     histogram, a window whose observations have all aged out, and
     the nan that threshold consumers must guard. *)
  let h = Window.Hist.create ~ticks:2 ~bounds:[| 0.5 |] in
  Window.Hist.push h ~counts:[| 4 |] ~overflow:0;
  check_bool "q=0 stays inside the only bucket" true
    (let v = Window.Hist.quantile_last h 2 0.0 in
     v >= 0.0 && v <= 0.5);
  check_bool "q=1 stays inside the only bucket" true
    (let v = Window.Hist.quantile_last h 2 1.0 in
     v >= 0.0 && v <= 0.5);
  (* Zero-count ticks age the observations out of the window. *)
  Window.Hist.push h ~counts:[| 0 |] ~overflow:0;
  Window.Hist.push h ~counts:[| 0 |] ~overflow:0;
  let v = Window.Hist.quantile_last h 2 0.5 in
  check_bool "aged-out window reports nan" true (Float.is_nan v);
  (* The nan is a disarm signal, not a number: a threshold comparison
     against it must be false both ways, so a consumer that hedges on
     [elapsed > threshold] goes quiet instead of hedging everything. *)
  check_bool "nan never exceeds a latency" true (not (1.0 > v));
  check_bool "nan never undercuts a latency" true (not (1.0 < v));
  (* A window holding only overflow mass clamps to the only bound. *)
  Window.Hist.push h ~counts:[| 0 |] ~overflow:3;
  check_bool "overflow-only window clamps to the bound" true
    (Window.Hist.quantile_last h 1 0.5 = 0.5)

(* ------------------------------------------------------------------ *)
(* Top-k sketch *)

let test_topk_sketch () =
  (* Under capacity the sketch is exact with zero error. *)
  let t = Topk.create ~capacity:4 in
  Topk.add t "a" ~count:3;
  Topk.add t "b";
  Topk.add t "b";
  Topk.add t "c";
  check_int "total" 6 (Topk.total t);
  (match Topk.top t 2 with
  | [ x; y ] ->
    check_string "heaviest" "a" x.Topk.e_key;
    check_int "heaviest count" 3 x.Topk.e_count;
    check_string "runner-up" "b" y.Topk.e_key;
    check_int "exact err below capacity" 0 (x.Topk.e_err + y.Topk.e_err)
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  (* Ties order by key, so reports are deterministic. *)
  (match Topk.top t 3 with
  | [ _; b'; c' ] ->
    check_bool "tie broken by key" true
      (b'.Topk.e_count = c'.Topk.e_count || b'.Topk.e_key = "b");
    check_string "c after b on tie" "c" c'.Topk.e_key
  | _ -> Alcotest.fail "expected 3 entries");
  (* At capacity a newcomer evicts the minimum and inherits its count
     as error; estimates never undercount. *)
  Topk.add t "d";
  Topk.add t "e";
  let e =
    match List.find_opt (fun e -> e.Topk.e_key = "e") (Topk.entries t) with
    | Some e -> e
    | None -> Alcotest.fail "newcomer missing after eviction"
  in
  check_bool "overestimate, never under" true (e.Topk.e_count >= 1);
  check_bool "error bounds the inheritance" true
    (e.Topk.e_count - e.Topk.e_err <= 1);
  check_bool "negative count rejected" true
    (try
       Topk.add t "x" ~count:(-1);
       false
     with Invalid_argument _ -> true);
  (* Merge: exact sketches combine exactly. *)
  let a = Topk.create ~capacity:8 and b = Topk.create ~capacity:8 in
  Topk.add a "x" ~count:5;
  Topk.add a "y" ~count:2;
  Topk.add b "x" ~count:1;
  Topk.add b "z" ~count:4;
  let m = Topk.merge ~capacity:8 [ a; b ] in
  check_int "merged total" 12 (Topk.total m);
  (match Topk.top m 3 with
  | [ x; z; y ] ->
    check_bool "merged counts" true
      (x.Topk.e_key = "x" && x.Topk.e_count = 6
      && z.Topk.e_key = "z" && z.Topk.e_count = 4
      && y.Topk.e_key = "y" && y.Topk.e_count = 2)
  | _ -> Alcotest.fail "merge lost entries")

(* ------------------------------------------------------------------ *)
(* Health watchdogs (unit level, fresh registry, manual ticks) *)

let test_health_unit () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~labels:[ ("node", "0") ] "req" in
  let c1 = Metrics.counter reg ~labels:[ ("node", "1") ] "req" in
  let rule =
    {
      Health.r_name = "req-rate";
      r_signal = Health.Rate "req";
      r_cmp = Health.Above;
      r_threshold = 5.0;
    }
  in
  let cfg =
    {
      Health.hc_tick = Time.of_sec 1.0;
      hc_short = 1;
      hc_long = 2;
      hc_rules = [ rule ];
    }
  in
  let log = ref [] in
  let on_transition r ~firing ~value:_ =
    log := (r.Health.r_name, firing) :: !log
  in
  (* Pre-existing totals are baselined away: the first tick's delta
     measures the first tick only. *)
  Metrics.add c 1000;
  let h = Health.create ~on_transition cfg reg in
  Health.tick h;
  check_int "baselined: quiet first tick" 0 (Health.firing h);
  (* Labelled series sum across nodes: 8 + 7 = 15/s > 10. *)
  (* Labelled series sum across nodes: 8 + 7 = 15/s.  The short
     window (1 tick) sees 15/s and the long window (2 ticks) averages
     (0 + 15)/2 = 7.5/s — both above 5, so the rule fires. *)
  Metrics.add c 8;
  Metrics.add c1 7;
  Health.tick h;
  check_int "short and long breach together" 1 (Health.firing h);
  check_int "one transition" 1 (Health.transitions h);
  check_bool "callback saw the rise" true (!log = [ ("req-rate", true) ]);
  (* Hysteresis: the long window still remembers the burst, so one
     quiet tick does not clear. *)
  Health.tick h;
  check_int "still firing on the long window" 1 (Health.firing h);
  (* Second quiet tick ages the burst out of both windows. *)
  Health.tick h;
  check_int "cleared" 0 (Health.firing h);
  check_int "two transitions total" 2 (Health.transitions h);
  check_bool "callback saw the clear" true
    (List.hd !log = ("req-rate", false));
  check_int "ticks counted" 4 (Health.ticks h);
  (* The report renders every rule and is pure (same state, same
     bytes). *)
  check_bool "report mentions the rule" true
    (let r = Health.report h in
     let n = String.length r and m = String.length "req-rate" in
     let rec go i =
       i + m <= n && (String.sub r i m = "req-rate" || go (i + 1))
     in
     go 0);
  check_bool "report is pure" true (Health.report h = Health.report h);
  (* Config validation. *)
  let bad f =
    try
      ignore (Health.create (f cfg) reg);
      false
    with Invalid_argument _ -> true
  in
  check_bool "zero tick rejected" true
    (bad (fun c -> { c with Health.hc_tick = Time.zero }));
  check_bool "short < 1 rejected" true
    (bad (fun c -> { c with Health.hc_short = 0 }));
  check_bool "long < short rejected" true
    (bad (fun c -> { c with Health.hc_short = 3; hc_long = 2 }));
  check_bool "quantile out of range rejected" true
    (bad (fun c ->
         {
           c with
           Health.hc_rules =
             [
               {
                 rule with
                 Health.r_signal = Health.Quantile ("lat", 1.5);
               };
             ];
         }))

(* ------------------------------------------------------------------ *)
(* Snapshot JSON *)

let test_snapshot_roundtrip () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg ~labels:[ ("node", "0") ] "inv") 3;
  Metrics.register_gauge_fn reg "util" (fun () -> 0.12345678901);
  let h = Metrics.histogram reg ~buckets:[| 0.001; 0.01 |] "lat" in
  Metrics.observe h 0.002;
  Metrics.observe h 0.5;
  let snap = Snapshot.take ~at:(Time.ms 3) reg in
  (* Compact and indented renderings parse back to the same value. *)
  List.iter
    (fun compact ->
      match Snapshot.of_string (Snapshot.to_string ~compact snap) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok snap' ->
        check_bool "roundtrip preserves everything" true (snap' = snap))
    [ true; false ]

let test_snapshot_rejects_garbage () =
  check_bool "not json" true (Result.is_error (Snapshot.of_string "{"));
  check_bool "wrong schema" true
    (Result.is_error (Snapshot.of_string "{\"schema\":\"nope\"}"));
  (* Schemas 1 and 2 carried invocation spans (schema 1 with per-span
     phase times); their exports are refused rather than read as
     schema 3. *)
  List.iter
    (fun v ->
      let schema = Printf.sprintf "eden-metrics/%d" v in
      check_bool (schema ^ " refused") true
        (Snapshot.of_string
           (Printf.sprintf {|{"schema":%S,"at_ns":0,"metrics":[],"spans":[]}|}
              schema)
        = Error (Printf.sprintf "snapshot: unknown schema %S" schema)))
    [ 1; 2 ];
  check_bool "schema 3 accepted" true
    (Result.is_ok
       (Snapshot.of_string
          {|{"schema":"eden-metrics/3","at_ns":0,"metrics":[]}|}))

(* Regression: [edenctl chaos --metrics-out results/run1/snap.json]
   used to die with Sys_error when the directory tree did not exist.
   write_file must create the missing parents. *)
let test_snapshot_write_file_creates_parents () =
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "inv") 7;
  let snap = Snapshot.take ~at:(Time.ms 1) reg in
  let base = Filename.temp_file "eden_obs" "" in
  Sys.remove base;
  let path = Filename.concat (Filename.concat base "a/b") "snap.json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path ];
      List.iter
        (fun d -> try Sys.rmdir d with Sys_error _ -> ())
        [ Filename.dirname path; Filename.concat base "a"; base ])
    (fun () ->
      Snapshot.write_file snap ~path;
      match Snapshot.of_string (In_channel.with_open_text path In_channel.input_all) with
      | Ok snap' -> check_bool "file parses back" true (snap' = snap)
      | Error e -> Alcotest.failf "written file unreadable: %s" e);
  (* Writing to an existing directory still works (idempotent mkdir). *)
  check_bool "cleaned up" true (not (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* Kernel instrumentation *)

let relay_type =
  Typemgr.make_exn ~name:"obs_relay"
    [
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
      Typemgr.operation "spin" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          ctx.compute (Time.us 50);
          reply []);
      Typemgr.operation "relay_get" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* target = cap_arg v in
          let* r = ctx.invoke target ~op:"get" [] in
          reply r);
      Typemgr.operation "relay_get_async" ~mutates:false (fun ctx args ->
          let* v = arg1 args in
          let* target = cap_arg v in
          match Promise.await (ctx.invoke_async target ~op:"get" []) with
          | Some r -> r
          | None -> Error Error.Timeout);
    ]

let with_cluster ?seed ?(n = 3) body =
  let cl = Cluster.default ?seed ~n_nodes:n () in
  Cluster.register_type cl relay_type;
  let result = ref None in
  let _ = Cluster.in_process cl (fun () -> result := Some (body cl)) in
  Cluster.run cl;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "driver did not complete"

(* One invocation as the journal records it: its [Inv_begin] on the
   requesting node and the [Inv_end] of the trace that event roots. *)
type inv = {
  iv_id : int;  (* the [Inv_begin]'s id, which is its trace *)
  iv_op : string;
  iv_caller : int;
  iv_origin : int;
  iv_remote : bool;  (* a [Send] in the trace: the request left the node *)
  iv_outcome : string;
  iv_start : Time.t;
  iv_finish : Time.t;
}

(* Every invocation in [cl]'s timeline, in the order they began. *)
let invocations cl =
  let evs = Timeline.events (Cluster.timeline cl) in
  List.filter_map
    (fun (b : Journal.event) ->
      match b.ev_kind with
      | Journal.Inv_begin { op; caller; _ } ->
        let trace =
          List.filter (fun (e : Journal.event) -> e.ev_trace = b.ev_id) evs
        in
        let outcome, finish =
          match
            List.find_map
              (fun (e : Journal.event) ->
                match e.ev_kind with
                | Journal.Inv_end { outcome; _ } -> Some (outcome, e.ev_at)
                | _ -> None)
              trace
          with
          | Some x -> x
          | None -> Alcotest.failf "invocation #%d never ended" b.ev_id
        in
        Some
          {
            iv_id = b.ev_id;
            iv_op = op;
            iv_caller = caller;
            iv_origin = b.ev_node;
            iv_remote =
              List.exists
                (fun (e : Journal.event) ->
                  match e.ev_kind with Journal.Send _ -> true | _ -> false)
                trace;
            iv_outcome = outcome;
            iv_start = b.ev_at;
            iv_finish = finish;
          }
      | _ -> None)
    evs

let the_invocation cl op =
  match List.filter (fun i -> i.iv_op = op) (invocations cl) with
  | [ i ] -> i
  | l -> Alcotest.failf "expected one %s invocation, got %d" op (List.length l)

let latency_sum cl =
  match
    Snapshot.find (Cluster.metrics_snapshot cl) "eden.invocation_latency_s"
  with
  | Some (Metrics.Histogram v) -> v.Metrics.sum
  | _ -> Alcotest.fail "latency histogram missing"

let test_remote_invocation_latency () =
  with_cluster (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
             (Value.Int 7))
      in
      let eng = Cluster.engine cl in
      let t0 = Engine.now eng in
      ignore
        (ok_or_fail "invoke" (Cluster.invoke cl ~from:0 cap ~op:"spin" []));
      let latency = Time.diff (Engine.now eng) t0 in
      let inv = the_invocation cl "spin" in
      check_int "origin node" 0 inv.iv_origin;
      check_bool "crossed the wire" true inv.iv_remote;
      check_string "outcome" "ok" inv.iv_outcome;
      (* Inv_begin to Inv_end is the observed virtual-time latency,
         which covers the handler's compute, and it is what the
         latency histogram observed. *)
      let journalled = Time.diff inv.iv_finish inv.iv_start in
      check_int "journal latency = observed latency" (Time.to_ns latency)
        (Time.to_ns journalled);
      check_bool "journal latency = histogram sum" true
        (Float.equal (Time.to_sec journalled) (latency_sum cl));
      check_bool "latency covers the handler's compute" true
        Time.(latency >= us 50))

let test_local_invocation () =
  with_cluster (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:0 ~type_name:"obs_relay"
             (Value.Int 1))
      in
      ignore (ok_or_fail "invoke" (Cluster.invoke cl ~from:0 cap ~op:"get" []));
      let inv = the_invocation cl "get" in
      check_bool "local" false inv.iv_remote;
      check_int "origin node" 0 inv.iv_origin;
      check_string "outcome" "ok" inv.iv_outcome;
      check_int "no caller" (-1) inv.iv_caller)

(* A handler on node 0 reads an object on node 1 through [ctx.invoke]
   or [ctx.invoke_async]: the nested invocation's caller is the outer
   invocation's [Inv_begin], even though the outer request came from
   node 2 and the async read runs in a process of its own. *)
let nested_call_links op () =
  with_cluster (fun cl ->
      let a =
        ok_or_fail "create a"
          (Cluster.create_object cl ~node:0 ~type_name:"obs_relay"
             (Value.Int 0))
      in
      let b =
        ok_or_fail "create b"
          (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
             (Value.Int 42))
      in
      (match Cluster.invoke cl ~from:2 a ~op [ Value.Cap b ] with
      | Ok [ Value.Int 42 ] -> ()
      | Ok _ -> Alcotest.fail "unexpected relay result"
      | Error e -> Alcotest.failf "relay: %s" (Error.to_string e));
      let outer = the_invocation cl op and inner = the_invocation cl "get" in
      check_int "the outer call has no caller" (-1) outer.iv_caller;
      check_int "the nested call's caller is the outer call" outer.iv_id
        inner.iv_caller;
      (* The handler runs on node 0, where the nested call begins. *)
      check_int "nested origin is the handler's node" 0 inner.iv_origin;
      check_bool "nested finished inside the outer call" true
        Time.(inner.iv_finish <= outer.iv_finish))

let test_cluster_snapshot_contents () =
  with_cluster (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
             (Value.Int 0))
      in
      for _ = 1 to 5 do
        ignore
          (ok_or_fail "invoke" (Cluster.invoke cl ~from:0 cap ~op:"get" []))
      done;
      let snap = Cluster.metrics_snapshot cl in
      let counter name labels =
        match Snapshot.find snap ~labels name with
        | Some (Metrics.Counter n) -> n
        | _ -> Alcotest.failf "missing counter %s" name
      in
      check_int "invocations from node 0" 5
        (counter "eden.invocations" [ ("node", "0") ]);
      check_int "all remote" 5
        (counter "eden.invocations_remote" [ ("node", "0") ]);
      check_int "dispatches on node 1" 5
        (counter "eden.dispatches" [ ("node", "1") ]);
      check_bool "first call misses the hint cache" true
        (counter "eden.hint_misses" [ ("node", "0") ] >= 1);
      check_bool "later calls hit it" true
        (counter "eden.hint_hits" [ ("node", "0") ] >= 4);
      check_bool "frames crossed segment 0" true
        (counter "net.frames_sent" [ ("segment", "0") ] > 0);
      check_bool "engine events sampled" true
        (match Snapshot.find snap "sim.events" with
        | Some (Metrics.Counter n) -> n > 0
        | _ -> false);
      (match Snapshot.find snap "eden.invocation_latency_s" with
      | Some (Metrics.Histogram v) ->
        check_int "every invocation observed" 5 v.Metrics.count
      | _ -> Alcotest.fail "latency histogram missing");
      (* The journal holds the same five invocations, and their
         begin-to-end times are what the histogram summed. *)
      let invs = invocations cl in
      check_int "invocations journalled" 5 (List.length invs);
      check_bool "journal latencies = histogram sum" true
        (Float.equal
           (List.fold_left
              (fun acc i ->
                acc +. Time.to_sec (Time.diff i.iv_finish i.iv_start))
              0.0 invs)
           (latency_sum cl));
      (* The exported snapshot passes its own round trip. *)
      check_bool "export parses" true
        (Result.is_ok (Snapshot.of_string (Snapshot.to_string snap))))

(* ------------------------------------------------------------------ *)
(* Event journals, trace contexts, timelines, and the trace checker *)

let test_tracectx () =
  let r = Tracectx.root 7 in
  check_int "root trace" 7 (Tracectx.trace r);
  check_int "root parent" 7 (Tracectx.parent r);
  let c = Tracectx.with_parent r ~parent:9 in
  check_int "same trace" 7 (Tracectx.trace c);
  check_int "new parent" 9 (Tracectx.parent c);
  check_bool "equal" true (c = Tracectx.make ~trace:7 ~parent:9)

let test_journal_ring () =
  let sink = Journal.sink () in
  let j = Journal.create sink ~node:0 ~cap:4 in
  for i = 0 to 9 do
    ignore
      (Journal.record j ~at:(Time.ms i) (Journal.Retry { op = "x"; attempt = i }))
  done;
  check_int "recorded counts everything" 10 (Journal.recorded j);
  check_int "overflow counted as dropped" 6 (Journal.dropped j);
  let evs = Journal.events j in
  check_int "ring keeps cap events" 4 (List.length evs);
  check_bool "oldest evicted first, order kept" true
    (List.map (fun e -> e.Journal.ev_id) evs = [ 6; 7; 8; 9 ]);
  (* cap 0 disables retention but still allocates ids from the shared
     sink, so trace contexts stay meaningful. *)
  let j0 = Journal.create sink ~node:1 ~cap:0 in
  let id = Journal.record j0 ~at:Time.zero (Journal.Send { msg = "m"; dst = None }) in
  check_int "sink ids keep advancing" 10 id;
  check_int "nothing retained" 0 (List.length (Journal.events j0));
  check_bool "negative cap rejected" true
    (try
       ignore (Journal.create sink ~node:2 ~cap:(-1));
       false
     with Invalid_argument _ -> true)

(* The ring stores kinds in an encoded form; every constructor must
   survive the round trip to [events] intact. *)
let test_journal_kind_roundtrip () =
  let kinds =
    [
      Journal.Send { msg = "inv_request obj#1.get"; dst = Some 2 };
      Journal.Send { msg = "locate? obj#1"; dst = None };
      Journal.Recv { msg = "inv_reply n0"; src = 3 };
      Journal.Drop { dst = Some 1; msgs = 2 };
      Journal.Drop { dst = None; msgs = 1 };
      Journal.Duplicate { dst = Some 0; msgs = 1 };
      Journal.Delay { dst = None; msgs = 4 };
      Journal.Coalesce { dst = 2; msgs = 6 };
      Journal.Retry { op = "get"; attempt = 2 };
      Journal.Inv_begin { op = "get"; target = "obj#1"; caller = -1 };
      Journal.Inv_begin { op = "get"; target = "obj#1"; caller = 0 };
      Journal.Inv_begin
        { op = "put"; target = "obj#2"; caller = (1 lsl 40) + 12345 };
      Journal.Inv_end { op = "get"; outcome = "ok" };
      Journal.Ckpt_round { target = "obj#1"; version = 3 };
      Journal.Cache_install { target = "obj#1"; epoch = 1 };
      Journal.Cache_invalidate { target = "obj#1"; epoch = 2 };
      Journal.Activate { target = "obj#1"; version = 4 };
      Journal.Alert { rule = "inv-latency-p99"; firing = true };
      Journal.Alert { rule = "retry-ratio"; firing = false };
      Journal.Work_start { op = "get" };
      Journal.Net_flush { dst = 2; msgs = 3 };
      Journal.Net_hold { dst = Some 1; by = Time.us 7 };
      Journal.Net_hold { dst = None; by = Time.ms 2 };
      Journal.Drain_stall { target = "obj#1" };
      Journal.Log { target = "obj#1"; text = "get: ok" };
    ]
  in
  let j = Journal.create (Journal.sink ()) ~node:0 ~cap:64 in
  List.iteri
    (fun i k -> ignore (Journal.record j ~at:(Time.us i) k))
    kinds;
  let back = List.map (fun e -> e.Journal.ev_kind) (Journal.events j) in
  check_bool "all kinds round-trip the ring encoding" true (back = kinds)

(* Alert events obey the same retention accounting as every other
   kind: cap 0 allocates ids but retains and drops nothing; a full
   ring counts exactly the overwritten events as dropped. *)
let test_journal_alert_retention () =
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:0 in
  let first =
    Journal.record j0 ~at:Time.zero
      (Journal.Alert { rule = "r"; firing = true })
  in
  let second =
    Journal.record j0 ~at:(Time.ms 1)
      (Journal.Alert { rule = "r"; firing = false })
  in
  check_int "ids advance at cap 0" (first + 1) second;
  check_int "nothing retained" 0 (List.length (Journal.events j0));
  check_int "cap 0 never counts drops" 0 (Journal.dropped j0);
  check_int "cap 0 records nothing either" 0 (Journal.recorded j0);
  (* Mixed alert/other traffic through a cap-3 ring: 7 records leave
     the newest 3, and dropped = recorded - retained exactly. *)
  let j = Journal.create sink ~node:1 ~cap:3 in
  let kinds =
    [
      Journal.Alert { rule = "a"; firing = true };
      Journal.Retry { op = "get"; attempt = 1 };
      Journal.Alert { rule = "b"; firing = true };
      Journal.Send { msg = "m"; dst = Some 0 };
      Journal.Alert { rule = "a"; firing = false };
      Journal.Recv { msg = "m"; src = 0 };
      Journal.Alert { rule = "b"; firing = false };
    ]
  in
  List.iteri (fun i k -> ignore (Journal.record j ~at:(Time.ms i) k)) kinds;
  check_int "recorded counts everything" 7 (Journal.recorded j);
  check_int "dropped = recorded - retained" 4 (Journal.dropped j);
  let back = List.map (fun e -> e.Journal.ev_kind) (Journal.events j) in
  check_bool "newest three survive, kinds intact" true
    (back
    = [
        Journal.Alert { rule = "a"; firing = false };
        Journal.Recv { msg = "m"; src = 0 };
        Journal.Alert { rule = "b"; firing = false };
      ])

(* A hand-built two-node exchange: send on node 0, causally linked
   recv on node 1.  The assembled timeline is id-sorted, spans both
   nodes, satisfies the checker, and exports a matched s/f flow pair
   in the Chrome trace. *)
let make_exchange () =
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:16 in
  let j1 = Journal.create sink ~node:1 ~cap:16 in
  let s =
    Journal.record j0 ~at:(Time.us 1) (Journal.Send { msg = "m"; dst = Some 1 })
  in
  let ctx = Tracectx.root s in
  let _r =
    Journal.record j1 ~at:(Time.us 3) ~ctx (Journal.Recv { msg = "m"; src = 0 })
  in
  (* Assembly takes journals in any order and sorts by id. *)
  (sink, j0, j1, Timeline.assemble [ j1; j0 ])

let test_timeline_assemble () =
  let _, _, _, tl = make_exchange () in
  check_int "two events" 2 (Timeline.length tl);
  check_bool "id-sorted" true
    (List.map (fun e -> e.Journal.ev_id) (Timeline.events tl) = [ 0; 1 ]);
  check_bool "both nodes present" true (Timeline.nodes tl = [ 0; 1 ]);
  check_int "one trace" 1 (List.length (Timeline.traces tl));
  let chrome = Timeline.to_chrome_string tl in
  let has sub =
    let n = String.length chrome and m = String.length sub in
    let rec go i = i + m <= n && (String.sub chrome i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "flow start exported" true (has {|"ph":"s"|});
  check_bool "flow finish exported" true (has {|"ph":"f"|});
  check_bool "text render non-empty" true (String.length (Timeline.to_text tl) > 0)

let test_checker () =
  let _, _, _, tl = make_exchange () in
  check_int "well-formed exchange passes" 0 (List.length (Check.run tl));
  (* A recv whose parent is not a send on the named source node. *)
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:16 in
  let j1 = Journal.create sink ~node:1 ~cap:16 in
  let p =
    Journal.record j0 ~at:(Time.us 1) (Journal.Retry { op = "x"; attempt = 1 })
  in
  ignore
    (Journal.record j1 ~at:(Time.us 2) ~ctx:(Tracectx.root p)
       (Journal.Recv { msg = "m"; src = 0 }));
  let vs = Check.run (Timeline.assemble [ j0; j1 ]) in
  check_bool "recv-matches-send fires" true
    (List.exists (fun v -> v.Check.v_rule = "recv-matches-send") vs);
  (* An event earlier in virtual time than its causal parent. *)
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:16 in
  let s =
    Journal.record j0 ~at:(Time.us 5) (Journal.Send { msg = "m"; dst = Some 0 })
  in
  ignore
    (Journal.record j0 ~at:(Time.us 2) ~ctx:(Tracectx.root s)
       (Journal.Recv { msg = "m"; src = 0 }));
  let vs = Check.run (Timeline.assemble [ j0 ]) in
  check_bool "causal-time-order fires" true
    (List.exists (fun v -> v.Check.v_rule = "causal-time-order") vs);
  (* Incomplete journals skip the completeness-dependent rules: the
     same broken recv is ignored when [complete:false]. *)
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:16 in
  ignore
    (Journal.record j0 ~at:(Time.us 1)
       ~ctx:(Tracectx.make ~trace:999 ~parent:999)
       (Journal.Recv { msg = "m"; src = 0 }));
  check_int "dangling parent tolerated when incomplete" 0
    (List.length (Check.run ~complete:false (Timeline.assemble [ j0 ])))

(* The kernel's own journals: a short cluster run yields a non-empty,
   checker-clean, multi-node timeline through the public accessors. *)
let test_cluster_journal () =
  with_cluster (fun cl ->
      let cap =
        ok_or_fail "create"
          (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
             (Value.Int 7))
      in
      for _ = 1 to 4 do
        ignore (ok_or_fail "get" (Cluster.invoke cl ~from:0 cap ~op:"get" []))
      done;
      ignore (ok_or_fail "get" (Cluster.invoke cl ~from:2 cap ~op:"get" []));
      let tl = Cluster.timeline cl in
      check_bool "events recorded" true (Timeline.length tl > 0);
      check_int "no drops at default cap" 0 (Cluster.journal_dropped cl);
      check_bool "spans all three nodes" true
        (List.length (Timeline.nodes tl) = 3);
      check_int "invariants hold" 0 (List.length (Check.run tl)));
  (* journal_cap:0 disables retention cluster-wide. *)
  let cl0 = Cluster.default ~journal_cap:0 ~n_nodes:2 () in
  Cluster.register_type cl0 relay_type;
  let _ =
    Cluster.in_process cl0 (fun () ->
        let cap =
          ok_or_fail "create"
            (Cluster.create_object cl0 ~node:0 ~type_name:"obs_relay"
               (Value.Int 0))
        in
        ignore (ok_or_fail "get" (Cluster.invoke cl0 ~from:1 cap ~op:"get" [])))
  in
  Cluster.run cl0;
  check_int "cap 0 retains nothing" 0 (Timeline.length (Cluster.timeline cl0))

(* ------------------------------------------------------------------ *)
(* Critical-path attribution: hand-built traces where every gap's
   category is known in advance, then the profiler over real cluster
   runs. *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* One remote request with a mid-flight injected hold: begin, request
   out (held 3us of its flight), served, reply back, end.  The hold is
   endpoint degradation, so those 3us belong to [service]; the rest of
   both flights is [wire]; and the per-category sums must telescope to
   the 31us end-to-end latency exactly. *)
let test_attribution () =
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:64 in
  let j1 = Journal.create sink ~node:1 ~cap:64 in
  let b =
    Journal.record j0 ~at:Time.zero
      (Journal.Inv_begin { op = "get"; target = "obj<1.1>"; caller = -1 })
  in
  let ctx = Tracectx.root b in
  let s =
    Journal.record j0 ~at:(Time.us 10) ~ctx
      (Journal.Send { msg = "inv_request obj<1.1>.get"; dst = Some 1 })
  in
  let sctx = Tracectx.with_parent ctx ~parent:s in
  ignore
    (Journal.record j0 ~at:(Time.us 12) ~ctx:sctx
       (Journal.Net_hold { dst = Some 1; by = Time.us 3 }));
  let r =
    Journal.record j1 ~at:(Time.us 20) ~ctx:sctx
      (Journal.Recv { msg = "inv_request obj<1.1>.get"; src = 0 })
  in
  let q =
    Journal.record j1 ~at:(Time.us 26)
      ~ctx:(Tracectx.with_parent ctx ~parent:r)
      (Journal.Send { msg = "inv_reply obj<1.1>"; dst = Some 0 })
  in
  let r2 =
    Journal.record j0 ~at:(Time.us 30)
      ~ctx:(Tracectx.with_parent ctx ~parent:q)
      (Journal.Recv { msg = "inv_reply obj<1.1>"; src = 1 })
  in
  ignore
    (Journal.record j0 ~at:(Time.us 31)
       ~ctx:(Tracectx.with_parent ctx ~parent:r2)
       (Journal.Inv_end { op = "get"; outcome = "ok" }));
  let tl = Timeline.assemble [ j1; j0 ] in
  let bds = Critical.breakdowns (Timeline.events tl) in
  check_int "one complete request" 1 (List.length bds);
  let bd = List.hd bds in
  check_string "op" "get" bd.Critical.bd_op;
  check_string "target" "obj<1.1>" bd.Critical.bd_target;
  check_string "outcome" "ok" bd.Critical.bd_outcome;
  check_int "origin node" 0 bd.Critical.bd_node;
  check_int "end-to-end total" 31_000 bd.Critical.bd_total_ns;
  check_int "parts telescope to the total" bd.Critical.bd_total_ns
    (Critical.sum_parts bd);
  (* service: send prep 10 + injected hold 3 + server 6 + delivery 1 *)
  check_int "service" 20_000 (Critical.part bd Critical.Service);
  (* wire: pre-hold 2 + request flight 5 + reply flight 4 *)
  check_int "wire" 11_000 (Critical.part bd Critical.Wire);
  check_bool "dominant is service" true
    (Critical.dominant bd = Critical.Service);
  (* All eight invariants hold on this trace — in particular rule 8
     (attribution-complete) evaluated the breakdown above and agreed. *)
  check_int "checker-clean incl. attribution-complete" 0
    (List.length (Check.run tl))

(* Directory-class messages, retry backoff, and the timed-out tail:
   each gap lands in its documented category.  (Kept off the checker:
   the events are fabricated on one journal, not a real exchange.) *)
let test_attribution_categories () =
  let sink = Journal.sink () in
  let j = Journal.create sink ~node:0 ~cap:64 in
  let b =
    Journal.record j ~at:Time.zero
      (Journal.Inv_begin { op = "get"; target = "obj<1.9>"; caller = -1 })
  in
  let ctx = Tracectx.root b in
  let d =
    Journal.record j ~at:(Time.us 2) ~ctx
      (Journal.Send { msg = "dir? obj<1.9>"; dst = Some 2 })
  in
  let dr =
    Journal.record j ~at:(Time.us 5)
      ~ctx:(Tracectx.with_parent ctx ~parent:d)
      (Journal.Recv { msg = "dir! obj<1.9>@1"; src = 2 })
  in
  let t =
    Journal.record j ~at:(Time.us 6)
      ~ctx:(Tracectx.with_parent ctx ~parent:dr)
      (Journal.Retry { op = "get"; attempt = 1 })
  in
  let s2 =
    Journal.record j ~at:(Time.us 9)
      ~ctx:(Tracectx.with_parent ctx ~parent:t)
      (Journal.Send { msg = "inv_request obj<1.9>.get"; dst = Some 1 })
  in
  ignore
    (Journal.record j ~at:(Time.us 10)
       ~ctx:(Tracectx.with_parent ctx ~parent:s2)
       (Journal.Inv_end { op = "get"; outcome = "timeout" }));
  let bd =
    match Critical.attribute (Journal.events j) with
    | Some bd -> bd
    | None -> Alcotest.fail "trace did not attribute"
  in
  check_int "locate question + answer -> directory" 5_000
    (Critical.part bd Critical.Directory);
  check_int "post-retry sleep -> backoff" 3_000
    (Critical.part bd Critical.Backoff);
  check_int "retry decision + timed-out tail -> wait" 2_000
    (Critical.part bd Critical.Wait);
  check_int "still telescopes" bd.Critical.bd_total_ns
    (Critical.sum_parts bd);
  check_int "total" 10_000 bd.Critical.bd_total_ns;
  check_bool "dominant is directory" true
    (Critical.dominant bd = Critical.Directory)

(* Profile aggregation over several traces: counts, nearest-rank
   quantiles, folded stacks, and the skipped tally for a request that
   never completed. *)
let test_profile_unit () =
  let sink = Journal.sink () in
  let j = Journal.create sink ~node:0 ~cap:64 in
  let request ~start ~dur =
    let b =
      Journal.record j ~at:start
        (Journal.Inv_begin { op = "get"; target = "obj<0.1>"; caller = -1 })
    in
    ignore
      (Journal.record j
         ~at:(Time.add start dur)
         ~ctx:(Tracectx.root b)
         (Journal.Inv_end { op = "get"; outcome = "ok" }))
  in
  request ~start:Time.zero ~dur:(Time.us 10);
  request ~start:(Time.us 100) ~dur:(Time.us 20);
  request ~start:(Time.us 200) ~dur:(Time.us 30);
  (* A begun-but-never-finished request is skipped, not guessed at. *)
  ignore
    (Journal.record j ~at:(Time.us 300)
       (Journal.Inv_begin { op = "get"; target = "obj<0.1>"; caller = -1 }));
  let pf = Profile.of_timeline (Journal.events j) in
  check_int "requests" 3 (Profile.requests pf);
  check_int "skipped" 1 (Profile.skipped pf);
  check_int "total" 60_000 (Profile.total_ns pf);
  check_bool "all service" true (Profile.share pf Critical.Service = 1.0);
  check_bool "dominant" true (Profile.dominant pf = Critical.Service);
  let total_at q =
    match Profile.quantile pf q with
    | Some bd -> bd.Critical.bd_total_ns
    | None -> Alcotest.fail "quantile empty"
  in
  (* Nearest-rank over {10, 20, 30}us: a selection, never an
     interpolation. *)
  check_int "p50 selects the middle request" 20_000 (total_at 0.5);
  check_int "p95 selects the slowest" 30_000 (total_at 0.95);
  check_int "p999 too" 30_000 (total_at 0.999);
  check_string "folded stacks aggregate per target.op and category"
    "eden;obj<0.1>.get;service 60000"
    (String.trim (Profile.to_folded pf));
  let json = Json.to_string ~compact:true (Profile.to_json pf) in
  check_bool "json carries the counts" true (contains json "\"requests\":3");
  (* Same events, same bytes. *)
  check_string "rendering is deterministic" (Profile.to_text pf)
    (Profile.to_text (Profile.of_timeline (Journal.events j)))

(* A cluster on default options journals the kinds the attribution
   walk sharpens its categories with, the profiler attributes real
   requests, and all eight invariants — attribution-complete included
   — hold over the kernel's own trace.  On a coalescing net, each
   journalled [Coalesce {msgs = k}] is followed at once on its node by
   the batch's [k] [Net_flush] records, and a [Net_flush] of a batch
   appears nowhere else. *)
let attribution_run ?coalesce ~burst () =
  let cl = Cluster.default ~seed:7L ?coalesce ~n_nodes:3 () in
  Cluster.register_type cl relay_type;
  let _ =
    Cluster.in_process cl (fun () ->
        let cap =
          ok_or_fail "create"
            (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
               (Value.Int 7))
        in
        for i = 1 to 6 do
          ignore
            (ok_or_fail "get"
               (Cluster.invoke cl ~from:(i mod 3) cap ~op:"get" []))
        done;
        (* Requests issued together from one node share its queue to
           the home. *)
        let pending =
          List.init burst (fun _ ->
              Cluster.invoke_async cl ~from:0 cap ~op:"get" [])
        in
        List.iter
          (fun p ->
            match Promise.await p with
            | Some r -> ignore (ok_or_fail "burst get" r)
            | None -> Alcotest.fail "burst get unanswered")
          pending)
  in
  Cluster.run cl;
  check_int "nothing dropped" 0 (Cluster.journal_dropped cl);
  let tl = Cluster.timeline cl in
  check_bool "attribution kinds recorded" true
    (List.exists
       (fun e ->
         match e.Journal.ev_kind with
         | Journal.Work_start _ -> true
         | _ -> false)
       (Timeline.events tl));
  let bds = Critical.breakdowns (Timeline.events tl) in
  check_bool "requests attributed" true (bds <> []);
  check_int "all eight invariants hold" 0 (List.length (Check.run tl));
  cl

let test_default_cluster_attribution () =
  ignore (attribution_run ~burst:0 ());
  let cl = attribution_run ~coalesce:Transport.default_coalesce ~burst:6 () in
  let batches = ref 0 in
  List.iter
    (fun j ->
      (* [left] flushes of the batch whose Coalesce came last are still
         owed, each with that batch's destination and size. *)
      let left, _ =
        List.fold_left
          (fun (left, batch) e ->
            match e.Journal.ev_kind, batch with
            | Journal.Coalesce { dst; msgs }, _ ->
              check_int "previous batch flushed in full" 0 left;
              incr batches;
              (msgs, Some (dst, msgs))
            | Journal.Net_flush { dst; msgs }, Some b when left > 0 ->
              check_bool "flush of the batch just announced" true
                (b = (dst, msgs));
              (left - 1, batch)
            | Journal.Net_flush { msgs; _ }, _ ->
              check_int "unannounced flushes are lone messages" 1 msgs;
              (0, None)
            | _ ->
              check_int "batch flushes follow their Coalesce at once" 0 left;
              (0, None))
          (0, None) (Journal.events j)
      in
      check_int "last batch flushed in full" 0 left)
    (Cluster.journals cl);
  check_bool "batches coalesced" true (!batches > 0)

(* Cap pressure: wrap the ring mid-run and the machinery degrades
   honestly — completeness gating skips the dependent rules (so
   nothing false-fires on the truncated record), truncated requests
   are skipped rather than misattributed, and whatever survives whole
   still attributes exactly. *)
let test_journal_cap_pressure () =
  let cl = Cluster.default ~seed:11L ~journal_cap:24 ~n_nodes:3 () in
  Cluster.register_type cl relay_type;
  let _ =
    Cluster.in_process cl (fun () ->
        let cap =
          ok_or_fail "create"
            (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
               (Value.Int 7))
        in
        for _ = 1 to 12 do
          ignore (ok_or_fail "get" (Cluster.invoke cl ~from:0 cap ~op:"get" []))
        done)
  in
  Cluster.run cl;
  let tl = Cluster.timeline cl in
  check_bool "ring wrapped" true (Cluster.journal_dropped cl > 0);
  check_int "no false positives on a truncated record" 0
    (List.length (Check.run ~complete:false tl));
  let pf = Profile.of_timeline tl in
  check_bool "profile still renders" true
    (String.length (Profile.to_text pf) > 0);
  List.iter
    (fun bd ->
      check_int "survivors attribute exactly" bd.Critical.bd_total_ns
        (Critical.sum_parts bd))
    (Critical.breakdowns (Timeline.events tl))

(* Every analysis export of one seeded run whose rings wrapped, folded
   into one digest: the text timeline, the Chrome JSON, the checker's
   violations (complete and not: a wrapped record gives the complete
   rules plenty to report) and the profile's text, JSON and folded
   stacks.  The digest is pinned, so a change to how the analyses read
   the journals that changes any byte of any export fails here, not
   only a same-build comparison of two runs. *)
let analysis_exports_digest () =
  let cl = Cluster.default ~seed:23L ~journal_cap:40 ~n_nodes:4 () in
  Cluster.register_type cl relay_type;
  let _ =
    Cluster.in_process cl (fun () ->
        let caps =
          Array.init 3 (fun i ->
              ok_or_fail "create"
                (Cluster.create_object cl ~node:(i + 1) ~type_name:"obs_relay"
                   (Value.Int i)))
        in
        for i = 1 to 30 do
          let cap = caps.(i mod 3) and from = i mod 4 in
          let op, args =
            if i mod 4 = 0 then
              ("relay_get", [ Value.Cap caps.((i + 1) mod 3) ])
            else ((if i mod 5 = 0 then "spin" else "get"), [])
          in
          ignore (ok_or_fail "invoke" (Cluster.invoke cl ~from cap ~op args))
        done)
  in
  Cluster.run cl;
  check_bool "rings wrapped" true (Cluster.journal_dropped cl > 0);
  let tl = Cluster.timeline cl in
  let pf = Profile.of_timeline tl in
  check_bool "requests attributed" true (Profile.requests pf > 0);
  check_bool "complete rules report on a wrapped record" true
    (Check.run ~complete:true tl <> []);
  let violations complete =
    Json.to_string ~compact:true
      (Check.violations_to_json (Check.run ~complete tl))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Timeline.to_text tl;
            Timeline.to_chrome_string tl;
            violations false;
            violations true;
            Profile.to_text pf;
            Json.to_string ~compact:true (Profile.to_json pf);
            Profile.to_folded pf;
          ]))

let test_analysis_exports_pinned () =
  check_string "analysis exports digest" "281bfb04848d5ad1c1d3f1f9e57d846e"
    (analysis_exports_digest ())

(* The same exports over a run the size of the host benchmark's: eight
   nodes under a closed-loop load — two clients per node, each issuing
   its next request when the last returns, a quarter of them nested
   relays — stopped mid-load once every journal ring has wrapped, so
   the timeline keeps 32,768 events and ends with requests in flight.
   Pinned, so a rewrite of the analyses' read path must leave every
   byte of every export as it was. *)
let closed_loop_exports_digest () =
  let cl = Cluster.default ~seed:31L ~n_nodes:8 () in
  Cluster.register_type cl relay_type;
  let rng = Splitmix.create 31L in
  let caps = ref [||] in
  let client from () =
    for _ = 1 to 400 do
      let arr = !caps in
      let cap = arr.(Splitmix.int rng (Array.length arr)) in
      let op, args =
        match Splitmix.int rng 4 with
        | 0 ->
          ("relay_get", [ Value.Cap arr.(Splitmix.int rng (Array.length arr)) ])
        | 1 -> ("spin", [])
        | _ -> ("get", [])
      in
      (* Under this load some locates time out: a failed request is
         part of what the analyses read. *)
      ignore (Cluster.invoke cl ~from cap ~op args)
    done
  in
  let _ =
    Cluster.in_process cl (fun () ->
        caps :=
          Array.init 16 (fun i ->
              ok_or_fail "create"
                (Cluster.create_object cl ~node:(i mod 8) ~type_name:"obs_relay"
                   (Value.Int i)));
        for c = 0 to 15 do
          ignore (Cluster.in_process cl (client (c mod 8)))
        done)
  in
  (* Stopped mid-load, so some requests are still in flight. *)
  Cluster.run ~until:(Time.s 4) cl;
  check_bool "rings wrapped" true (Cluster.journal_dropped cl > 0);
  let tl = Cluster.timeline cl in
  check_bool "at least 30k events retained" true (Timeline.length tl >= 30_000);
  let pf = Profile.of_timeline tl in
  check_bool "requests attributed" true (Profile.requests pf > 0);
  check_bool "some traces skipped" true (Profile.skipped pf > 0);
  let violations complete =
    Json.to_string ~compact:true
      (Check.violations_to_json (Check.run ~complete tl))
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Timeline.to_text tl;
            Timeline.to_chrome_string ~extra:(Profile.chrome_extra pf) tl;
            violations false;
            violations true;
            Profile.to_text pf;
            Json.to_string ~compact:true (Profile.to_json pf);
            Profile.to_folded pf;
          ]))

let test_closed_loop_exports_pinned () =
  check_string "closed-loop analysis exports digest"
    "43fb066e39cbe0569873aa0af9698430"
    (closed_loop_exports_digest ())

(* Failed invariants are reported by name, in both renderings — a CI
   log or a JSON consumer can tell *which* rule broke without counting
   lines against the documentation. *)
let test_check_violation_names () =
  let sink = Journal.sink () in
  let j0 = Journal.create sink ~node:0 ~cap:16 in
  let j1 = Journal.create sink ~node:1 ~cap:16 in
  let p =
    Journal.record j0 ~at:(Time.us 1) (Journal.Retry { op = "x"; attempt = 1 })
  in
  ignore
    (Journal.record j1 ~at:(Time.us 2) ~ctx:(Tracectx.root p)
       (Journal.Recv { msg = "m"; src = 0 }));
  let vs = Check.run (Timeline.assemble [ j0; j1 ]) in
  check_bool "violations found" true (vs <> []);
  List.iter
    (fun v ->
      let txt = Format.asprintf "%a" Check.pp_violation v in
      check_bool "text names the rule" true
        (contains txt ("[" ^ v.Check.v_rule ^ "]")))
    vs;
  let json = Json.to_string ~compact:true (Check.violations_to_json vs) in
  check_bool "json names the rule" true
    (contains json "\"rule\":\"recv-matches-send\"")

(* ------------------------------------------------------------------ *)
(* The health plane wired through a cluster: sampler ticks on virtual
   time, transitions journalled on node 0, hot objects tracked, and
   the whole report a pure function of the seed. *)

let health_test_config =
  {
    Health.hc_tick = Time.ms 1;
    hc_short = 1;
    hc_long = 2;
    hc_rules =
      [
        {
          Health.r_name = "inv-rate";
          r_signal = Health.Rate "eden.invocations";
          r_cmp = Health.Above;
          r_threshold = 0.0;
        };
      ];
  }

let run_health_cluster seed =
  let cl =
    Cluster.default ~seed ~health:health_test_config ~n_nodes:3 ()
  in
  Cluster.register_type cl relay_type;
  let target = ref "" in
  let _ =
    Cluster.in_process cl (fun () ->
        let cap =
          ok_or_fail "create"
            (Cluster.create_object cl ~node:1 ~type_name:"obs_relay"
               (Value.Int 7))
        in
        target := Eden_kernel.Name.to_string (Eden_kernel.Capability.name cap);
        for _ = 1 to 5 do
          ignore
            (ok_or_fail "get" (Cluster.invoke cl ~from:0 cap ~op:"get" []));
          Engine.delay (Time.ms 2)
        done;
        (* Quiet tail: both windows drain and the rule clears. *)
        Engine.delay (Time.ms 10))
  in
  Cluster.run cl;
  (cl, !target)

let test_cluster_health () =
  let cl, target = run_health_cluster 7L in
  let h =
    match Cluster.health cl with
    | Some h -> h
    | None -> Alcotest.fail "health plane not enabled"
  in
  check_bool "sampler ticked" true (Health.ticks h > 10);
  check_bool "fired and cleared" true (Health.transitions h >= 2);
  check_int "quiet at the end" 0 (Health.firing h);
  (* Transitions surface as metrics alongside everything else. *)
  let samples = Metrics.sample (Cluster.metrics cl) in
  (match Metrics.find samples "eden.health.transitions" with
  | Some (Metrics.Counter n) ->
    check_int "transitions counter matches" (Health.transitions h) n
  | _ -> Alcotest.fail "eden.health.transitions not exported");
  (match Metrics.find samples "eden.health.ticks" with
  | Some (Metrics.Counter n) ->
    check_int "ticks counter matches" (Health.ticks h) n
  | _ -> Alcotest.fail "eden.health.ticks not exported");
  (* Every transition is a causally traceable journal event on node 0,
     visible in the merged timeline. *)
  let alerts =
    List.filter
      (fun e ->
        match e.Journal.ev_kind with Journal.Alert _ -> true | _ -> false)
      (Timeline.events (Cluster.timeline cl))
  in
  check_int "journalled transitions" (Health.transitions h)
    (List.length alerts);
  check_bool "alerts recorded on node 0" true
    (List.for_all (fun e -> e.Journal.ev_node = 0) alerts);
  check_bool "first transition is a rise" true
    (match (List.hd alerts).Journal.ev_kind with
    | Journal.Alert { rule = "inv-rate"; firing } -> firing
    | _ -> false);
  check_int "timeline still checker-clean" 0
    (List.length (Check.run (Cluster.timeline cl)));
  (* The requester's sketch saw the invoked object. *)
  check_bool "hot object tracked at the requester" true
    (List.exists
       (fun e -> e.Topk.e_key = target)
       (Cluster.hot_objects cl 0));
  check_bool "rollup sees it too" true
    (List.exists
       (fun e -> e.Topk.e_key = target)
       (Cluster.hot_objects_rollup cl ()));
  (* Same seed, same bytes: report and alert stream are deterministic. *)
  let cl2, _ = run_health_cluster 7L in
  let h2 = Option.get (Cluster.health cl2) in
  check_string "report byte-identical across same-seed runs"
    (Health.report h) (Health.report h2);
  check_string "health JSON byte-identical"
    (Json.to_string (Health.to_json h))
    (Json.to_string (Health.to_json h2))

(* A rule over a series the cluster never publishes, or publishes as
   another kind, reads nothing and so never fires: every series the
   default rules name must be in a default cluster's snapshot, as the
   kind the rule reads. *)
let test_default_rules_published () =
  let cl =
    Cluster.default ~health:Health.default_config ~n_nodes:3 ()
  in
  let snap = Cluster.metrics_snapshot cl in
  let published name is_kind =
    List.exists
      (fun (s : Metrics.sample) ->
        String.equal s.s_name name && is_kind s.s_value)
      snap.Snapshot.metrics
  in
  let counter = function Metrics.Counter _ -> true | _ -> false in
  let gauge = function Metrics.Gauge _ -> true | _ -> false in
  let histogram = function Metrics.Histogram _ -> true | _ -> false in
  List.iter
    (fun (r : Health.rule) ->
      let series =
        match r.r_signal with
        | Health.Rate n -> [ (n, counter) ]
        | Health.Ratio (a, b) | Health.Share (a, b) ->
          [ (a, counter); (b, counter) ]
        | Health.Quantile (n, _) -> [ (n, histogram) ]
        | Health.Gauge_max n -> [ (n, gauge) ]
      in
      List.iter
        (fun (name, is_kind) ->
          check_bool
            (Printf.sprintf "%s reads %s" r.r_name name)
            true (published name is_kind))
        series)
    Health.default_config.hc_rules

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "registry basics" `Quick test_registry_basics;
          Alcotest.test_case "sample determinism" `Quick
            test_sample_determinism;
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "guards and filtered iter" `Quick
            test_metrics_guards;
        ] );
      ( "health",
        [
          Alcotest.test_case "window basics" `Quick test_window_basics;
          Alcotest.test_case "windowed quantile" `Quick
            test_window_hist_quantile;
          Alcotest.test_case "windowed quantile edges" `Quick
            test_window_hist_quantile_edges;
          Alcotest.test_case "top-k sketch" `Quick test_topk_sketch;
          Alcotest.test_case "watchdog rules" `Quick test_health_unit;
          Alcotest.test_case "cluster health plane" `Quick
            test_cluster_health;
          Alcotest.test_case "default rules read published series" `Quick
            test_default_rules_published;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "json roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_snapshot_rejects_garbage;
          Alcotest.test_case "write_file creates parents" `Quick
            test_snapshot_write_file_creates_parents;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "remote span = latency" `Quick
            test_remote_invocation_latency;
          Alcotest.test_case "local span" `Quick
            test_local_invocation;
          Alcotest.test_case "parent links" `Quick
            (nested_call_links "relay_get");
          Alcotest.test_case "parent links, async" `Quick
            (nested_call_links "relay_get_async");
          Alcotest.test_case "snapshot contents" `Quick
            test_cluster_snapshot_contents;
        ] );
      ( "journal",
        [
          Alcotest.test_case "trace contexts" `Quick test_tracectx;
          Alcotest.test_case "ring semantics" `Quick test_journal_ring;
          Alcotest.test_case "kind round-trip" `Quick
            test_journal_kind_roundtrip;
          Alcotest.test_case "alert retention accounting" `Quick
            test_journal_alert_retention;
          Alcotest.test_case "timeline assembly" `Quick
            test_timeline_assemble;
          Alcotest.test_case "checker verdicts" `Quick test_checker;
          Alcotest.test_case "violations named in text and JSON" `Quick
            test_check_violation_names;
          Alcotest.test_case "cluster journals" `Quick test_cluster_journal;
        ] );
      ( "profile",
        [
          Alcotest.test_case "attribution telescopes" `Quick
            test_attribution;
          Alcotest.test_case "category classification" `Quick
            test_attribution_categories;
          Alcotest.test_case "profile aggregation" `Quick test_profile_unit;
          Alcotest.test_case "default cluster attribution" `Quick
            test_default_cluster_attribution;
          Alcotest.test_case "cap pressure degrades honestly" `Quick
            test_journal_cap_pressure;
          Alcotest.test_case "analysis exports pinned" `Quick
            test_analysis_exports_pinned;
          Alcotest.test_case "closed-loop analysis exports pinned" `Quick
            test_closed_loop_exports_pinned;
        ] );
    ]
