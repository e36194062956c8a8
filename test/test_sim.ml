(* Tests for the discrete-event engine and its synchronisation
   primitives.  These pin down the semantics the Eden kernel relies on:
   deterministic ordering, hand-off wakeups, timeouts, kills. *)

open Eden_util
open Eden_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let t_ns n = Time.ns n
let t_ms n = Time.ms n

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let test_clock_advances () =
  let eng = Engine.create () in
  let seen = ref [] in
  let _ =
    Engine.spawn eng (fun () ->
        Engine.delay (t_ms 5);
        seen := Time.to_ns (Engine.now eng) :: !seen;
        Engine.delay (t_ms 5);
        seen := Time.to_ns (Engine.now eng) :: !seen)
  in
  Engine.run eng;
  Alcotest.(check (list int))
    "times" [ 10_000_000; 5_000_000 ] !seen

let test_same_time_fifo () =
  (* Events scheduled for the same instant run in schedule order. *)
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule eng ~after:(t_ms 1) (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_interleaving_deterministic () =
  let run_once () =
    let eng = Engine.create ~seed:9L () in
    let log = Buffer.create 64 in
    let worker tag gap =
      ignore
        (Engine.spawn eng ~name:tag (fun () ->
             for _ = 1 to 3 do
               Engine.delay gap;
               Buffer.add_string log tag
             done))
    in
    worker "a" (t_ms 2);
    worker "b" (t_ms 3);
    Engine.run eng;
    Buffer.contents log
  in
  (* a ticks at 2,4,6 ms; b at 3,6,9 ms.  At t=6ms b's resume event was
     scheduled earlier (at t=3ms) than a's (at t=4ms), so b runs first. *)
  Alcotest.(check string) "deterministic" (run_once ()) (run_once ());
  Alcotest.(check string) "expected interleaving" "ababab" (run_once ())

let test_run_until_truncates () =
  let eng = Engine.create () in
  let count = ref 0 in
  let _ =
    Engine.spawn eng (fun () ->
        for _ = 1 to 100 do
          Engine.delay (t_ms 1);
          incr count
        done)
  in
  Engine.run ~until:(t_ms 10) eng;
  check_int "only 10 ticks" 10 !count;
  check_int "clock at limit" 10_000_000 (Time.to_ns (Engine.now eng));
  (* Resuming the run finishes the remaining work. *)
  Engine.run eng;
  check_int "completed" 100 !count

let test_spawn_at () =
  let eng = Engine.create () in
  let fired = ref Time.zero in
  let _ =
    Engine.spawn eng ~at:(t_ms 7) (fun () -> fired := Engine.now eng)
  in
  Engine.run eng;
  check_int "starts at 7ms" 7_000_000 (Time.to_ns !fired)

let test_zero_delay_interleaves () =
  let eng = Engine.create () in
  let order = ref [] in
  let mk tag =
    ignore
      (Engine.spawn eng (fun () ->
           order := (tag ^ "1") :: !order;
           Engine.delay Time.zero;
           order := (tag ^ "2") :: !order))
  in
  mk "a";
  mk "b";
  Engine.run eng;
  Alcotest.(check (list string))
    "zero delay alternates" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !order)

let test_run_reentrancy_guarded () =
  let eng = Engine.create () in
  let caught = ref false in
  let _ =
    Engine.spawn eng (fun () ->
        match Engine.run eng with
        | () -> ()
        | exception Invalid_argument _ -> caught := true)
  in
  Engine.run eng;
  check_bool "nested run rejected" true !caught

let test_outside_process_errors () =
  Alcotest.check_raises "delay outside"
    (Invalid_argument "Engine.delay: called outside a process") (fun () ->
      Engine.delay (t_ms 1));
  Alcotest.check_raises "self outside"
    (Invalid_argument "Engine.self: called outside a process") (fun () ->
      ignore (Engine.self ()))

let test_self_and_alive () =
  let eng = Engine.create () in
  let inner = ref None in
  let pid =
    Engine.spawn eng ~name:"me" (fun () ->
        inner := Some (Engine.self ());
        Engine.delay (t_ms 1))
  in
  check_bool "alive before run" true (Engine.alive eng pid);
  Engine.run eng;
  (match !inner with
  | Some p -> check_bool "self is pid" true (Engine.Pid.equal p pid)
  | None -> Alcotest.fail "body did not run");
  check_bool "dead after" false (Engine.alive eng pid)

(* ------------------------------------------------------------------ *)
(* Kill *)

let test_kill_blocked_runs_finalisers () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let cleaned = ref false in
  let victim =
    Engine.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> ignore (Condition.await cond)))
  in
  Engine.schedule eng ~after:(t_ms 1) (fun () -> Engine.kill eng victim);
  Engine.run eng;
  check_bool "finaliser ran" true !cleaned;
  check_bool "dead" false (Engine.alive eng victim)

let test_kill_before_start () =
  let eng = Engine.create () in
  let ran = ref false in
  let victim = Engine.spawn eng ~at:(t_ms 5) (fun () -> ran := true) in
  Engine.schedule eng (fun () -> Engine.kill eng victim);
  Engine.run eng;
  check_bool "never ran" false !ran

let test_self_kill () =
  let eng = Engine.create () in
  let after = ref false in
  let reached_protect = ref false in
  let _ =
    Engine.spawn eng (fun () ->
        Fun.protect
          ~finally:(fun () -> reached_protect := true)
          (fun () ->
            Engine.kill eng (Engine.self ());
            after := true))
  in
  Engine.run eng;
  check_bool "code after self-kill skipped" false !after;
  check_bool "finaliser ran" true !reached_protect

let test_kill_idempotent () =
  let eng = Engine.create () in
  let victim = Engine.spawn eng (fun () -> Engine.delay (t_ms 10)) in
  Engine.schedule eng ~after:(t_ms 1) (fun () ->
      Engine.kill eng victim;
      Engine.kill eng victim);
  Engine.run eng;
  check_bool "dead" false (Engine.alive eng victim)

let test_kill_then_wake_is_noop () =
  (* A process killed while blocked must not be resumed by a later
     signal on the same condition. *)
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let resumed = ref false in
  let victim =
    Engine.spawn eng (fun () ->
        ignore (Condition.await cond);
        resumed := true)
  in
  Engine.schedule eng ~after:(t_ms 1) (fun () ->
      Engine.kill eng victim;
      Condition.signal cond);
  Engine.run eng;
  check_bool "not resumed" false !resumed

(* ------------------------------------------------------------------ *)
(* Schedule fingerprint *)

(* A fixed-seed scenario that touches every way an event enters the
   heap: process starts (one killed before it starts), delays including
   zero, equal-time ties, timed waits that expire and timed waits woken
   first, kills of a scheduled and of a blocked process, plain
   callbacks, a stall at idle, and the periodic sampler.  Every piece of
   code the engine dispatches folds (clock, who) into a hash, and the
   final event count, clock and process counts are folded in last, so
   any change to the order or timing of events changes the value.
   [seen] counts the paths taken, so the test can check that each one
   was exercised. *)
let schedule_fingerprint () =
  let seen = Hashtbl.create 8 in
  let count what = Option.value ~default:0 (Hashtbl.find_opt seen what) in
  let saw what = Hashtbl.replace seen what (1 + count what) in
  let eng = Engine.create ~seed:7L () in
  let rng = Engine.fork_rng eng in
  let h = ref 0x5eed in
  let mix x = h := ((!h * 1_000_003) lxor x) land max_int in
  let note who =
    mix (Time.to_ns (Engine.now eng));
    mix who
  in
  let here () = note (Engine.Pid.to_int (Engine.self ())) in
  let waiting = Queue.create () in
  let sleeper () =
    here ();
    for _ = 1 to 8 do
      let timeout = Time.us (1 + Splitmix.int rng 40) in
      (match Engine.suspend ~timeout (fun hd -> Queue.push hd waiting) with
      | Engine.Woken ->
        saw "woken";
        mix 1
      | Engine.Timed_out ->
        saw "timed out";
        mix 2);
      here ()
    done
  in
  for _ = 1 to 4 do
    ignore (Engine.spawn eng ~name:"sleeper" sleeper)
  done;
  let waker () =
    for _ = 1 to 40 do
      (* Zero delays included: a gap of 0 re-queues at the same instant. *)
      let gap = Splitmix.int rng 12 in
      if gap = 0 then saw "zero delay";
      Engine.delay (Time.us gap);
      (match Queue.take_opt waiting with
      | Some hd -> Engine.wake eng hd
      | None -> ());
      here ()
    done
  in
  ignore (Engine.spawn eng ~name:"waker" waker);
  (* Equal-time ties: three tickers in lock step, plus callbacks queued
     for the same instants. *)
  for _ = 1 to 3 do
    ignore
      (Engine.spawn eng ~name:"ticker" ~at:(Time.us 10) (fun () ->
           for _ = 1 to 6 do
             here ();
             Engine.delay (Time.us 5);
             Engine.delay Time.zero
           done))
  done;
  for i = 1 to 5 do
    Engine.schedule eng ~after:(Time.us (5 * i)) (fun () -> note (-1))
  done;
  (* Killed before it starts (Sched). *)
  let unborn =
    Engine.spawn eng ~name:"unborn" ~at:(Time.us 30) (fun () ->
        saw "unborn ran";
        here ())
  in
  (* Woken, then killed before its resume event runs (Sched again). *)
  let cond = Condition.create eng in
  let woken_victim =
    Engine.spawn eng ~name:"woken" (fun () ->
        Fun.protect
          ~finally:(fun () ->
            saw "sched killed";
            note (-3))
          (fun () ->
            ignore (Condition.await cond);
            saw "woken ran";
            here ()))
  in
  (* Blocked with no timeout, killed while blocked. *)
  let blocked_victim =
    Engine.spawn eng ~name:"blocked" (fun () ->
        Fun.protect
          ~finally:(fun () ->
            saw "blocked killed";
            note (-4))
          (fun () -> ignore (Engine.suspend (fun _ -> ()))))
  in
  (* Stalled at idle: resumed with [Stalled_waiting], which it catches. *)
  ignore
    (Engine.spawn eng ~name:"stalled" (fun () ->
         match Engine.suspend (fun _ -> ()) with
         | exception Engine.Stalled_waiting ->
           saw "stalled";
           note (-5)
         | _ -> ()));
  ignore
    (Engine.spawn eng ~name:"killer" (fun () ->
         Engine.delay (Time.us 20);
         Engine.kill eng unborn;
         Condition.signal cond;
         Engine.kill eng woken_victim;
         Engine.delay (Time.us 7);
         Engine.kill eng blocked_victim;
         here ()));
  Engine.every eng ~interval:(Time.us 9) (fun () ->
      saw "sampler";
      note (-2));
  Engine.run ~until:(Time.us 50) eng;
  mix (Engine.live_processes eng);
  mix (Engine.runnable_processes eng);
  Engine.run eng;
  mix (Engine.events_processed eng);
  mix (Engine.processes_spawned eng);
  mix (Engine.live_processes eng);
  mix (Time.to_ns (Engine.now eng));
  (!h, count)

(* The expected value is pinned: a change to the engine's internals
   must dispatch this scenario's exact schedule. *)
let test_schedule_fingerprint () =
  let fp, count = schedule_fingerprint () in
  List.iter
    (fun what -> check_bool what true (count what > 0))
    [ "woken"; "timed out"; "zero delay"; "sched killed"; "blocked killed";
      "stalled"; "sampler" ];
  List.iter
    (fun what -> check_int what 0 (count what))
    [ "unborn ran"; "woken ran" ];
  check_int "fingerprint" 2268230655879823216 fp;
  check_int "repeatable" fp (fst (schedule_fingerprint ()))

(* Timed waits against the rest of the queue.  Timeouts are kept apart
   from other events inside the engine; this scenario pins the merged
   order where that could show: timeouts that fire and timeouts whose
   wait was woken first (stale), and timeouts that tie with plain
   events at the same instant — pushed before them (tie A) and after
   them (tie B) — beside random sleepers, a waker, the sampler and a
   run cut short by [until].  Every dispatch appends (clock, what) to a
   transcript; the test pins its digest and the two tie orders. *)
let tier_fingerprint () =
  let eng = Engine.create ~seed:11L () in
  let rng = Engine.fork_rng eng in
  let log = Buffer.create 4096 in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string log (string_of_int (Time.to_ns (Engine.now eng)));
        Buffer.add_char log ' ';
        Buffer.add_string log s;
        Buffer.add_char log '\n')
      fmt
  in
  let ties = ref [] in
  let tie what = ties := what :: !ties in
  let wake_name = function Engine.Woken -> "woken" | Engine.Timed_out -> "timeout" in
  (* Tie A: the timeout is pushed first, so it runs first. *)
  ignore
    (Engine.spawn eng ~name:"tieA" (fun () ->
         let w = Engine.suspend ~timeout:(Time.us 10) (fun _ -> ()) in
         tie ("A wait " ^ wake_name w);
         note "tieA %s" (wake_name w)));
  ignore
    (Engine.spawn eng ~name:"tieA-plain" (fun () ->
         Engine.schedule eng ~after:(Time.us 10) (fun () ->
             tie "A plain";
             note "tieA plain")));
  (* Tie B: the plain event is pushed before the timed wait begins. *)
  ignore
    (Engine.spawn eng ~name:"tieB" (fun () ->
         let w = Engine.suspend ~timeout:(Time.us 20) (fun _ -> ()) in
         tie ("B wait " ^ wake_name w);
         note "tieB %s" (wake_name w)));
  Engine.schedule eng ~after:(Time.us 20) (fun () ->
      tie "B plain";
      note "tieB plain");
  (* Churn: sleepers on short random timeouts, a waker that wakes the
     newest waits (the older ones have mostly timed out), and delays on the same microsecond grid, so ties between
     tiers are common. *)
  let waiting = Stack.create () in
  for i = 1 to 5 do
    ignore
      (Engine.spawn eng ~name:"sleeper" (fun () ->
           for j = 1 to 12 do
             let timeout = Time.us (1 + Splitmix.int rng 12) in
             let w =
               Engine.suspend ~timeout (fun hd -> Stack.push hd waiting)
             in
             note "s%d.%d %s" i j (wake_name w);
             if Splitmix.int rng 3 = 0 then Engine.delay (Time.us (Splitmix.int rng 3))
           done))
  done;
  ignore
    (Engine.spawn eng ~name:"waker" (fun () ->
         for k = 1 to 40 do
           Engine.delay (Time.us (Splitmix.int rng 4));
           (match Stack.pop_opt waiting with
           | Some hd ->
             note "wake%d %b" k (Engine.handle_pending hd);
             Engine.wake eng hd
           | None -> note "wake%d none" k);
           if k mod 5 = 0 then
             Engine.schedule eng ~after:(Time.us (Splitmix.int rng 4)) (fun () ->
                 note "plain%d" k)
         done));
  Engine.every eng ~interval:(Time.us 7) (fun () -> note "tick");
  Engine.run ~until:(Time.us 25) eng;
  note "cut events=%d live=%d" (Engine.events_processed eng)
    (Engine.live_processes eng);
  Engine.run eng;
  note "end events=%d spawned=%d live=%d" (Engine.events_processed eng)
    (Engine.processes_spawned eng) (Engine.live_processes eng);
  (Digest.to_hex (Digest.string (Buffer.contents log)), List.rev !ties)

(* The expected digest was computed on the single-heap engine: the two
   tiers must reproduce its schedule exactly. *)
let test_tier_fingerprint () =
  let digest, ties = tier_fingerprint () in
  Alcotest.(check (list string))
    "tie orders"
    [ "A wait timeout"; "A plain"; "B plain"; "B wait timeout" ]
    ties;
  Alcotest.(check string) "fingerprint" "8f39648ff3d6fefb361d6adacfa450e4" digest

(* A wait that ends before its timeout must not keep the timeout's
   closure, and with it the handle and the process, reachable until
   the timeout's time: the stale entry stays in the timer tier, but
   holds nothing.  Woken, killed and stalled waits are the three ways
   a wait ends early; a stalled wait never has a timeout pending (the
   engine stalls a wait only once both tiers are empty), so it checks
   that the stall path still works beside the other two. *)
let test_woken_waits_pin_nothing () =
  let n = 100_000 in
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let woken = ref 0 and killed = ref false and stalled = ref false in
  let timeout = Time.s 1000 in
  for _ = 1 to n - 1 do
    ignore
      (Engine.spawn eng (fun () ->
           match Condition.await ~timeout cond with
           | Engine.Woken -> incr woken
           | Engine.Timed_out -> ()))
  done;
  let victim =
    Engine.spawn eng (fun () ->
        try ignore (Condition.await ~timeout cond)
        with Engine.Killed -> killed := true)
  in
  let stall = Condition.create eng in
  ignore
    (Engine.spawn eng (fun () ->
         try ignore (Condition.await stall)
         with Engine.Stalled_waiting -> stalled := true));
  Engine.schedule eng ~after:(t_ms 1) (fun () ->
      Engine.kill eng victim;
      Condition.broadcast cond);
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  Engine.run ~until:(Time.s 1) eng;
  check_int "woken" (n - 1) !woken;
  check_bool "killed" true !killed;
  (* [n] + 1 starts, the broadcast, [n] - 1 wakes and the kill. *)
  check_int "events with the timeouts pending" 200_002
    (Engine.events_processed eng);
  let pending = live () in
  Engine.run eng;
  check_bool "stalled" true !stalled;
  (* Every stale timeout still pops and counts. *)
  check_int "events after the timeouts" 300_002 (Engine.events_processed eng);
  check_int "clock at the last timeout" (Time.to_ns timeout)
    (Time.to_ns (Engine.now eng));
  let fired = live () in
  (* The engine, and with it the timer tier's arrays, must be live in
     both counts. *)
  ignore (Sys.opaque_identity eng);
  if pending - fired >= n then
    Alcotest.failf "%d words live with %d stale timeouts pending, %d after"
      pending n fired

let test_finished_process_forgotten () =
  let eng = Engine.create () in
  let short = Engine.spawn eng (fun () -> Engine.delay (t_ms 1)) in
  let long = Engine.spawn eng (fun () -> Engine.delay (t_ms 5)) in
  let cond = Condition.create eng in
  let daemon = Engine.spawn eng (fun () -> ignore (Condition.await cond)) in
  Engine.set_daemon eng daemon;
  let unborn = Engine.spawn eng ~at:(t_ms 3) (fun () -> ()) in
  Engine.kill eng unborn;
  check_int "live before run" 4 (Engine.live_processes eng);
  Engine.run ~until:(t_ms 2) eng;
  check_bool "finished not alive" false (Engine.alive eng short);
  check_bool "running alive" true (Engine.alive eng long);
  check_int "live mid-run" 3 (Engine.live_processes eng);
  Engine.kill eng short;
  check_int "kill of finished is a no-op" 3 (Engine.live_processes eng);
  Engine.set_daemon eng short;
  Engine.run eng;
  check_bool "killed before start not alive" false (Engine.alive eng unborn);
  check_int "only the daemon left" 1 (Engine.live_processes eng);
  Alcotest.(check (list int))
    "blocked" [ Engine.Pid.to_int daemon ]
    (List.map Engine.Pid.to_int (Engine.blocked_processes eng));
  check_int "spawned" 4 (Engine.processes_spawned eng);
  (* A pid this engine never issued is still rejected. *)
  let other = Engine.create () in
  let foreign = ref short in
  for _ = 1 to 10 do
    foreign := Engine.spawn other (fun () -> ())
  done;
  Alcotest.check_raises "unknown pid"
    (Invalid_argument "Engine.set_daemon: unknown process") (fun () ->
      Engine.set_daemon eng !foreign)

(* ------------------------------------------------------------------ *)
(* Fiber reuse.  A process that ends parks its fiber; the next start
   takes it, so a process started after one ended sees no parked fiber
   left from inside its body.  A fresh fiber would leave the parked one
   in place. *)

(* Run [first] to its end at t = 0, then start a second process at
   1 ms; return the parked count between the two and inside the
   second. *)
let reuse_after first =
  let eng = Engine.create () in
  let _ = Engine.spawn eng (first eng) in
  let between = ref (-1) and inside = ref (-1) in
  Engine.schedule eng ~after:(t_ns 500_000) (fun () ->
      between := Engine.parked_fibers eng);
  let _ =
    Engine.spawn eng ~at:(t_ms 1) (fun () ->
        inside := Engine.parked_fibers eng;
        Engine.delay (t_ms 1))
  in
  Engine.run eng;
  check_int "parked between" 1 !between;
  check_int "reused by the next start" 0 !inside;
  check_int "retired when run returns" 0 (Engine.parked_fibers eng)

let test_reuse_after_return () =
  reuse_after (fun _ () -> Engine.delay Time.zero)

let test_reuse_after_killed_raised () =
  reuse_after (fun _ () -> raise Engine.Killed)

let test_reuse_after_self_kill () =
  reuse_after (fun eng () -> Engine.kill eng (Engine.self ()))

let test_reuse_after_kill_before_start () =
  let eng = Engine.create () in
  let seen = ref [] in
  let note () = seen := Engine.parked_fibers eng :: !seen in
  let _ = Engine.spawn eng (fun () -> ()) in
  let unborn = Engine.spawn eng ~at:(t_ms 1) (fun () -> note ()) in
  Engine.schedule eng (fun () -> Engine.kill eng unborn);
  let _ = Engine.spawn eng ~at:(t_ms 2) note in
  Engine.run eng;
  (* The unborn process took no fiber, so the one parked at t = 0 is
     still there for the start at 2 ms. *)
  Alcotest.(check (list int)) "only the later start ran, on the parked fiber"
    [ 0 ] !seen

exception Boom

let test_other_exception_escapes () =
  let eng = Engine.create () in
  let _ = Engine.spawn eng (fun () -> ()) in
  let _ =
    Engine.spawn eng ~at:(t_ms 1) (fun () ->
        Engine.delay (t_ms 1);
        raise Boom)
  in
  check_bool "escapes run" true
    (match Engine.run eng with () -> false | exception Boom -> true);
  check_int "nothing parked after the escape" 0 (Engine.parked_fibers eng);
  (* The engine stays usable: later processes start on fresh fibers. *)
  let ran = ref false in
  let _ = Engine.spawn eng (fun () -> Engine.delay (t_ms 1); ran := true) in
  Engine.run eng;
  check_bool "later run works" true !ran

let test_second_run_after_until () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let log = ref [] in
  let note s = log := (s, Time.to_ns (Engine.now eng)) :: !log in
  List.iter
    (fun d ->
      ignore
        (Engine.spawn eng (fun () ->
             Engine.delay (t_ms d);
             note "short")))
    [ 1; 2; 8 ];
  let waiter =
    Engine.spawn eng (fun () ->
        ignore (Condition.await cond);
        Engine.delay (t_ms 1);
        note "waiter")
  in
  Engine.set_daemon eng waiter;
  Engine.run ~until:(t_ms 5) eng;
  check_int "parked at the limit" 5_000_000 (Time.to_ns (Engine.now eng));
  check_int "no parked fiber outlives the run" 0 (Engine.parked_fibers eng);
  Engine.schedule eng (fun () -> Condition.signal cond);
  for _ = 1 to 2 do
    ignore (Engine.spawn eng (fun () -> Engine.delay (t_ms 2); note "late"))
  done;
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "both runs completed in order"
    [
      ("short", 1_000_000); ("short", 2_000_000); ("waiter", 6_000_000);
      ("late", 7_000_000); ("late", 7_000_000); ("short", 8_000_000);
    ]
    (List.rev !log);
  check_int "all parked fibers retired" 0 (Engine.parked_fibers eng)

(* [run] must end every parked fiber: in OCaml 5.1 a continuation that
   is never resumed keeps its stack for good, so an engine dropped with
   parked fibers would leak them. *)
let test_run_leaves_no_parked_fiber () =
  let rec deep n k = if n = 0 then k () else 1 + deep (n - 1) k in
  for round = 1 to 20 do
    let eng = Engine.create () in
    for i = 1 to 16 do
      ignore
        (Engine.spawn eng ~at:(t_ns (i * round)) (fun () ->
             ignore (deep (i * 4) (fun () -> Engine.delay (t_ms 1); 0))))
    done;
    Engine.run eng;
    check_int "no parked fiber after run" 0 (Engine.parked_fibers eng)
  done

(* ------------------------------------------------------------------ *)
(* Deadlock detection and daemons *)

let test_stall_detected () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let stalled = ref false in
  let _ =
    Engine.spawn eng (fun () ->
        match Condition.await cond with
        | exception Engine.Stalled_waiting -> stalled := true
        | _ -> ())
  in
  Engine.run eng;
  check_bool "stall reported" true !stalled

let test_stall_raises_when_uncaught () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let _ = Engine.spawn eng (fun () -> ignore (Condition.await cond)) in
  check_bool "raises" true
    (match Engine.run eng with
    | () -> false
    | exception Engine.Stalled_waiting -> true)

(* At idle the lowest-pid blocked process that is not a daemon is
   resumed first, whatever order the process table holds them in. *)
let test_stall_lowest_pid_first () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let order = ref [] in
  let blocker () =
    match Condition.await cond with
    | exception Engine.Stalled_waiting ->
      order := Engine.Pid.to_int (Engine.self ()) :: !order
    | _ -> ()
  in
  let daemon () = ignore (Condition.await cond) in
  let pids =
    List.init 40 (fun i ->
        if i mod 7 = 0 then begin
          let pid = Engine.spawn eng daemon in
          Engine.set_daemon eng pid;
          None
        end
        else Some (Engine.Pid.to_int (Engine.spawn eng blocker)))
    |> List.filter_map Fun.id
  in
  Engine.run eng;
  Alcotest.(check (list int))
    "resumed in pid order" pids (List.rev !order);
  check_int "daemons still blocked" 6
    (List.length (Engine.blocked_processes eng))

let test_daemon_not_stalled () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let woken = ref false in
  let pid =
    Engine.spawn eng (fun () ->
        ignore (Condition.await cond);
        woken := true)
  in
  Engine.set_daemon eng pid;
  Engine.run eng;
  check_bool "daemon survives idle" true (Engine.alive eng pid);
  (* A later run can still wake it. *)
  Engine.schedule eng (fun () -> Condition.signal cond);
  Engine.run eng;
  check_bool "daemon resumed" true !woken

(* ------------------------------------------------------------------ *)
(* Condition *)

let test_condition_signal_wakes_one () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Engine.spawn eng (fun () ->
           ignore (Condition.await cond);
           incr woken))
  done;
  Engine.schedule eng ~after:(t_ms 1) (fun () ->
      check_int "three waiting" 3 (Condition.waiters cond);
      Condition.signal cond);
  Engine.schedule eng ~after:(t_ms 2) (fun () -> Condition.broadcast cond);
  Engine.run eng;
  check_int "all eventually woken" 3 !woken

let test_condition_signal_order () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let order = ref [] in
  let waiter tag at =
    ignore
      (Engine.spawn eng ~at (fun () ->
           ignore (Condition.await cond);
           order := tag :: !order))
  in
  waiter "first" (t_ns 1);
  waiter "second" (t_ns 2);
  Engine.schedule eng ~after:(t_ms 1) (fun () -> Condition.signal cond);
  Engine.schedule eng ~after:(t_ms 2) (fun () -> Condition.signal cond);
  Engine.run eng;
  Alcotest.(check (list string))
    "fifo wake order" [ "first"; "second" ] (List.rev !order)

let test_condition_timeout () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let result = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        result := Some (Condition.await ~timeout:(t_ms 5) cond))
  in
  Engine.run eng;
  (match !result with
  | Some Engine.Timed_out -> ()
  | Some Engine.Woken -> Alcotest.fail "woken without signal"
  | None -> Alcotest.fail "did not resume");
  check_int "resumed at timeout" 5_000_000 (Time.to_ns (Engine.now eng))

let test_condition_signal_beats_timeout () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let result = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        result := Some (Condition.await ~timeout:(t_ms 5) cond))
  in
  Engine.schedule eng ~after:(t_ms 2) (fun () -> Condition.signal cond);
  Engine.run eng;
  (match !result with
  | Some Engine.Woken -> ()
  | Some Engine.Timed_out -> Alcotest.fail "timed out despite signal"
  | None -> Alcotest.fail "did not resume")

let test_condition_timeout_entry_skipped () =
  (* After a waiter times out, a later signal must pass to the next
     live waiter, not be absorbed by the stale queue entry. *)
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let first = ref None and second = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        first := Some (Condition.await ~timeout:(t_ms 1) cond))
  in
  let _ =
    Engine.spawn eng ~at:(t_ns 10) (fun () ->
        second := Some (Condition.await cond))
  in
  Engine.schedule eng ~after:(t_ms 3) (fun () -> Condition.signal cond);
  Engine.run eng;
  check_bool "first timed out" true (!first = Some Engine.Timed_out);
  check_bool "second woken" true (!second = Some Engine.Woken)

(* ------------------------------------------------------------------ *)
(* Semaphore *)

let test_semaphore_mutex () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:1 in
  let inside = ref 0 and max_inside = ref 0 and done_count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Engine.spawn eng (fun () ->
           ignore (Semaphore.acquire sem);
           incr inside;
           max_inside := Stdlib.max !max_inside !inside;
           Engine.delay (t_ms 1);
           decr inside;
           Semaphore.release sem;
           incr done_count))
  done;
  Engine.run eng;
  check_int "mutual exclusion" 1 !max_inside;
  check_int "all completed" 5 !done_count;
  check_int "serialised makespan" 5_000_000 (Time.to_ns (Engine.now eng))

let test_semaphore_counting () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:3 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 9 do
    ignore
      (Engine.spawn eng (fun () ->
           ignore (Semaphore.acquire sem);
           incr inside;
           max_inside := Stdlib.max !max_inside !inside;
           Engine.delay (t_ms 1);
           decr inside;
           Semaphore.release sem))
  done;
  Engine.run eng;
  check_int "three at a time" 3 !max_inside;
  check_int "makespan 3ms" 3_000_000 (Time.to_ns (Engine.now eng))

let test_semaphore_timeout () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:0 in
  let got = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        got := Some (Semaphore.acquire ~timeout:(t_ms 2) sem))
  in
  Engine.run eng;
  check_bool "timed out" true (!got = Some false);
  check_int "no permit lost" 0 (Semaphore.permits sem)

let test_semaphore_handoff_no_steal () =
  (* A release while a process waits hands the permit over even if
     another process tries to acquire at the same instant. *)
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:0 in
  let waiter_got = ref false and thief_got = ref None in
  let _ =
    Engine.spawn eng (fun () ->
        ignore (Semaphore.acquire sem);
        waiter_got := true)
  in
  Engine.schedule eng ~after:(t_ms 1) (fun () ->
      Semaphore.release sem;
      (* Same instant: the permit is already committed to the waiter. *)
      thief_got := Some (Semaphore.try_acquire sem));
  Engine.run eng;
  check_bool "waiter got permit" true !waiter_got;
  check_bool "thief refused" true (!thief_got = Some false)

let test_semaphore_try_acquire () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng ~init:1 in
  check_bool "first" true (Semaphore.try_acquire sem);
  check_bool "second refused" false (Semaphore.try_acquire sem);
  Semaphore.release sem;
  check_int "back to one" 1 (Semaphore.permits sem)

let test_semaphore_invalid () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative init"
    (Invalid_argument "Semaphore.create: negative init") (fun () ->
      ignore (Semaphore.create eng ~init:(-1)))

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_buffered () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  let _ =
    Engine.spawn eng (fun () ->
        check_bool "send 1" true (Mailbox.send mb 1);
        check_bool "send 2" true (Mailbox.send mb 2);
        Engine.delay (t_ms 1);
        check_bool "send 3" true (Mailbox.send mb 3))
  in
  let _ =
    Engine.spawn eng ~at:(t_ns 10) (fun () ->
        for _ = 1 to 3 do
          match Mailbox.recv mb with
          | Some v -> received := v :: !received
          | None -> Alcotest.fail "unexpected timeout"
        done)
  in
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_blocking_recv () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref None and got_at = ref Time.zero in
  let _ =
    Engine.spawn eng (fun () ->
        got := Mailbox.recv mb;
        got_at := Engine.now eng)
  in
  let _ =
    Engine.spawn eng ~at:(t_ms 4) (fun () ->
        check_bool "sent" true (Mailbox.send mb 42))
  in
  Engine.run eng;
  check_bool "value" true (!got = Some 42);
  check_int "at send time" 4_000_000 (Time.to_ns !got_at)

let test_mailbox_recv_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let got = ref (Some 0) in
  let _ =
    Engine.spawn eng (fun () -> got := Mailbox.recv ~timeout:(t_ms 2) mb)
  in
  Engine.run eng;
  check_bool "timeout none" true (!got = None)

let test_mailbox_capacity_blocks_sender () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 eng in
  let sent_second_at = ref Time.zero in
  let _ =
    Engine.spawn eng (fun () ->
        check_bool "first send" true (Mailbox.send mb 1);
        check_bool "second send" true (Mailbox.send mb 2);
        sent_second_at := Engine.now eng)
  in
  let _ =
    Engine.spawn eng ~at:(t_ms 5) (fun () ->
        check_bool "recv" true (Mailbox.recv mb = Some 1))
  in
  Engine.run eng;
  check_int "sender blocked until space" 5_000_000
    (Time.to_ns !sent_second_at);
  check_int "one left" 1 (Mailbox.length mb)

let test_mailbox_send_timeout () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 eng in
  let ok = ref true in
  let _ =
    Engine.spawn eng (fun () ->
        check_bool "fill" true (Mailbox.send mb 1);
        ok := Mailbox.send ~timeout:(t_ms 2) mb 2)
  in
  Engine.run eng;
  check_bool "send timed out" false !ok;
  check_int "only first buffered" 1 (Mailbox.length mb)

let test_mailbox_handoff_no_steal () =
  (* A message handed to a blocked receiver cannot be taken by a
     try_recv issued at the same instant. *)
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let waiter_got = ref None and thief_got = ref None in
  let _ = Engine.spawn eng (fun () -> waiter_got := Mailbox.recv mb) in
  Engine.schedule eng ~after:(t_ms 1) (fun () ->
      check_bool "sent" true (Mailbox.try_send mb 7);
      thief_got := Mailbox.try_recv mb);
  Engine.run eng;
  check_bool "waiter got it" true (!waiter_got = Some 7);
  check_bool "thief got nothing" true (!thief_got = None)

let test_mailbox_try_ops () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 eng in
  check_bool "try_send ok" true (Mailbox.try_send mb 1);
  check_bool "try_send full" false (Mailbox.try_send mb 2);
  check_bool "try_recv" true (Mailbox.try_recv mb = Some 1);
  check_bool "try_recv empty" true (Mailbox.try_recv mb = None)

(* ------------------------------------------------------------------ *)
(* Promise *)

let test_promise_fill_then_await () =
  let eng = Engine.create () in
  let pr = Promise.create eng in
  check_bool "fill succeeds" true (Promise.fill pr 42);
  check_bool "second fill refused" false (Promise.fill pr 43);
  Alcotest.(check (option int)) "peek" (Some 42) (Promise.peek pr);
  let got = ref None in
  let _ = Engine.spawn eng (fun () -> got := Promise.await pr) in
  Engine.run eng;
  Alcotest.(check (option int)) "await filled" (Some 42) !got

let test_promise_await_then_fill () =
  let eng = Engine.create () in
  let pr = Promise.create eng in
  let got_a = ref None and got_b = ref None and filled_at = ref Time.zero in
  let _ = Engine.spawn eng (fun () -> got_a := Promise.await pr) in
  let _ = Engine.spawn eng (fun () -> got_b := Promise.await pr) in
  Engine.schedule eng ~after:(t_ms 3) (fun () ->
      ignore (Promise.fill pr 7);
      filled_at := Engine.now eng);
  Engine.run eng;
  check_bool "both waiters woken" true (!got_a = Some 7 && !got_b = Some 7);
  check_int "at fill time" 3_000_000 (Time.to_ns !filled_at)

let test_promise_timeout () =
  let eng = Engine.create () in
  let pr : int Promise.t = Promise.create eng in
  let got = ref (Some 0) in
  let _ =
    Engine.spawn eng (fun () -> got := Promise.await ~timeout:(t_ms 2) pr)
  in
  Engine.run eng;
  check_bool "timed out" true (!got = None)

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serialises () =
  let eng = Engine.create () in
  let cpu = Resource.create eng ~servers:2 in
  for _ = 1 to 6 do
    ignore (Engine.spawn eng (fun () -> Resource.use cpu (t_ms 10)))
  done;
  Engine.run eng;
  check_int "makespan = 3 batches" 30_000_000 (Time.to_ns (Engine.now eng));
  check_int "all jobs" 6 (Resource.jobs_completed cpu);
  check_int "busy time" 60_000_000 (Time.to_ns (Resource.busy_time cpu));
  Alcotest.(check (float 1e-9))
    "utilisation" 1.0
    (Resource.utilisation cpu ~over:(Engine.now eng))

let test_resource_wait_stats () =
  let eng = Engine.create () in
  let r = Resource.create eng ~servers:1 in
  for _ = 1 to 3 do
    ignore (Engine.spawn eng (fun () -> Resource.use r (t_ms 2)))
  done;
  Engine.run eng;
  let w = Resource.wait_stats r in
  check_int "three waits" 3 (Stats.count w);
  Alcotest.(check (float 1e-9)) "first waits 0" 0.0 (Stats.min_value w);
  Alcotest.(check (float 1e-9)) "last waits 4ms" 0.004 (Stats.max_value w)

(* Zero waits are counted, not stored: a long run of services at a
   free server leaves the wait statistic as small as the handful of
   positive waits it saw. *)
let test_resource_zero_waits_bounded () =
  let eng = Engine.create () in
  let r = Resource.create eng ~servers:1 in
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 20_000 do
           Resource.use r (Time.us 3)
         done));
  Engine.run eng;
  let quiet = Obj.reachable_words (Obj.repr (Resource.wait_stats r)) in
  (* Five jobs queued behind one holder: four positive waits. *)
  for _ = 1 to 5 do
    ignore (Engine.spawn eng (fun () -> Resource.use r (t_ms 1)))
  done;
  Engine.run eng;
  let w = Resource.wait_stats r in
  check_int "every wait counted" 20_005 (Stats.count w);
  check_bool "storage is not per wait" true (quiet < 64);
  check_bool "storage grows with positive waits only" true
    (Obj.reachable_words (Obj.repr w) < 64);
  Alcotest.(check (float 0.0)) "max" 0.004 (Stats.max_value w);
  Alcotest.(check (float 0.0)) "p99.99 reaches past the zeros" 0.002
    (Stats.percentile w 99.99)

(* Against a naive list of every wait, measured around [acquire]:
   the same count, extremes, mean and percentiles. *)
let test_resource_wait_stats_exact () =
  let eng = Engine.create ~seed:5L () in
  let r = Resource.create eng ~servers:2 in
  let rng = Splitmix.create 13L in
  let naive = ref [] in
  for _ = 1 to 400 do
    let at = Time.us (Splitmix.int rng 200_000) in
    let service = Time.us (1 + Splitmix.int rng 1_500) in
    Engine.schedule eng ~after:at (fun () ->
        ignore
          (Engine.spawn eng (fun () ->
               let t0 = Engine.now eng in
               Resource.acquire r;
               naive := Time.to_sec (Time.diff (Engine.now eng) t0) :: !naive;
               Engine.delay service;
               Resource.release r)))
  done;
  Engine.run eng;
  let xs = Array.of_list (List.rev !naive) in
  Array.sort Float.compare xs;
  let n = Array.length xs in
  let w = Resource.wait_stats r in
  let zeros = Array.fold_left (fun k x -> if x = 0.0 then k + 1 else k) 0 xs in
  check_bool "both zero and positive waits" true (zeros > 0 && zeros < n);
  check_int "count" n (Stats.count w);
  let same name a b =
    check_bool name true
      (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  (* The mean first: reading an order statistic sorts the sample, and
     the sum then runs in sorted order. *)
  same "mean"
    (List.fold_left ( +. ) 0.0 (List.rev !naive) /. Float.of_int n)
    (Stats.mean w);
  same "min" xs.(0) (Stats.min_value w);
  same "max" xs.(n - 1) (Stats.max_value w);
  List.iter
    (fun p ->
      let rank = Float.to_int (Float.ceil (p /. 100.0 *. Float.of_int n)) in
      same (Printf.sprintf "p%g" p) xs.(max 0 (rank - 1))
        (Stats.percentile w p))
    [ 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]

let test_resource_kill_releases () =
  (* A holder killed mid-service still frees its server and counts as
     completed; its service time is not charged as busy.  A process
     killed inside [Engine.delay] receives [Killed] when its delay
     would have ended, so the server frees at 10 ms. *)
  let eng = Engine.create () in
  let r = Resource.create eng ~servers:1 in
  let victim = Engine.spawn eng (fun () -> Resource.use r (t_ms 10)) in
  let done_at = ref Time.zero in
  ignore
    (Engine.spawn eng (fun () ->
         Resource.use r (t_ms 2);
         done_at := Engine.now eng));
  Engine.schedule eng ~after:(t_ms 3) (fun () -> Engine.kill eng victim);
  Engine.run eng;
  check_int "waiter served after the kill" 12_000_000 (Time.to_ns !done_at);
  check_int "both completed" 2 (Resource.jobs_completed r);
  check_int "idle again" 0 (Resource.busy r);
  check_int "only the finished job is busy time" 2_000_000
    (Time.to_ns (Resource.busy_time r))

let test_resource_invalid () =
  let eng = Engine.create () in
  Alcotest.check_raises "zero servers"
    (Invalid_argument "Resource.create: servers must be positive") (fun () ->
      ignore (Resource.create eng ~servers:0))

(* ------------------------------------------------------------------ *)
(* Engine stress / properties *)

let prop_many_processes_complete =
  QCheck.Test.make ~name:"n processes with random delays all complete"
    ~count:30
    QCheck.(pair (int_range 1 50) (int_range 1 1000))
    (fun (n, seed) ->
      let eng = Engine.create ~seed:(Int64.of_int seed) () in
      let rng = Engine.fork_rng eng in
      let completed = ref 0 in
      for _ = 1 to n do
        let steps = 1 + Splitmix.int rng 5 in
        ignore
          (Engine.spawn eng (fun () ->
               for _ = 1 to steps do
                 Engine.delay (Time.us (1 + Splitmix.int rng 1000))
               done;
               incr completed))
      done;
      Engine.run eng;
      !completed = n && Engine.live_processes eng = 0)

let prop_semaphore_never_oversubscribed =
  QCheck.Test.make ~name:"semaphore never oversubscribed" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 5 30))
    (fun (permits, jobs) ->
      let eng = Engine.create () in
      let sem = Semaphore.create eng ~init:permits in
      let inside = ref 0 and peak = ref 0 in
      for _ = 1 to jobs do
        ignore
          (Engine.spawn eng (fun () ->
               ignore (Semaphore.acquire sem);
               incr inside;
               peak := Stdlib.max !peak !inside;
               Engine.delay (Time.us 100);
               decr inside;
               Semaphore.release sem))
      done;
      Engine.run eng;
      !peak <= permits)

(* Fuzz the engine with a random mix of delays, semaphore traffic,
   mailbox traffic, child spawning and kills: the run must terminate
   with every non-daemon process finished and no stall. *)
let prop_engine_fuzz =
  QCheck.Test.make ~name:"random process soup terminates cleanly" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let eng = Engine.create ~seed:(Int64.of_int (seed + 1)) () in
      let rng = Splitmix.create (Int64.of_int seed) in
      let sem = Semaphore.create eng ~init:2 in
      let mb = Mailbox.create ~capacity:4 eng in
      let pids = ref [] in
      let rec body depth () =
        for _ = 1 to Splitmix.int rng 5 do
          match Splitmix.int rng 6 with
          | 0 -> Engine.delay (Time.us (Splitmix.int rng 500))
          | 1 ->
            if Semaphore.acquire ~timeout:(Time.ms 2) sem then begin
              Engine.delay (Time.us (Splitmix.int rng 100));
              Semaphore.release sem
            end
          | 2 -> ignore (Mailbox.send ~timeout:(Time.ms 1) mb (Splitmix.int rng 10))
          | 3 -> ignore (Mailbox.recv ~timeout:(Time.ms 1) mb)
          | 4 ->
            if depth < 2 then begin
              let pid = Engine.spawn eng (body (depth + 1)) in
              pids := pid :: !pids
            end
          | _ -> (
            match !pids with
            | [] -> ()
            | pid :: rest ->
              pids := rest;
              (* Never kill ourselves here: self-kill raises Killed,
                 which is exercised elsewhere. *)
              if not (Engine.Pid.equal pid (Engine.self ())) then
                Engine.kill eng pid)
        done
      in
      for _ = 1 to 10 do
        pids := Engine.spawn eng (body 0) :: !pids
      done;
      (match Engine.run eng with
      | () -> ()
      | exception Engine.Stalled_waiting -> ());
      Engine.live_processes eng = 0)

let prop_mailbox_fifo =
  QCheck.Test.make ~name:"mailbox delivers in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) small_int)
    (fun xs ->
      let eng = Engine.create () in
      let mb = Mailbox.create eng in
      let out = ref [] in
      let _ =
        Engine.spawn eng (fun () ->
            List.iter
              (fun x ->
                ignore (Mailbox.send mb x);
                Engine.delay (Time.us 1))
              xs)
      in
      let _ =
        Engine.spawn eng (fun () ->
            for _ = 1 to List.length xs do
              match Mailbox.recv mb with
              | Some v -> out := v :: !out
              | None -> ()
            done)
      in
      Engine.run eng;
      List.rev !out = xs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "eden_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "deterministic" `Quick
            test_interleaving_deterministic;
          Alcotest.test_case "run until" `Quick test_run_until_truncates;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_interleaves;
          Alcotest.test_case "outside process" `Quick
            test_outside_process_errors;
          Alcotest.test_case "nested run rejected" `Quick
            test_run_reentrancy_guarded;
          Alcotest.test_case "self and alive" `Quick test_self_and_alive;
          qt prop_many_processes_complete;
          qt prop_engine_fuzz;
        ] );
      ( "kill",
        [
          Alcotest.test_case "blocked + finalisers" `Quick
            test_kill_blocked_runs_finalisers;
          Alcotest.test_case "before start" `Quick test_kill_before_start;
          Alcotest.test_case "self kill" `Quick test_self_kill;
          Alcotest.test_case "idempotent" `Quick test_kill_idempotent;
          Alcotest.test_case "kill then wake" `Quick
            test_kill_then_wake_is_noop;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "fingerprint" `Quick test_schedule_fingerprint;
          Alcotest.test_case "timer tier fingerprint" `Quick
            test_tier_fingerprint;
          Alcotest.test_case "woken waits pin nothing" `Quick
            test_woken_waits_pin_nothing;
          Alcotest.test_case "finished process forgotten" `Quick
            test_finished_process_forgotten;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "reused after return" `Quick test_reuse_after_return;
          Alcotest.test_case "reused after Killed" `Quick
            test_reuse_after_killed_raised;
          Alcotest.test_case "reused after self kill" `Quick
            test_reuse_after_self_kill;
          Alcotest.test_case "kill before start takes none" `Quick
            test_reuse_after_kill_before_start;
          Alcotest.test_case "other exception escapes" `Quick
            test_other_exception_escapes;
          Alcotest.test_case "second run after until" `Quick
            test_second_run_after_until;
          Alcotest.test_case "run leaves none parked" `Quick
            test_run_leaves_no_parked_fiber;
        ] );
      ( "stall",
        [
          Alcotest.test_case "detected" `Quick test_stall_detected;
          Alcotest.test_case "raises uncaught" `Quick
            test_stall_raises_when_uncaught;
          Alcotest.test_case "lowest pid first" `Quick
            test_stall_lowest_pid_first;
          Alcotest.test_case "daemons exempt" `Quick test_daemon_not_stalled;
        ] );
      ( "condition",
        [
          Alcotest.test_case "signal wakes one" `Quick
            test_condition_signal_wakes_one;
          Alcotest.test_case "fifo order" `Quick test_condition_signal_order;
          Alcotest.test_case "timeout" `Quick test_condition_timeout;
          Alcotest.test_case "signal beats timeout" `Quick
            test_condition_signal_beats_timeout;
          Alcotest.test_case "stale entries skipped" `Quick
            test_condition_timeout_entry_skipped;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutex" `Quick test_semaphore_mutex;
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
          Alcotest.test_case "timeout" `Quick test_semaphore_timeout;
          Alcotest.test_case "handoff" `Quick test_semaphore_handoff_no_steal;
          Alcotest.test_case "try_acquire" `Quick test_semaphore_try_acquire;
          Alcotest.test_case "invalid" `Quick test_semaphore_invalid;
          qt prop_semaphore_never_oversubscribed;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "buffered" `Quick test_mailbox_buffered;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
          Alcotest.test_case "capacity blocks sender" `Quick
            test_mailbox_capacity_blocks_sender;
          Alcotest.test_case "send timeout" `Quick test_mailbox_send_timeout;
          Alcotest.test_case "handoff" `Quick test_mailbox_handoff_no_steal;
          Alcotest.test_case "try ops" `Quick test_mailbox_try_ops;
          qt prop_mailbox_fifo;
        ] );
      ( "promise",
        [
          Alcotest.test_case "fill then await" `Quick
            test_promise_fill_then_await;
          Alcotest.test_case "await then fill" `Quick
            test_promise_await_then_fill;
          Alcotest.test_case "timeout" `Quick test_promise_timeout;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "wait stats" `Quick test_resource_wait_stats;
          Alcotest.test_case "zero waits are not stored" `Quick
            test_resource_zero_waits_bounded;
          Alcotest.test_case "wait stats = naive list" `Quick
            test_resource_wait_stats_exact;
          Alcotest.test_case "kill releases" `Quick test_resource_kill_releases;
          Alcotest.test_case "invalid" `Quick test_resource_invalid;
        ] );
    ]
