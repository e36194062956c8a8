(* A sampling profiler for the host-time benchmark's workloads.

     main.exe --workload W --seed N --phases K [--top T]
     main.exe --workload W --seed N --phase analysis --phases K [--top T]
     main.exe --workload W --seed N --phase setup --phases K [--top T]

   Runs K request phases of workload W — phase i on input stream
   i mod streams, each on a fresh cluster whose set-up is not sampled —
   under a SIGPROF interval timer.  A first pass runs the same K phases
   with the sampler disarmed and prints what they allocate per
   invocation: minor words, words promoted to the major heap, and words
   allocated in the major heap directly, with the top of the heap
   after that pass.  With [--phase analysis] it instead
   runs stream 0 once, unsampled, and then samples K repetitions of the
   reads hostbench times as [analyze_s] over that finished cluster:
   [Cluster.timeline], [Check.run] (with the completeness the journals
   allow, and with [~complete:true], which adds the rules that need
   every event), [Profile.of_timeline] and [Cluster.metrics_snapshot].
   It prints each call's median CPU milliseconds and its minor words
   per call and per timeline event, a total row summing those figures
   over the four calls hostbench adds up as [analyze_s] (the extra
   [~complete:true] run left out), and, from a first pass over the
   calls in that order, the live words and the top of the heap after
   each call and a full major collection.  With [--phase setup] it
   samples K set-ups instead — set-up i builds a fresh cluster on
   stream i mod streams, as hostbench times it as [setup_s] — after an
   unsampled pass over the same K that prints the words each set-up
   allocates and its median CPU milliseconds.  Every tick records the
   OCaml call stack; afterwards the samples are attributed four ways:

   - self time by source line: the innermost frame of each sample;
   - self time by file;
   - samples by function: every function on the sample's stack, each
     counted once (a fiber's stack stops at its boundary, so in request
     phases this undercounts the callers of process bodies);
   - samples by process root: the outermost frame of each sample that
     belongs to a process body.  A stack stops at the fiber boundary,
     and a fiber starts in the engine's fiber loop, so inside a
     simulated process this is the body called from that loop; samples
     taken on the main stack (the event loop and plain callbacks) are
     counted as one root.

   Caveats (see docs/OBSERVABILITY.md): a signal is handled at the next
   poll point, so time spent in the runtime (effects, the GC, C
   primitives such as [caml_hash] or [caml_make_vect]) is charged to
   the OCaml code around it; and the sample rate is whatever the kernel
   delivers for the requested 1 ms interval, so check the sample count
   before reading small shares. *)

module Cluster = Eden_kernel.Cluster

let self_file = "hostprof/main.ml"

(* Samples are kept raw while the workload runs; decoding them into
   source locations waits until the timer is off. *)
let samples : Printexc.raw_backtrace list ref = ref []
let armed = ref false

let on_tick _ =
  if !armed then samples := Printexc.get_callstack 256 :: !samples

type frame = { f_loc : string; f_file : string; f_name : string }

(* Every frame of a sample, innermost first.  The signal handler's own
   frames sit on top of the sampled code. *)
let frames_of raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map (fun slot ->
           match Printexc.Slot.location slot with
           | None -> None
           | Some l ->
             let name = Option.value ~default:"?" (Printexc.Slot.name slot) in
             Some
               {
                 f_loc = Printf.sprintf "%s:%d" l.Printexc.filename l.line_number;
                 f_file = l.filename;
                 f_name = name;
               })

let is_self f = String.ends_with ~suffix:self_file f.f_file

let main_root = "[main stack: event loop and plain callbacks]"
let fiber_root = "[fiber loop: between process bodies]"

(* Frames that start processes rather than belong to one. *)
let launchers = [ "Eden_sim__Engine.serve"; "Eden_kernel__Cluster.spawn_tracked" ]

let is_launcher f =
  List.exists (fun p -> String.starts_with ~prefix:p f.f_name) launchers

let tally tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let print_top title ~total ~top tbl =
  Printf.printf "\n%s\n" title;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Int.compare b a with 0 -> String.compare ka kb | c -> c)
  |> List.iteri (fun i (k, n) ->
         if i < top then
           Printf.printf "  %5.1f%%  %6d  %s\n"
             (100.0 *. float_of_int n /. float_of_int total)
             n k)

(* Sets up a fresh cluster for phase [i]; the function returned runs
   its request phase and returns the invocations attempted. *)
let prepare spec ~seed i =
  let sub = i mod spec.Workload.streams in
  let cl, caps = Workload.setup spec ~seed ~sub Workload.no_hooks in
  fun () ->
    (Workload.request_phase spec ~seed ~sub cl caps Workload.no_hooks)
      .Workload.attempted

(* The request phases of [phases] fresh clusters: first unsampled,
   counting what they allocate (the sampler's backtraces allocate, and
   are kept), then sampled.  Returns the header lines. *)
let sample_requests spec ~workload ~seed ~phases =
  let minor = ref 0.0 and promoted = ref 0.0 and direct = ref 0.0 in
  let invocations = ref 0 in
  for i = 0 to phases - 1 do
    let run = prepare spec ~seed i in
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let n = run () in
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor := !minor +. (minor1 -. minor0);
    promoted := !promoted +. (promoted1 -. promoted0);
    (* Promotions are counted in the major heap's words too. *)
    direct := !direct +. (major1 -. major0 -. (promoted1 -. promoted0));
    invocations := !invocations + n
  done;
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  let per x = x /. float_of_int (max 1 !invocations) in
  let cpu = ref 0.0 in
  for i = 0 to phases - 1 do
    let run = prepare spec ~seed i in
    let t0 = Sys.time () in
    armed := true;
    ignore (run ());
    armed := false;
    cpu := !cpu +. (Sys.time () -. t0)
  done;
  ( Printf.sprintf
      "hostprof: workload %s  seed %d  %d request phases  %d invocations\n\
      \  unsampled, words per invocation: %.1f minor, %.1f promoted, %.1f \
       direct to the major heap; heap top %d words (%.2f MB)\n\
      \  then the same %d phases sampled"
      workload seed phases !invocations (per !minor) (per !promoted)
      (per !direct) top
      (float_of_int (top * (Sys.word_size / 8)) /. 1048576.0)
      phases,
    !cpu )

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* [phases] set-ups, each a fresh cluster on stream [i mod streams]:
   first unsampled, timing each and counting what it allocates, then
   sampled.  A set-up is a fraction of a millisecond, so a useful
   sample count needs K in the thousands. *)
let sample_setups spec ~workload ~seed ~phases =
  let setup i =
    let sub = i mod spec.Workload.streams in
    ignore (Workload.setup spec ~seed ~sub Workload.no_hooks)
  in
  let minor = ref 0.0 and promoted = ref 0.0 and direct = ref 0.0 in
  let ms = ref [] in
  for i = 0 to phases - 1 do
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () and t0 = Sys.time () in
    setup i;
    let t1 = Sys.time () and minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    ms := ((t1 -. t0) *. 1e3) :: !ms;
    minor := !minor +. (minor1 -. minor0);
    promoted := !promoted +. (promoted1 -. promoted0);
    direct := !direct +. (major1 -. major0 -. (promoted1 -. promoted0))
  done;
  let per x = x /. float_of_int phases in
  let t0 = Sys.time () in
  armed := true;
  for i = 0 to phases - 1 do
    setup i
  done;
  armed := false;
  ( Printf.sprintf
      "hostprof: workload %s  seed %d  %d set-ups (%d nodes, %d objects each)\n\
      \  unsampled: %.3f ms per set-up (median); words per set-up: %.0f \
       minor, %.0f promoted, %.0f direct to the major heap\n\
      \  then the same %d set-ups sampled"
      workload seed phases spec.Workload.nodes
      (Workload.total_objects spec) (median !ms) (per !minor) (per !promoted)
      (per !direct) phases,
    Sys.time () -. t0 )

(* Stream 0 once, then [reps] rounds of the analysis reads over the
   finished cluster.  The first [reps] rounds are timed and counted
   with the sampler disarmed, so the figures carry no sampling cost;
   the next [reps] are sampled. *)
let sample_analysis spec ~workload ~seed ~reps =
  let cl, caps = Workload.setup spec ~seed ~sub:0 Workload.no_hooks in
  ignore (Workload.request_phase spec ~seed ~sub:0 cl caps Workload.no_hooks);
  let complete = Cluster.journal_dropped cl = 0 in
  (* The reads once more in hostbench's order, before anything else
     runs, keeping what hostbench keeps (the timeline and the
     violations): after each call and a full major collection, the
     words still live and the top of the heap so far. *)
  let heap = ref [] in
  let step name f =
    let r = f () in
    Gc.full_major ();
    let st = Gc.quick_stat () in
    heap := (name, st.Gc.live_words, st.Gc.top_heap_words) :: !heap;
    r
  in
  step "request phase" ignore;
  let tl = step "Cluster.timeline" (fun () -> Cluster.timeline cl) in
  let vs = step "Check.run" (fun () -> Eden_obs.Check.run ~complete tl) in
  step "Profile.of_timeline" (fun () ->
      ignore (Eden_obs.Profile.of_timeline tl));
  step "Cluster.metrics_snapshot" (fun () ->
      ignore (Cluster.metrics_snapshot cl));
  ignore (Sys.opaque_identity vs);
  (* Each call, and whether hostbench counts it in [analyze_s]. *)
  let calls =
    [
      ("Cluster.timeline", true, fun () -> ignore (Cluster.timeline cl));
      ( Printf.sprintf "Check.run ~complete:%b" complete,
        true,
        fun () -> ignore (Eden_obs.Check.run ~complete tl) );
    ]
    @ (if complete then []
       else
         [ ( "Check.run ~complete:true",
             false,
             fun () -> ignore (Eden_obs.Check.run ~complete:true tl) ) ])
    @ [
        ( "Profile.of_timeline",
          true,
          fun () -> ignore (Eden_obs.Profile.of_timeline tl) );
        ( "Cluster.metrics_snapshot",
          true,
          fun () -> ignore (Cluster.metrics_snapshot cl) );
      ]
  in
  let events = Eden_obs.Timeline.length tl in
  let figures =
    List.map
      (fun (name, counted, f) ->
        let ms = ref [] and words = ref [] and major = ref [] in
        for _ = 1 to reps do
          let _, promoted0, major0 = Gc.counters () in
          let minor0 = Gc.minor_words () and t0 = Sys.time () in
          f ();
          let t1 = Sys.time () and minor1 = Gc.minor_words () in
          let _, promoted1, major1 = Gc.counters () in
          ms := ((t1 -. t0) *. 1e3) :: !ms;
          words := (minor1 -. minor0) :: !words;
          (* Blocks too large for the minor heap go straight to the
             major heap; promotions are counted there too. *)
          major := (major1 -. major0 -. (promoted1 -. promoted0)) :: !major
        done;
        (name, counted, median !ms, median !words, median !major))
      calls
  in
  let t0 = Sys.time () in
  armed := true;
  for _ = 1 to reps do
    List.iter (fun (_, _, f) -> f ()) calls
  done;
  armed := false;
  let cpu = Sys.time () -. t0 in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "hostprof: workload %s  seed %d  analysis of stream 0: %d events in %d \
     traces, journals %s\n\
    \  %d repetitions per call, unsampled (median):\n\
    \  %-28s %9s %12s %12s %12s\n"
    workload seed events
    (List.length (Eden_obs.Timeline.traces tl))
    (if complete then "complete" else "wrapped")
    reps "call" "ms/call" "minor words" "words/event" "major words";
  let row name ms words major =
    Printf.bprintf b "  %-28s %9.2f %12.0f %12.1f %12.0f\n" name ms words
      (words /. float_of_int (max 1 events))
      major
  in
  List.iter (fun (name, _, ms, words, major) -> row name ms words major) figures;
  (* The calls hostbench sums as [analyze_s]: a sum of the medians. *)
  let sum f =
    List.fold_left
      (fun acc ((_, counted, _, _, _) as x) -> if counted then acc +. f x else acc)
      0.0 figures
  in
  row "total (analyze_s)"
    (sum (fun (_, _, ms, _, _) -> ms))
    (sum (fun (_, _, _, words, _) -> words))
    (sum (fun (_, _, _, _, major) -> major));
  Printf.bprintf b
    "  heap after each call, first pass (words):\n  %-28s %12s %12s\n" "after"
    "live" "top";
  List.iter
    (fun (name, live, top) ->
      Printf.bprintf b "  %-28s %12d %12d\n" name live top)
    (List.rev !heap);
  Printf.bprintf b "  then %d sampled repetitions of every call" reps;
  (Buffer.contents b, cpu)

let () =
  let workload = ref "hot_invoke" and seed = ref 1 and phases = ref 8 in
  let top = ref 40 and phase = ref "request" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  hot_invoke | locate_scale | ckpt_mix | ckpt_local");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--phase", Arg.Symbol ([ "request"; "analysis"; "setup" ], ( := ) phase),
       "  what to sample: request phases (default), the analysis reads or set-ups");
      ("--phases", Arg.Set_int phases, "K  request phases (or analysis repetitions, or set-ups) to sample");
      ("--top", Arg.Set_int top, "T  rows per table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N [--phase request|analysis|setup] --phases K [--top T]";
  let spec =
    match Workload.of_name !workload with
    | Some k -> Workload.spec k
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !phase <> "request" && !phases < 1 then begin
    prerr_endline ("--phase " ^ !phase ^ " needs --phases of at least 1");
    exit 2
  end;
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_tick);
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let header, cpu =
    match !phase with
    | "analysis" ->
      sample_analysis spec ~workload:!workload ~seed:!seed ~reps:!phases
    | "setup" ->
      sample_setups spec ~workload:!workload ~seed:!seed ~phases:!phases
    | _ -> sample_requests spec ~workload:!workload ~seed:!seed ~phases:!phases
  in
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  let raw = !samples in
  let total = List.length raw in
  Printf.printf "%s\n  %d samples in %.1f s of CPU time (%.0f samples/s)\n"
    header total cpu
    (float_of_int total /. Float.max cpu 1e-9);
  if total > 0 then begin
    let by_line = Hashtbl.create 256
    and by_file = Hashtbl.create 64
    and by_func = Hashtbl.create 256
    and by_root = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let all = frames_of r in
        (match List.filter (fun f -> not (is_self f)) all with
        | [] -> tally by_line "(no OCaml frame)"
        | f :: _ ->
          tally by_line (Printf.sprintf "%s  %s" f.f_loc f.f_name);
          tally by_file f.f_file);
        List.filter (fun f -> not (is_self f)) all
        |> List.map (fun f -> f.f_name)
        |> List.sort_uniq String.compare
        |> List.iter (tally by_func);
        (* A fiber's stack starts with the engine's fiber loop, which
           runs process bodies one after another, and the kernel's
           wrapper that tracks a process's pid; the first frame above
           them is the body.  A stack that starts in this program's
           toplevel is the main stack. *)
        tally by_root
          (match List.rev all with
          | [] -> "(no OCaml frame)"
          | f :: _ when is_self f -> main_root
          | outer -> (
            match List.filter (fun f -> not (is_launcher f || is_self f)) outer with
            | f :: _ -> f.f_name
            | [] -> fiber_root)))
      raw;
    print_top "self time by line" ~total ~top:!top by_line;
    print_top "self time by file" ~total ~top:!top by_file;
    print_top "samples by function anywhere on the stack" ~total ~top:!top
      by_func;
    (* Analysis runs on the main stack only. *)
    if !phase <> "analysis" then
      print_top "samples by process root" ~total ~top:!top by_root
  end
