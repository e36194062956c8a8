(* E20 — journal overhead on the invocation benchmark (E1's hot path).

   Trace contexts ride in every message envelope whether or not the
   journal retains events, and event ids are allocated either way, so
   the virtual-time behaviour of a run is identical with journaling on
   or off (asserted below).  What the journal costs is host time on
   the invocation path: the kind construction and describe strings
   are built either way, so the measured delta is the ring itself —
   the intern lookups and the encoded stores.  Run the same seeded
   invocation workload with the default journal capacity and with
   retention disabled ([~journal_cap:0]) and compare host CPU time.
   The overhead is printed against a 5% bar but not gated: one run on
   a shared machine cannot show a host-time figure that close to
   noise reliably.

   Methodology: off/on runs are interleaved in pairs, each run starts
   from a compacted heap, and the reported overhead is the *median of
   the per-pair ratios* over [repeats] pairs.  On a shared machine
   absolute run times drift by tens of percent over seconds; a
   back-to-back pair sees (nearly) the same machine, so its ratio
   cancels the drift, and the median discards the pairs a load spike
   or major collection lands inside.  Comparing a median of off times
   against a median of on times does neither. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Common

let nodes = 4
let iters = 48_000
let repeats = 7

(* A locality-free request stream: every node invokes a node-0 object
   in turn, so most invocations pay the full remote path (the one the
   journal instruments hardest: send, recv, reply, hint traffic). *)
let workload ~journal_cap =
  let cl = fresh_cluster ~journal_cap ~n:nodes () in
  let virt =
    drive cl (fun () ->
        let cap =
          must "create"
            (Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
               Value.Unit)
        in
        let args = [ Value.Blob 256; Value.Int 10 ] in
        for i = 1 to iters do
          ignore
            (must "work"
               (Cluster.invoke cl ~from:(i mod nodes) cap ~op:"work" args))
        done;
        Engine.now (Cluster.engine cl))
  in
  (cl, virt)

(* One timed run: compact first so each measurement starts from the
   same heap shape (earlier runs' garbage would otherwise charge its
   collection to whoever runs later). *)
let timed_run ~journal_cap =
  Gc.compact ();
  let t0 = Sys.time () in
  let cl, virt = workload ~journal_cap in
  (cl, virt, Sys.time () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let measure () =
  let offs = ref [] and ons = ref [] and ratios = ref [] in
  let last = ref None in
  for _ = 1 to repeats do
    let _, virt_off, e_off = timed_run ~journal_cap:0 in
    offs := e_off :: !offs;
    let cl, virt_on, e_on = timed_run ~journal_cap:4096 in
    ons := e_on :: !ons;
    ratios := (e_on /. e_off) :: !ratios;
    last := Some (cl, virt_off, virt_on)
  done;
  match !last with
  | Some (cl, virt_off, virt_on) ->
    (cl, virt_off, virt_on, median !offs, median !ons, median !ratios)
  | None -> assert false

let run () =
  heading "E20" "journal overhead on the invocation benchmark";
  let cl_on, virt_off, virt_on, t_off, t_on, ratio = measure () in
  if not (Time.equal virt_off virt_on) then
    failwith
      (Printf.sprintf
         "E20: virtual end times differ (%s vs %s): journaling leaked into \
          simulated behaviour"
         (Time.to_string virt_off) (Time.to_string virt_on));
  let events =
    List.fold_left
      (fun acc j -> acc + Eden_obs.Journal.recorded j)
      0 (Cluster.journals cl_on)
  in
  let overhead = 100.0 *. (ratio -. 1.0) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E20  %d invocations across %d nodes (median of %d)"
           iters nodes repeats)
      ~columns:
        [
          ("journal", Table.Left);
          ("host time", Table.Right);
          ("virtual time", Table.Right);
          ("events", Table.Right);
        ]
  in
  Table.add_row t
    [
      "off";
      Printf.sprintf "%.3fs" t_off;
      Time.to_string virt_off;
      Table.cell_int 0;
    ];
  Table.add_row t
    [
      "on (cap 4096, default)";
      Printf.sprintf "%.3fs" t_on;
      Time.to_string virt_on;
      Table.cell_int events;
    ];
  Table.print t;
  note
    "journal overhead: %.1f%% host time (median of %d paired on/off \
     ratios) for %d recorded events, measured against a 5%% bar and not \
     gated; virtual time is identical (checked: the envelope cost is \
     paid whether or not the ring retains)."
    overhead repeats events
