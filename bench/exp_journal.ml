(* E20 — journal overhead on the invocation benchmark (E1's hot path).

   Trace contexts ride in every message envelope whether or not the
   journal retains events, and event ids are allocated either way, so
   the virtual-time behaviour of a run is identical with journaling on
   or off (asserted by the harness).  What the journal costs is host time on
   the invocation path: the kind construction and describe strings
   are built either way, so the measured delta is the ring itself —
   the intern lookups and the encoded stores.  Run the same seeded
   invocation workload with the default journal capacity and with
   retention disabled ([~journal_cap:0]) and compare host CPU time.
   The overhead is printed against a 5% bar but not gated: one run on
   a shared machine cannot show a host-time figure that close to
   noise reliably.

   Methodology: {!Common.paired_overhead} — off/on runs interleaved
   in pairs from a compacted heap, the median of the per-pair ratios
   over [repeats] pairs. *)

open Eden_util
open Eden_kernel
open Common

let nodes = 4
let iters = 48_000
let repeats = 7

let run () =
  heading "E20" "journal overhead on the invocation benchmark";
  let ov =
    paired_overhead ~id:"E20" ~feature:"journaling" ~iters ~repeats
      ~off:(fun () -> fresh_cluster ~journal_cap:0 ~n:nodes ())
      ~on:(fun () -> fresh_cluster ~journal_cap:4096 ~n:nodes ())
  in
  let events =
    List.fold_left
      (fun acc j -> acc + Eden_obs.Journal.recorded j)
      0 (Cluster.journals ov.ov_on)
  in
  let overhead = 100.0 *. (ov.ov_ratio -. 1.0) in
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
      Printf.sprintf "%.3fs" ov.ov_off_s;
      Time.to_string ov.ov_virt;
      Table.cell_int 0;
    ];
  Table.add_row t
    [
      "on (cap 4096, default)";
      Printf.sprintf "%.3fs" ov.ov_on_s;
      Time.to_string ov.ov_virt;
      Table.cell_int events;
    ];
  Table.print t;
  note
    "journal overhead: %.1f%% host time (median of %d paired on/off \
     ratios) for %d recorded events, measured against a 5%% bar and not \
     gated; virtual time is identical (checked: the envelope cost is \
     paid whether or not the ring retains)."
    overhead repeats events
