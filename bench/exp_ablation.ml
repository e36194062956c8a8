(* E13 — ablation of the location machinery.  DESIGN.md calls out three
   mechanisms the paper leaves unspecified: the hint cache, forwarding
   pointers after moves, and coalescing of concurrent locates.  Each is
   switched off in turn to measure what it buys.

   E13b's conclusion is a checked claim: the run fails unless coalesced
   locates lose no invocation and independent ones lose some.  `make
   ci` runs the smoke variant, which is E13b alone. *)

open Eden_util
open Eden_sim
open Eden_kernel
open Common

let nodes = 6
let objs = 10
let smoke = ref false

(* Phase A: every node warms up against every object (all on node 0).
   Phase B: all objects move to nodes 1..5 round robin.
   Phase C: one round of invocations right after the moves.
   Phase D: three more steady rounds. *)
let scenario options =
  let configs =
    List.init nodes (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "n%d" i))
  in
  let cl = Cluster.create ~options ~configs () in
  Cluster.register_type cl bench_type;
  drive cl (fun () ->
      let caps =
        List.init objs (fun _ ->
            must "create"
              (Cluster.create_object cl ~node:0 ~type_name:"bench_obj"
                 Value.Unit))
      in
      let round stats =
        for from = 0 to nodes - 1 do
          List.iter
            (fun cap ->
              let d, _ =
                timed cl (fun () ->
                    must "ping" (Cluster.invoke cl ~from cap ~op:"ping" []))
              in
              Stats.add_time stats d)
            caps
        done
      in
      let warm = Stats.create () in
      round warm;
      round warm;
      List.iteri
        (fun i cap ->
          ignore (must "move" (Cluster.move cl cap ~to_node:(1 + (i mod 5)))))
        caps;
      let first = Stats.create () in
      round first;
      let steady = Stats.create () in
      round steady;
      round steady;
      round steady;
      let frames = Transport.frames_delivered (Cluster.network cl) in
      (Stats.mean warm, Stats.mean first, Stats.mean steady, frames))

let location_table () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E13a  %d objects moved off node 0; mean invocation latency"
           objs)
      ~columns:
        [
          ("configuration", Table.Left);
          ("warm", Table.Right);
          ("first after moves", Table.Right);
          ("steady after moves", Table.Right);
          ("LAN frames", Table.Right);
        ]
  in
  let configs =
    [
      ("full kernel", Cluster.default_options);
      ( "no hint cache",
        { Cluster.default_options with Cluster.use_hint_cache = false } );
      ( "no forwarding",
        { Cluster.default_options with Cluster.use_forwarding = false } );
      ( "neither",
        {
          Cluster.default_options with
          Cluster.use_hint_cache = false;
          use_forwarding = false;
        } );
    ]
  in
  List.iter
    (fun (label, options) ->
      let warm, first, steady, remote = scenario options in
      Table.add_row t
        [
          label;
          Printf.sprintf "%.2fms" (warm *. 1e3);
          Printf.sprintf "%.2fms" (first *. 1e3);
          Printf.sprintf "%.2fms" (steady *. 1e3);
          Table.cell_int remote;
        ])
    configs;
  Table.print t

(* The locate-storm scenario from E8, with and without coalescing. *)
let storm options =
  let cl =
    Cluster.create ~options
      ~configs:
        (List.init 8 (fun i ->
             Eden_hw.Machine.default_config ~name:(Printf.sprintf "n%d" i)))
      ()
  in
  Cluster.register_type cl bench_type;
  drive cl (fun () ->
      let cap =
        must "create"
          (Cluster.create_object cl ~node:0 ~type_name:"bench_obj" Value.Unit)
      in
      let d, failures =
        timed cl (fun () ->
            let ps =
              List.concat_map
                (fun from ->
                  List.init 10 (fun _ ->
                      Cluster.invoke_async cl ~from cap ~op:"ping" []))
                (List.init 8 Fun.id)
            in
            List.fold_left
              (fun acc p ->
                match Promise.await p with
                | Some (Ok _) -> acc
                | Some (Error _) | None -> acc + 1)
              0 ps)
      in
      (d, failures))

let storm_table () =
  let t =
    Table.create
      ~title:"E13b  80 simultaneous first invocations (locate storm)"
      ~columns:
        [
          ("configuration", Table.Left);
          ("makespan", Table.Right);
          ("failed", Table.Right);
        ]
  in
  let row label options =
    let d, failures = storm options in
    Table.add_row t [ label; Table.cell_time d; Table.cell_int failures ];
    failures
  in
  let coalesced = row "coalesced locates" Cluster.default_options in
  let independent =
    row "independent locates"
      { Cluster.default_options with Cluster.coalesce_locates = false }
  in
  Table.print t;
  summary_int "coalesced_failed" coalesced;
  summary_int "independent_failed" independent;
  if coalesced <> 0 || independent = 0 then
    failwith
      (Printf.sprintf
         "E13b: %d coalesced and %d independent locates failed, expected 0 \
          and more than 0"
         coalesced independent)

let run () =
  heading "E13" "ablation: what the location mechanisms buy (DESIGN.md)";
  if not !smoke then location_table ();
  storm_table ();
  note
    "expected shape: dropping the hint cache taxes every remote call \
     with a locate; dropping forwarding taxes the first call after a \
     move with a nack + relocate; without coalescing, simultaneous \
     cold invocations collide in the locate window and some fail."
