(* E3 — section 3 / [Almes & Lazowska 1979]: behaviour of the CSMA/CD
   Ethernet under offered load.  Reproduces the classic curves:
   throughput saturating below the raw bandwidth, the delay knee, and
   the collision growth. *)

open Eden_util
open Eden_sim
open Eden_net
open Common

let stations = 10
let payload = 500
let horizon = Time.s 2

let run_point ?(params = Params.default) offered_fraction =
  let eng = Engine.create ~seed:7L () in
  let lan = Lan.create ~params eng in
  let sts =
    Array.init stations (fun i ->
        Lan.attach lan ~name:(Printf.sprintf "s%d" i))
  in
  Array.iter (fun st -> Lan.on_receive st (fun _ -> ())) sts;
  (* Capacity in frames/s for this payload. *)
  let ft = Params.frame_time (Lan.params lan) ~payload_bytes:payload in
  let capacity_fps = 1.0 /. Time.to_sec ft in
  let per_station_rate = offered_fraction *. capacity_fps /. Float.of_int stations in
  let mean_gap = 1.0 /. per_station_rate in
  Array.iteri
    (fun i st ->
      let rng = Engine.fork_rng eng in
      let pid =
        Engine.spawn eng ~name:(Printf.sprintf "gen%d" i) (fun () ->
            let rec loop () =
              Engine.delay (Time.of_sec (Splitmix.exponential rng mean_gap));
              if Time.(Engine.now eng < horizon) then begin
                let dst = (i + 1 + Splitmix.int rng (stations - 1)) mod stations in
                Lan.send st ~dest:(Lan.Unicast dst) ~bytes:payload ();
                loop ()
              end
            in
            loop ())
      in
      Engine.set_daemon eng pid)
    sts;
  Engine.run ~until:horizon eng;
  let c = Lan.counters lan in
  let util = Lan.utilisation lan ~over:horizon in
  let delay =
    let s = Lan.latency_stats lan in
    if Stats.Running.count s = 0 then 0.0 else Stats.Running.mean s
  in
  let coll_per_frame =
    if c.Lan.frames_delivered = 0 then 0.0
    else Float.of_int c.Lan.collision_events /. Float.of_int c.Lan.frames_sent
  in
  (util, delay, coll_per_frame, c.Lan.frames_dropped)

(* The generation the Eden group actually measured in 1979 was the
   2.94 Mb/s Experimental Ethernet; compare its saturation point with
   the DIX standard they chose for Eden. *)
let generations_table () =
  let t =
    Table.create
      ~title:
        "E3b  Experimental (2.94 Mb/s) vs DIX (10 Mb/s) Ethernet at matched \
         relative load"
      ~columns:
        [
          ("offered", Table.Right);
          ("experimental util", Table.Right);
          ("experimental delay", Table.Right);
          ("DIX util", Table.Right);
          ("DIX delay", Table.Right);
        ]
  in
  List.iter
    (fun offered ->
      (* The experimental network's max frame is 554B; use a payload
         legal on both. *)
      let xu, xd, _, _ = run_point ~params:Params.experimental offered in
      let du, dd, _, _ = run_point ~params:Params.default offered in
      Table.add_row t
        [
          Printf.sprintf "%.2f" offered;
          Table.cell_pct xu;
          Printf.sprintf "%.2fms" (xd *. 1e3);
          Table.cell_pct du;
          Printf.sprintf "%.2fms" (dd *. 1e3);
        ])
    [ 0.25; 0.5; 0.75; 1.0; 2.0 ];
  Table.print t

let run () =
  heading "E3" "Ethernet behaviour under load (sec. 3, Almes & Lazowska '79)";
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E3  %d stations, %dB frames, Poisson arrivals, horizon %s"
           stations payload (Time.to_string horizon))
      ~columns:
        [
          ("offered", Table.Right);
          ("utilisation", Table.Right);
          ("mean delay", Table.Right);
          ("collisions/frame", Table.Right);
          ("dropped", Table.Right);
        ]
  in
  List.iter
    (fun offered ->
      let util, delay, cpf, dropped = run_point offered in
      Table.add_row t
        [
          Printf.sprintf "%.2f" offered;
          Table.cell_pct util;
          Printf.sprintf "%.2fms" (delay *. 1e3);
          Printf.sprintf "%.3f" cpf;
          Table.cell_int dropped;
        ])
    [ 0.1; 0.25; 0.5; 0.75; 0.9; 1.0; 1.5; 2.0; 4.0 ];
  Table.print t;
  generations_table ();
  note
    "expected shape: utilisation tracks offered load until saturating \
     below 100%%; delay turns a knee near saturation; collisions grow \
     with load.  Across generations: DIX wins unloaded delay on raw \
     bandwidth (0.6ms vs 1.6ms per 500B frame), while the slower \
     experimental network is MORE efficient at saturation - its \
     contention slot is a smaller fraction of its frame time, the \
     classic a/F effect from the Metcalfe-Boggs analysis."
