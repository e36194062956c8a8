open Eden_util
open Eden_sim
open Eden_kernel
module Metrics = Eden_obs.Metrics

type t = {
  cl : Cluster.t;
  rng : Splitmix.t;
  links : (int * int, Plan.link_kind * float) Hashtbl.t;
  (* nodes currently degraded: every unicast touching one is held *)
  slow : (int, Time.t) Hashtbl.t;
  mutable armed : bool;
  mutable n_injected : int;
  c_injected : Metrics.counter;
  c_crashes : Metrics.counter;
  c_restarts : Metrics.counter;
  c_disk : Metrics.counter;
  c_partitions : Metrics.counter;
  c_drops : Metrics.counter;
  c_dups : Metrics.counter;
  c_delays : Metrics.counter;
  c_slow : Metrics.counter;
  c_joins : Metrics.counter;
  c_decommissions : Metrics.counter;
}

let count ctl c =
  ctl.n_injected <- ctl.n_injected + 1;
  Metrics.incr ctl.c_injected;
  Metrics.incr c

let apply ctl ev =
  let cl = ctl.cl in
  let net = Cluster.network cl in
  match (ev : Plan.event).action with
  | Plan.Crash_node n ->
    Cluster.crash_node cl n;
    count ctl ctl.c_crashes
  | Plan.Restart_node { node; rebuild } ->
    Cluster.restart_node ~rebuild cl node;
    count ctl ctl.c_restarts
  | Plan.Fail_disk n ->
    Cluster.set_disk_failed cl n true;
    count ctl ctl.c_disk
  | Plan.Heal_disk n -> Cluster.set_disk_failed cl n false
  | Plan.Partition_segment s ->
    Transport.set_partitioned net s true;
    count ctl ctl.c_partitions
  | Plan.Heal_segment s -> Transport.set_partitioned net s false
  | Plan.Break_link { src; dst; kind; p } ->
    Hashtbl.replace ctl.links (src, dst) (kind, p)
  | Plan.Heal_link { src; dst } -> Hashtbl.remove ctl.links (src, dst)
  | Plan.Slow_node { node; by } ->
    Hashtbl.replace ctl.slow node by;
    count ctl ctl.c_slow
  | Plan.Heal_slow n -> Hashtbl.remove ctl.slow n
  (* Reconfigurations that the cluster refuses (already a member, last
     member, powered off by an earlier fault) are simply skipped — a
     chaos plan's join/decommission races the crash windows around it,
     and a refusal is a legitimate interleaving, not a plan error. *)
  | Plan.Join_node n -> (
    match Cluster.join_node cl n with
    | Ok () -> count ctl ctl.c_joins
    | Error _ -> ())
  | Plan.Decommission_node n -> (
    match Cluster.decommission_node cl n with
    | Ok () -> count ctl ctl.c_decommissions
    | Error _ -> ())

(* The per-message decision consulted by the transport.  Unicast only:
   locate broadcasts and destroy notices stay reliable.  The link coin
   is flipped first and exactly as without slow nodes, so arming a
   [Slow_node] never shifts the PRNG stream feeding link faults; the
   slow-node hold (a fixed, coin-free delay charged when either end of
   the transfer is degraded) then stacks on a Pass or Delay verdict.
   A Drop loses the message regardless and a Duplicate keeps its
   immediate double transmission — the fault type cannot express
   duplicate-and-delay, and a fast duplicate only makes the tail
   harder on the cloning machinery, which is the point. *)
let decide ctl ~src ~dst =
  if not ctl.armed then Transport.Pass
  else
    match dst with
    | None -> Transport.Pass
    | Some g ->
      let verdict =
        match Hashtbl.find_opt ctl.links (src, g) with
        | None -> Transport.Pass
        | Some (kind, p) ->
          if not (Splitmix.coin ctl.rng p) then Transport.Pass
          else (
            match kind with
            | Plan.Drop ->
              count ctl ctl.c_drops;
              Transport.Drop
            | Plan.Duplicate ->
              count ctl ctl.c_dups;
              Transport.Duplicate
            | Plan.Delay d ->
              count ctl ctl.c_delays;
              Transport.Delay d)
      in
      let slow_by =
        let at n acc =
          match Hashtbl.find_opt ctl.slow n with
          | Some d -> Time.add acc d
          | None -> acc
        in
        at src (at g Time.zero)
      in
      if Time.to_ns slow_by = 0 then verdict
      else (
        match verdict with
        | Transport.Pass -> Transport.Delay slow_by
        | Transport.Delay d -> Transport.Delay (Time.add d slow_by)
        | (Transport.Drop | Transport.Duplicate) as v -> v)

let arm ?(seed = 0xFA17L) cl plan =
  let reg = Cluster.metrics cl in
  (* Instruments are created up front, in a fixed order, so the
     registry's sample set does not depend on which faults happen to
     fire — identical seeds then yield identical snapshots. *)
  let ctl =
    {
      cl;
      rng = Splitmix.create seed;
      links = Hashtbl.create 8;
      slow = Hashtbl.create 4;
      armed = true;
      n_injected = 0;
      c_injected = Metrics.counter reg "fault.injected";
      c_crashes = Metrics.counter reg "fault.node_crashes";
      c_restarts = Metrics.counter reg "fault.node_restarts";
      c_disk = Metrics.counter reg "fault.disk_failures";
      c_partitions = Metrics.counter reg "fault.partitions";
      c_drops = Metrics.counter reg "fault.link_drops";
      c_dups = Metrics.counter reg "fault.link_dups";
      c_delays = Metrics.counter reg "fault.link_delays";
      c_slow = Metrics.counter reg "fault.slow_nodes";
      c_joins = Metrics.counter reg "fault.joins";
      c_decommissions = Metrics.counter reg "fault.decommissions";
    }
  in
  Transport.set_fault_injector (Cluster.network cl)
    (Some (fun ~src ~dst -> decide ctl ~src ~dst));
  let eng = Cluster.engine cl in
  (* Plan times are relative to the instant of arming, so a plan can be
     armed after a setup phase has consumed virtual time and still mean
     what it says. *)
  let now = Engine.now eng in
  List.iter
    (fun (ev : Plan.event) ->
      let pid =
        Engine.spawn eng ~name:"fault" ~at:(Time.add now ev.at) (fun () ->
            apply ctl ev)
      in
      Engine.set_daemon eng pid)
    (Plan.events plan);
  ctl

let injected ctl = ctl.n_injected

let broken_links ctl =
  Hashtbl.fold (fun k _ acc -> k :: acc) ctl.links []
  |> List.sort compare

let disarm ctl =
  ctl.armed <- false;
  Hashtbl.reset ctl.links;
  Hashtbl.reset ctl.slow;
  Transport.set_fault_injector (Cluster.network ctl.cl) None
