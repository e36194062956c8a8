(* edenctl — drive Eden scenarios from the command line.  Every
   subcommand is one row of [commands] at the bottom, built from the
   option groups below; `edenctl CMD --help` lists what it takes. *)

open Cmdliner
open Eden_util
open Eden_sim
open Eden_kernel

(* ------------------------------------------------------------------ *)
(* Option groups *)

(* [conv] narrowed to the values [ok] accepts, so bad input is a usage
   error at parse time rather than an exception mid-run. *)
let checked conv ok expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let positive = checked Arg.int (fun n -> n >= 1) "an integer >= 1"
let count = checked Arg.int (fun n -> n >= 0) "an integer >= 0"

let fraction =
  checked Arg.float (fun f -> f >= 0.0 && f <= 1.0) "a number in [0,1]"

type common = { nodes : int; seed : int }

let common =
  Term.(
    const (fun nodes seed -> { nodes; seed })
    $ Arg.(
        value & opt positive 5 & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size.")
    $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Random seed."))

let count_opt names default docv doc =
  Arg.(value & opt count default & info names ~docv ~doc)

let file_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

type outputs = { trace : bool; metrics_out : string option }

let outputs =
  Term.(
    const (fun trace metrics_out -> { trace; metrics_out })
    $ Arg.(
        value & flag
        & info [ "trace" ]
            ~doc:
              "Print the journal events retained at the end of the run, one \
               line each in execution order.")
    $ file_opt "metrics-out"
        "Write the final metrics snapshot (counters, gauges and \
         histograms) to $(docv) as JSON.")

let requests ?(doc = "Requests in the stream (one every 10ms of virtual time).")
    default =
  count_opt [ "requests" ] default "R" doc

(* The synthetic workload's load knobs (synth, stats). *)
let synth_load =
  Term.(
    const (fun locality requests -> (locality, requests))
    $ Arg.(
        value & opt fraction 0.8
        & info [ "locality" ] ~docv:"F" ~doc:"Fraction of local requests.")
    $ requests ~doc:"Requests per user." 25)

type features = {
  fault_plan : string option;
  options : Cluster.options;
  coalesce : Transport.coalesce option;
  ckpt_async : bool;
  spares : int;
}

type feature =
  | Fault_plan | Replica_cache | Coalesce | Ckpt_delta | Ckpt_async
  | Clone | Hedge | Directory | Spares

(* What health and top offer; chaos, trace and profile offer them all. *)
let health_features =
  [ Fault_plan; Replica_cache; Coalesce; Ckpt_delta; Ckpt_async ]

let all_features = health_features @ [ Clone; Hedge; Directory; Spares ]

let spares_t =
  count_opt [ "spares" ] 0 "K"
    "Rack $(docv) spare nodes after the configured ones: powered and \
     reachable but outside the boot membership, so a fault plan's 'join' \
     action can admit them mid-run."

(* The cluster-feature flags.  A subcommand offers the ones in [only];
   the rest stay off. *)
let features ?(spares = spares_t) only =
  let offer f t off = if List.mem f only then t else Term.const off in
  let flag f name doc = offer f Arg.(value & flag & info [ name ] ~doc) false in
  Term.(
    const
      (fun fault_plan replica_cache coalesce ckpt_delta ckpt_async clone hedge
           directory spares ->
        {
          fault_plan;
          options =
            {
              Cluster.default_options with
              Cluster.use_replica_cache = replica_cache;
              use_ckpt_delta = ckpt_delta;
              speculate =
                { Api.no_speculation with Api.sp_clone = clone; sp_hedge = hedge };
              use_directory = directory;
            };
          coalesce = (if coalesce then Some Transport.default_coalesce else None);
          ckpt_async;
          spares;
        })
    $ offer Fault_plan
        Arg.(
          value
          & opt (some file) None
          & info [ "fault-plan" ] ~docv:"FILE"
              ~doc:
                "Arm the fault plan in $(docv) (one 'at TIME ACTION' per \
                 line; see lib/fault/plan.mli for the grammar).")
        None
    $ flag Replica_cache "replica-cache"
        "Enable the frozen-replica cache: nodes cache the representation of \
         remote frozen objects on first use and serve later invocations \
         locally."
    $ flag Coalesce "coalesce"
        "Enable unicast message coalescing on the kernel transport: small \
         same-destination messages batch into one wire transfer under \
         size/count/delay budgets."
    $ flag Ckpt_delta "ckpt-delta"
        "Enable delta checkpoints: a checkpoint ships only the \
         representation chunks that changed since the version each \
         checksite last acknowledged, falling back to a full write on \
         version mismatch."
    $ flag Ckpt_async "ckpt-async"
        "Checkpoint through the asynchronous pipeline: objects that persist \
         their updates use $(b,checkpoint_async), so the writes overlap the \
         request stream instead of blocking it."
    $ flag Clone "clone"
        "Speculatively clone read-only invocations on frozen objects to \
         every known replica site; the first response wins and the losing \
         sites receive an urgent cancel."
    $ flag Hedge "hedge"
        "Hedge straggling requests: when a reply takes longer than the \
         windowed latency quantile, re-send the same request once (the \
         server suppresses the duplicate)."
    $ flag Directory "directory"
        "Enable the sharded locate directory: a consistent-hash ring assigns \
         every object name a registry shard, and a requester with no hint \
         asks the shard with one unicast instead of broadcasting a locate.  \
         Misses, dead shards and stale answers fall back to the broadcast \
         path."
    $ offer Spares spares 0)

(* The chaos family's arguments: chaos, trace, health, top, profile. *)
type chaos = { common : common; requests : int; features : features }

let chaos_args only =
  Term.(
    const (fun common requests features -> { common; requests; features })
    $ common $ requests 220 $ features only)

(* ------------------------------------------------------------------ *)
(* Shared plumbing *)

(* Print to stderr and fail the run. *)
let die fmt = Printf.kfprintf (fun _ -> exit 1) stderr fmt

let valid_plan plan ~nodes ~segments =
  match Eden_fault.Plan.validate plan ~nodes ~segments with
  | Ok () -> plan
  | Error msg -> die "fault plan: %s\n" msg

let load_plan ~nodes ~segments file =
  match Eden_fault.Plan.of_file file with
  | Ok plan -> valid_plan plan ~nodes ~segments
  | Error msg -> die "fault plan %s: %s\n" file msg

let save path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* If an output option names a file, [write] it there and say so. *)
let write_opt ?(note = "") what file write =
  Option.iter
    (fun path ->
      (try write path
       with Sys_error msg -> die "cannot write %s: %s\n" what msg);
      Printf.printf "%s written to %s%s\n" what path note)
    file

let default_cluster ?options ?coalesce ?spares c =
  Cluster.default ~seed:(Int64.of_int c.seed) ?options ?coalesce ?spares
    ~n_nodes:c.nodes ()

(* Run [f] as a simulated process and drain the simulation. *)
let drive cl f =
  ignore (Cluster.in_process cl f);
  Cluster.run cl

let summary cl =
  Printf.printf "\nsimulated time %s; %d invocations (%d remote); %d events\n"
    (Time.to_string (Engine.now (Cluster.engine cl)))
    (Cluster.stats_invocations cl)
    (Cluster.stats_remote_invocations cl)
    (Engine.events_processed (Cluster.engine cl))

(* The end of every scenario that takes [outputs]: the journal events,
   the metrics snapshot, the summary line. *)
let finish o cl =
  if o.trace then begin
    print_endline "--- trace tail ---";
    List.iter
      (Format.printf "%a@." Eden_obs.Journal.pp_event)
      (Eden_obs.Timeline.events (Cluster.timeline cl))
  end;
  write_opt "metrics snapshot" o.metrics_out (fun path ->
      Eden_obs.Snapshot.write_file (Cluster.metrics_snapshot cl) ~path);
  summary cl

(* A scenario on the default cluster: [body] drives the run. *)
let scenario c o body =
  let cl = default_cluster c in
  body cl;
  finish o cl

(* Audit an assembled timeline against the cross-node invariants; any
   violation is listed on stderr and fails the run. *)
let report_violations ~label ?(json = false) cl tl =
  match
    Eden_obs.Check.run ~complete:(Cluster.journal_dropped cl = 0) tl
  with
  | [] -> Printf.printf "%s: all invariants hold\n" label
  | violations ->
    List.iter
      (fun v ->
        Printf.eprintf "%s\n"
          (Format.asprintf "%a" Eden_obs.Check.pp_violation v))
      violations;
    if json then
      Printf.eprintf "%s\n"
        (Eden_obs.Json.to_string ~compact:true
           (Eden_obs.Check.violations_to_json violations));
    die "%s: %d violation(s)\n" label (List.length violations)

(* ------------------------------------------------------------------ *)
(* demo: counters shared across the cluster *)

let counter_type =
  let open Api in
  Typemgr.make_exn ~name:"ctl_counter"
    [
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
    ]

let run_demo c o =
  scenario c o (fun cl ->
      Cluster.register_type cl counter_type;
      drive cl (fun () ->
          match
            Cluster.create_object cl ~node:0 ~type_name:"ctl_counter"
              (Value.Int 0)
          with
          | Error e -> Printf.printf "create failed: %s\n" (Error.to_string e)
          | Ok cap ->
            for from = 0 to c.nodes - 1 do
              match Cluster.invoke cl ~from cap ~op:"incr" [] with
              | Ok [ Value.Int n ] ->
                Printf.printf "node %d incremented the shared counter to %d\n"
                  from n
              | Ok _ | Error _ ->
                Printf.printf "node %d: invocation failed\n" from
            done))

(* ------------------------------------------------------------------ *)
(* mail *)

let run_mail c o users messages =
  scenario c o (fun cl ->
      Eden_workload.Mail.register_types cl;
      let setup = ref None in
      drive cl (fun () ->
          match
            Eden_workload.Mail.build cl ~registry_node:0 ~users_per_node:users
          with
          | Ok s -> setup := Some s
          | Error e -> Printf.printf "build failed: %s\n" (Error.to_string e));
      Option.iter
        (fun s ->
          let r =
            Eden_workload.Mail.run cl s ~messages_per_user:messages
              ~think_mean_s:0.02
          in
          Printf.printf "sent=%d failures=%d delivered=%d\nsend latency: %s\n"
            r.Eden_workload.Mail.sent r.Eden_workload.Mail.send_failures
            r.Eden_workload.Mail.fetched
            (Format.asprintf "%a" Stats.pp_summary
               r.Eden_workload.Mail.send_latency))
        !setup)

(* ------------------------------------------------------------------ *)
(* synth *)

let run_synth c (locality, requests) f o =
  (* Synth itself runs checkpoint-free; --ckpt-delta still configures
     the protocol for any checkpoint traffic (e.g. a fault plan forcing
     recovery). *)
  let cl = default_cluster ~options:f.options ?coalesce:f.coalesce c in
  let ctl =
    Option.map
      (fun file ->
        Eden_fault.Controller.arm cl
          (load_plan ~nodes:c.nodes ~segments:1 file))
      f.fault_plan
  in
  let spec =
    {
      Eden_workload.Synthetic.default_spec with
      Eden_workload.Synthetic.locality;
      requests_per_user = requests;
      (* Under a fault plan the users need a recovery policy, or a
         crashed target strands them waiting for a reply forever. *)
      timeout = (if ctl = None then None else Some (Time.ms 300));
      retry = (if ctl = None then Api.no_retry else Api.default_retry);
    }
  in
  (* Synth arms the plan at t=0, so its setup phase runs under the
     plan too; a schedule that kills a node while the population is
     still being created aborts the workload. *)
  let r =
    try Eden_workload.Synthetic.run_eden cl spec
    with Invalid_argument msg when ctl <> None ->
      die
        "synth failed under the fault plan (%s); delay the first fault past \
         workload setup\n"
        msg
  in
  Format.printf "%a@." Eden_workload.Synthetic.pp_results r;
  Option.iter
    (fun ctl ->
      Printf.printf "faults injected: %d\n" (Eden_fault.Controller.injected ctl))
    ctl;
  finish o cl

(* ------------------------------------------------------------------ *)
(* efs *)

let run_efs c o txns optimistic =
  let open Eden_efs in
  scenario c o (fun cl ->
      Schema.register cl;
      let mode = if optimistic then Txn.Optimistic else Txn.Locking in
      let committed = ref 0 and conflicts = ref 0 in
      let file = ref None in
      drive cl (fun () ->
          let root =
            match Client.make_root cl ~node:0 with
            | Ok r -> r
            | Error e -> failwith (Error.to_string e)
          in
          match
            Client.create_file cl ~from:0 ~dir:root ~name:"shared"
              ~content:(Value.Int 0) ()
          with
          | Error e -> failwith (Error.to_string e)
          | Ok f ->
            file := Some f;
            for i = 0 to txns - 1 do
              ignore
                (Cluster.in_process cl (fun () ->
                     let rec attempt k =
                       if k > 10 then ()
                       else begin
                         let t = Txn.begin_txn cl ~from:(i mod c.nodes) ~mode in
                         let read =
                           match mode with
                           | Txn.Locking -> Txn.read_for_update t f
                           | Txn.Optimistic | Txn.Snapshot -> Txn.read t f
                         in
                         match read with
                         | Ok (Value.Int v) -> (
                           ignore (Txn.write t f (Value.Int (v + 1)));
                           match Txn.commit t with
                           | Txn.Committed -> incr committed
                           | Txn.Conflict | Txn.Failed _ ->
                             incr conflicts;
                             attempt (k + 1))
                         | Ok _ | Error _ ->
                           Txn.abort t;
                           attempt (k + 1)
                       end
                     in
                     attempt 0))
            done);
      let final = ref None in
      drive cl (fun () ->
          Option.iter
            (fun f -> final := Some (Client.read_file cl ~from:0 f))
            !file);
      Printf.printf "%s: committed=%d conflicts=%d final=%s\n"
        (match mode with
        | Txn.Locking -> "2PL"
        | Txn.Optimistic -> "optimistic"
        | Txn.Snapshot -> "snapshot")
        !committed !conflicts
        (match !final with
        | Some (Ok (Value.Int n)) -> string_of_int n
        | _ -> "?"))

(* ------------------------------------------------------------------ *)
(* heartbeat: poll the node objects *)

let run_heartbeat c o kill =
  match kill with
  | Some victim when victim >= c.nodes ->
    `Error
      ( true,
        Printf.sprintf
          "option '--kill': invalid value '%d', expected a node below --nodes \
           (%d)"
          victim c.nodes )
  | _ ->
    `Ok
      (scenario c o (fun cl ->
           Option.iter
             (fun victim ->
               Engine.schedule (Cluster.engine cl) ~after:(Time.ms 400)
                 (fun () -> Cluster.crash_node cl victim))
             kill;
           drive cl (fun () ->
               for round = 1 to 3 do
                 Engine.delay (Time.ms 300);
                 Printf.printf "round %d:" round;
                 for i = 0 to c.nodes - 1 do
                   let status =
                     match
                       Cluster.invoke cl ~from:0 ~timeout:(Time.ms 150)
                         (Cluster.node_object cl i) ~op:"info" []
                     with
                     | Ok [ Value.Int gdps; _; Value.Int avail; Value.Int active ]
                       ->
                       Printf.sprintf "UP gdps=%d free=%dK objs=%d" gdps
                         (avail / 1000) active
                     | Ok _ -> "odd reply"
                     | Error e -> "DOWN (" ^ Error.to_string e ^ ")"
                   in
                   Printf.printf "  node%d: %s" i status
                 done;
                 print_newline ()
               done)))

(* ------------------------------------------------------------------ *)
(* chaos: a request stream against mirrored counters while a fault
   plan crashes nodes, fails disks, partitions segments and degrades
   links.  Everything is driven by the virtual clock and the seed, so
   two identical invocations produce byte-identical --metrics-out
   files. *)

let chaos_type ~async =
  let open Api in
  Typemgr.make_exn ~name:"chaos_counter"
    [
      Typemgr.operation "config" (fun ctx args ->
          (* [List sites]: mirror the checkpoint over the given nodes
             and take the first one. *)
          let* v = arg1 args in
          let* sites =
            Value.to_list v
            |> Result.map_error (fun m -> Error.Bad_arguments m)
          in
          let sites =
            List.filter_map (fun s -> Result.to_option (Value.to_int s)) sites
          in
          let* () = ctx.set_reliability (Reliability.Mirrored sites) in
          let* () = ctx.checkpoint () in
          reply_unit);
      Typemgr.operation "incr" (fun ctx args ->
          let* () = no_args args in
          let* n = int_arg (ctx.get_repr ()) in
          let* () = ctx.set_repr (Value.Int (n + 1)) in
          (* Persist every update.  A partial checkpoint (some mirror
             site down or disk-failed) still stored the copies it
             could; the update itself succeeded, so reply Ok.  Under
             --ckpt-async the write overlaps the request stream
             instead of blocking the reply. *)
          (match
             if async then ctx.checkpoint_async () else ctx.checkpoint ()
           with
          | Ok () | Error _ -> ());
          reply [ Value.Int (n + 1) ]);
      Typemgr.operation "get" ~mutates:false (fun ctx args ->
          let* () = no_args args in
          reply [ ctx.get_repr () ]);
    ]

let chaos_horizon = Time.s 2

let availability label ~ok ~failed ctl =
  Printf.printf
    "%s: %d/%d invocations completed (%.1f%% available), %d faults injected\n"
    label ok (ok + failed)
    (100.0 *. Float.of_int ok /. Float.of_int (max 1 (ok + failed)))
    (Eden_fault.Controller.injected ctl)

(* The chaos workload proper, shared by the whole chaos family:
   mirrored counters under a deterministic fault plan, driven entirely
   by the virtual clock and the seed.  Returns the finished cluster for
   post-run inspection. *)
let chaos_workload ?health w =
  let { common = { nodes; seed }; requests; features = f } = w in
  if nodes < 2 then die "chaos needs --nodes >= 2\n";
  (* Two bridged segments once the cluster is big enough, so partition
     events have something to cut. *)
  let segments =
    if nodes >= 4 then [ nodes - (nodes / 2); nodes / 2 ] else [ nodes ]
  in
  let configs =
    List.init nodes (fun i ->
        Eden_hw.Machine.default_config ~name:(Printf.sprintf "node%d" i))
  in
  let cl =
    Cluster.create ~seed:(Int64.of_int seed) ~segments ~spares:f.spares
      ~options:f.options
      ?coalesce:f.coalesce ?health ~configs ()
  in
  Cluster.register_type cl (chaos_type ~async:f.ckpt_async);
  (* Spares are valid fault-plan targets (join admits them), so the
     plan validates against the full rack, not just the members. *)
  let rack = nodes + f.spares and segments = List.length segments in
  let plan =
    match f.fault_plan with
    | Some file -> load_plan ~nodes:rack ~segments file
    | None ->
      valid_plan ~nodes:rack ~segments
        (Eden_fault.Plan.random ~seed:(Int64.of_int seed) ~nodes:rack
           ~segments ~horizon:chaos_horizon)
  in
  print_string "--- fault plan ---\n";
  print_string (Eden_fault.Plan.to_string plan);
  (* Setup phase, fault-free: one counter per node, mirrored on its
     home and successor.  The plan is armed only once the objects
     exist (its times are relative to that instant). *)
  let caps = ref [||] in
  drive cl (fun () ->
      caps :=
        Array.init nodes (fun i ->
            let cap =
              match
                Cluster.create_object cl ~node:i ~type_name:"chaos_counter"
                  (Value.Int 0)
              with
              | Ok c -> c
              | Error e -> failwith ("create: " ^ Error.to_string e)
            in
            let sites = [ Value.Int i; Value.Int ((i + 1) mod nodes) ] in
            (match
               Cluster.invoke cl ~from:i cap ~op:"config" [ Value.List sites ]
             with
            | Ok _ -> ()
            | Error e -> failwith ("config: " ^ Error.to_string e));
            cap));
  (* A frozen, replicated object gives speculation something to fan
     out on: reads from a replica-less node clone to home + replicas,
     and hedged retries re-send the stragglers.  Built fault-free like
     the counters. *)
  let frozen = ref None in
  if f.options.Cluster.speculate.Api.sp_clone
     || f.options.Cluster.speculate.Api.sp_hedge
  then
    drive cl (fun () ->
        match
          Cluster.create_object cl ~node:(nodes - 1) ~type_name:"chaos_counter"
            (Value.Int 7)
        with
        | Error e -> failwith ("create frozen: " ^ Error.to_string e)
        | Ok cap ->
          (match Cluster.freeze cl cap with
          | Ok () -> ()
          | Error e -> failwith ("freeze: " ^ Error.to_string e));
          List.iter
            (fun n ->
              match Cluster.replicate cl cap ~to_node:n with
              | Ok () -> ()
              | Error e -> failwith ("replicate: " ^ Error.to_string e))
            (if nodes >= 4 then [ 1; 2 ] else []);
          frozen := Some cap);
  let ctl = Eden_fault.Controller.arm ~seed:(Int64.of_int seed) cl plan in
  let ok = ref 0 and failed = ref 0 in
  drive cl (fun () ->
      (* The request stream outlives the plan horizon, so the tail of
         the run shows post-heal recovery. *)
      for r = 0 to requests - 1 do
        Engine.delay (Time.ms 10);
        let cap = (!caps).(r mod nodes) in
        (match
           Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
             ~retry:Api.default_retry cap ~op:"incr" []
         with
        | Ok _ -> incr ok
        | Error _ -> incr failed);
        match !frozen with
        | Some fcap -> (
          (* Interleave reads of the frozen object so the clone / hedge
             path sees the same chaos the counters do. *)
          match
            Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
              ~retry:Api.default_retry fcap ~op:"get" []
          with
          | Ok _ -> incr ok
          | Error _ -> incr failed)
        | None -> ()
      done);
  availability "chaos" ~ok:!ok ~failed:!failed ctl;
  cl

let run_chaos w o = finish o (chaos_workload w)

(* ------------------------------------------------------------------ *)
(* reconfig: online membership change under load.  A paced counter
   stream runs while a spare joins and a member is drained and
   retired; the run reports what the epoch machinery did and the
   request stream's availability through it.  Driven by the virtual
   clock and the seed, so same-seed --metrics-out files are
   byte-identical. *)

let sum_node_counter cl name =
  let snap = Cluster.metrics_snapshot cl in
  List.fold_left
    (fun acc i ->
      match
        Eden_obs.Snapshot.find snap ~labels:[ ("node", string_of_int i) ] name
      with
      | Some (Eden_obs.Metrics.Counter c) -> acc + c
      | _ -> acc)
    0
    (List.init (Cluster.node_count cl) Fun.id)

let run_reconfig c requests f o =
  let nodes = c.nodes and spares = f.spares in
  if nodes < 2 then die "reconfig needs --nodes >= 2\n";
  if spares < 1 && f.fault_plan = None then
    die
      "reconfig needs --spares >= 1 (the default plan joins a spare); give \
       --fault-plan to script something else\n";
  (* The locate directory is always on here: the epoch-stamped ring it
     resolves through is the machinery under test. *)
  let cl =
    default_cluster ~spares c
      ~options:
        { f.options with Cluster.use_directory = true; use_ckpt_delta = true }
  in
  Cluster.register_type cl counter_type;
  let horizon = Time.ms (10 * requests) in
  let plan =
    match f.fault_plan with
    | Some file -> load_plan ~nodes:(nodes + spares) ~segments:1 file
    | None ->
      (* Join the first spare a third of the way in, retire node 1 at
         two thirds: both membership steps land mid-stream. *)
      Eden_fault.Plan.make
        [
          {
            Eden_fault.Plan.at = Time.divide horizon 3;
            action = Eden_fault.Plan.Join_node nodes;
          };
          {
            Eden_fault.Plan.at = Time.divide (Time.scale horizon 2) 3;
            action = Eden_fault.Plan.Decommission_node 1;
          };
        ]
  in
  print_string "--- reconfiguration plan ---\n";
  print_string (Eden_fault.Plan.to_string plan);
  let caps = ref [||] in
  drive cl (fun () ->
      caps :=
        Array.init nodes (fun i ->
            match
              Cluster.create_object cl ~node:i ~type_name:"ctl_counter"
                (Value.Int 0)
            with
            | Ok c -> c
            | Error e -> failwith ("create: " ^ Error.to_string e)));
  let ctl = Eden_fault.Controller.arm ~seed:(Int64.of_int c.seed) cl plan in
  let ok = ref 0 and failed = ref 0 in
  drive cl (fun () ->
      for r = 0 to requests - 1 do
        Engine.delay (Time.ms 10);
        match
          Cluster.invoke cl ~from:0 ~timeout:(Time.ms 300)
            ~retry:Api.default_retry
            (!caps).(r mod nodes)
            ~op:"incr" []
        with
        | Ok _ -> incr ok
        | Error _ -> incr failed
      done);
  availability "reconfig" ~ok:!ok ~failed:!failed ctl;
  Printf.printf "epoch %d; members [%s]; drain moves %d; epoch bumps %d\n"
    (Cluster.epoch cl)
    (String.concat "; " (List.map string_of_int (Cluster.members cl)))
    (sum_node_counter cl "eden.drain.moves")
    (sum_node_counter cl "eden.epoch.bumps");
  Array.iteri
    (fun i cap ->
      match Cluster.where_is cl cap with
      | Some home when Cluster.is_member cl home -> ()
      | Some home -> die "counter %d homed on non-member %d\n" i home
      | None -> die "counter %d lost by the reconfiguration\n" i)
    !caps;
  print_endline "census: every object homed exactly once on a member";
  finish o cl

(* ------------------------------------------------------------------ *)
(* trace: run the chaos workload, assemble the per-node journals into
   one causal timeline, export it, and audit the cross-node
   invariants. *)

let run_trace w out text check =
  let cl = chaos_workload w in
  let tl = Cluster.timeline cl in
  let dropped = Cluster.journal_dropped cl in
  Printf.printf "timeline: %d events in %d traces across %d nodes%s\n"
    (Eden_obs.Timeline.length tl)
    (List.length (Eden_obs.Timeline.traces tl))
    (List.length (Eden_obs.Timeline.nodes tl))
    (if dropped > 0 then
       Printf.sprintf " (%d events dropped: traces incomplete)" dropped
     else "");
  write_opt "chrome trace" ~note:" (load in chrome://tracing or Perfetto)" out
    (fun p -> save p (Eden_obs.Timeline.to_chrome_string tl));
  write_opt "text timeline" text (fun p -> save p (Eden_obs.Timeline.to_text tl));
  if check then report_violations ~label:"trace-check" cl tl;
  summary cl

(* ------------------------------------------------------------------ *)
(* health / top: run the chaos workload with the health plane enabled
   and report what the SLO watchdogs and hot-object sketches saw.  The
   whole report is a function of the seed, so `make health-check` can
   cmp two same-seed runs byte for byte. *)

module Health = Eden_obs.Health
module Topk = Eden_obs.Topk
module Json = Eden_obs.Json

let hot_table entries =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i { Topk.e_key; e_count; e_err } ->
      Printf.bprintf buf "  %2d. %-24s count %-8d err <= %d\n" (i + 1) e_key
        e_count e_err)
    entries;
  Buffer.contents buf

let health_report cl =
  let h = match Cluster.health cl with Some h -> h | None -> assert false in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Health.report h);
  (* The causal record of every state change, from node 0's journal
     (where the cluster records Alert events). *)
  let alerts =
    List.filter
      (fun ev ->
        match ev.Eden_obs.Journal.ev_kind with Alert _ -> true | _ -> false)
      (Eden_obs.Journal.events (Cluster.journal cl 0))
  in
  Printf.bprintf buf "alert transitions (%d retained):\n" (List.length alerts);
  List.iter
    (fun ev ->
      Printf.bprintf buf "  %s\n"
        (Format.asprintf "%a" Eden_obs.Journal.pp_event ev))
    alerts;
  let hot = Cluster.hot_objects_rollup cl ~k:10 () in
  Printf.bprintf buf "hottest objects (cluster rollup, top %d):\n"
    (List.length hot);
  Buffer.add_string buf (hot_table hot);
  Buffer.contents buf

let hot_json entries =
  Json.List
    (List.map
       (fun { Topk.e_key; e_count; e_err } ->
         Json.Obj
           [
             ("object", Json.Str e_key);
             ("count", Json.Int e_count);
             ("err", Json.Int e_err);
           ])
       entries)

let run_health w out json_out =
  let cl = chaos_workload ~health:Health.default_config w in
  let report = health_report cl in
  print_string report;
  write_opt "health report" out (fun p -> save p report);
  write_opt "health JSON" json_out (fun p ->
      save p
        (Json.to_string ~compact:false
           (Json.Obj
              [
                ("health", Health.to_json (Option.get (Cluster.health cl)));
                ("hot_objects", hot_json (Cluster.hot_objects_rollup cl ~k:10 ()));
              ])));
  summary cl

let run_top w k json_out =
  let cl = chaos_workload ~health:Health.default_config w in
  for i = 0 to Cluster.node_count cl - 1 do
    let entries = Cluster.hot_objects cl ~k i in
    Printf.printf "node %d (top %d):\n%s" i (List.length entries)
      (hot_table entries)
  done;
  let hot = Cluster.hot_objects_rollup cl ~k () in
  Printf.printf "cluster rollup (top %d):\n%s" (List.length hot)
    (hot_table hot);
  write_opt "hot-object JSON" json_out (fun p ->
      save p (Json.to_string ~compact:false (hot_json hot)));
  summary cl

(* ------------------------------------------------------------------ *)
(* profile: run the chaos workload and attribute every request's
   end-to-end latency over its causal trace.  The whole report is a function of the seed, so `make
   profile-check` can cmp two same-seed runs byte for byte. *)

let run_profile w out json_out folded chrome check =
  let cl = chaos_workload w in
  let tl = Cluster.timeline cl in
  let dropped = Cluster.journal_dropped cl in
  let pf = Eden_obs.Profile.of_timeline tl in
  let text = Eden_obs.Profile.to_text pf in
  print_string text;
  if dropped > 0 then
    Printf.printf
      "(journal dropped %d events; %d request(s) skipped as incomplete)\n"
      dropped
      (Eden_obs.Profile.skipped pf);
  write_opt "profile" out (fun p -> save p text);
  write_opt "profile JSON" json_out (fun p ->
      save p (Json.to_string ~compact:false (Eden_obs.Profile.to_json pf)));
  write_opt "folded stacks" ~note:" (flamegraph.pl input)" folded (fun p ->
      save p (Eden_obs.Profile.to_folded pf));
  write_opt "chrome trace with attribution bars"
    ~note:" (load in chrome://tracing or Perfetto)" chrome (fun p ->
      save p
        (Eden_obs.Timeline.to_chrome_string
           ~extra:(Eden_obs.Profile.chrome_extra pf)
           tl));
  if check then report_violations ~label:"profile-check" ~json:true cl tl;
  summary cl

(* ------------------------------------------------------------------ *)
(* edit: the interactive object editor (the paper's editing paradigm:
   every interaction is an edit of an object's structured visual
   representation) *)

let editor_hierarchy () =
  let open Api in
  let h = Eden_typesys.Hierarchy.create () in
  Eden_typesys.Hierarchy.declare_exn h
    (Eden_typesys.Hierarchy.decl ~name:"editable"
       ~attributes:[ ("display", Value.Str "record") ]
       [
         Typemgr.operation "view" ~mutates:false (fun ctx args ->
             let* () = no_args args in
             reply [ ctx.get_repr () ]);
         Typemgr.operation "fail" (fun ctx args ->
             let* () = no_args args in
             ctx.crash ();
             reply_unit);
       ]);
  Eden_typesys.Hierarchy.declare_exn h
    (Eden_typesys.Hierarchy.decl ~name:"document" ~parent:"editable"
       ~attributes:[ ("display", Value.Str "text") ]
       [
         Typemgr.operation "append_line" (fun ctx args ->
             let* v = arg1 args in
             let* line = str_arg v in
             let* old = str_arg (ctx.get_repr ()) in
             let* () = ctx.set_repr (Value.Str (old ^ "\n" ^ line)) in
             reply_unit);
         Typemgr.operation "replace_text" (fun ctx args ->
             let* v = arg1 args in
             let* _ = str_arg v in
             let* () = ctx.set_repr v in
             reply_unit);
       ]);
  Eden_typesys.Hierarchy.declare_exn h
    (Eden_typesys.Hierarchy.decl ~name:"queue" ~parent:"editable"
       ~attributes:[ ("display", Value.Str "list") ]
       [
         Typemgr.operation "push" (fun ctx args ->
             let* v = arg1 args in
             let* items =
               Value.to_list (ctx.get_repr ())
               |> Result.map_error (fun m -> Error.Bad_arguments m)
             in
             let* () = ctx.set_repr (Value.List (items @ [ v ])) in
             reply_unit);
         Typemgr.operation "pop" (fun ctx args ->
             let* () = no_args args in
             let* items =
               Value.to_list (ctx.get_repr ())
               |> Result.map_error (fun m -> Error.Bad_arguments m)
             in
             match items with
             | [] -> user_error "queue is empty"
             | x :: rest ->
               let* () = ctx.set_repr (Value.List rest) in
               reply [ x ]);
       ]);
  h

let editor_help () =
  print_string
    "commands:\n\
    \  mk doc|queue <name>        create an object (round-robin placement)\n\
    \  ls                         list objects\n\
    \  show <name>                render the structured representation\n\
    \  append <name> <text...>    document: add a line\n\
    \  push <name> <text>         queue: enqueue\n\
    \  pop <name>                 queue: dequeue\n\
    \  move <name> <node>         migrate the object\n\
    \  checkpoint <name>          save long-term state\n\
    \  crash <name>               simulate a failure (reincarnates on use)\n\
    \  nodes                      node heartbeats\n\
    \  help | quit\n"

let run_edit c =
  let nodes = c.nodes in
  let cl = default_cluster c in
  let h = editor_hierarchy () in
  (match Eden_typesys.Hierarchy.register_all h cl with
  | Ok () -> ()
  | Error e -> failwith e);
  let objects : (string, string * Capability.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let next_node = ref 0 in
  (* Run one blocking action against the cluster and drain the sim. *)
  let step f =
    let out = ref None in
    drive cl (fun () -> out := Some (f ()));
    !out
  in
  let find name =
    match Hashtbl.find_opt objects name with
    | Some x -> Some x
    | None ->
      Printf.printf "no object %S (try ls)\n" name;
      None
  in
  let show name =
    match find name with
    | None -> ()
    | Some (tname, cap) -> (
      match step (fun () -> Cluster.invoke cl ~from:0 cap ~op:"view" []) with
      | Some (Ok [ repr ]) ->
        print_endline
          (Eden_typesys.Display.render h ~type_name:tname ~title:name repr)
      | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
      | Some (Ok _) | None -> print_endline "unviewable")
  in
  let invoke_and_show name op args =
    match find name with
    | None -> ()
    | Some (_, cap) -> (
      match step (fun () -> Cluster.invoke cl ~from:0 cap ~op args) with
      | Some (Ok _) -> show name
      | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
      | None -> ())
  in
  editor_help ();
  let quit = ref false in
  while not !quit do
    print_string "edit> ";
    match In_channel.input_line stdin with
    | None -> quit := true
    | Some line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> ()
      | [ "quit" ] | [ "exit" ] -> quit := true
      | [ "help" ] -> editor_help ()
      | [ "ls" ] ->
        Hashtbl.iter
          (fun name (tname, cap) ->
            let where =
              match Cluster.where_is cl cap with
              | Some n -> Printf.sprintf "node %d" n
              | None -> "passive"
            in
            Printf.printf "  %-12s %-10s %s\n" name tname where)
          objects
      | [ "nodes" ] ->
        for i = 0 to nodes - 1 do
          let status =
            match
              step (fun () ->
                  Cluster.invoke cl ~from:0 ~timeout:(Time.ms 150)
                    (Cluster.node_object cl i) ~op:"ping" [])
            with
            | Some (Ok _) -> "UP"
            | Some (Error _) | None -> "DOWN"
          in
          Printf.printf "  node%d: %s\n" i status
        done
      | [ "mk"; kind; name ] when kind = "doc" || kind = "queue" ->
        if Hashtbl.mem objects name then
          Printf.printf "%S already exists\n" name
        else begin
          let tname, init =
            if kind = "doc" then ("document", Value.Str (name ^ ":"))
            else ("queue", Value.List [])
          in
          let node = !next_node mod nodes in
          incr next_node;
          match
            step (fun () ->
                Cluster.create_object cl ~node ~type_name:tname init)
          with
          | Some (Ok cap) ->
            Hashtbl.replace objects name (tname, cap);
            Printf.printf "created %s %S on node %d\n" tname name node
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | None -> ()
        end
      | [ "show"; name ] -> show name
      | "append" :: name :: rest ->
        invoke_and_show name "append_line"
          [ Value.Str (String.concat " " rest) ]
      | "push" :: name :: rest ->
        invoke_and_show name "push" [ Value.Str (String.concat " " rest) ]
      | [ "pop"; name ] -> invoke_and_show name "pop" []
      | [ "move"; name; node ] -> (
        match (find name, int_of_string_opt node) with
        | Some (_, cap), Some n when n >= 0 && n < nodes -> (
          match step (fun () -> Cluster.move cl cap ~to_node:n) with
          | Some (Ok ()) -> Printf.printf "moved %S to node %d\n" name n
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | None -> ())
        | Some _, _ -> print_endline "bad node"
        | None, _ -> ())
      | [ "checkpoint"; name ] -> (
        match find name with
        | None -> ()
        | Some (_, cap) -> (
          match step (fun () -> Cluster.checkpoint_of cl cap) with
          | Some (Ok ()) -> Printf.printf "%S checkpointed\n" name
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | None -> ()))
      | [ "crash"; name ] -> (
        match find name with
        | None -> ()
        | Some (_, cap) -> (
          match
            step (fun () -> Cluster.invoke cl ~from:0 cap ~op:"fail" [])
          with
          | Some (Error Error.Object_crashed) ->
            Printf.printf
              "%S crashed; it will reincarnate from its last checkpoint \
               on next use (if it has one)\n"
              name
          | Some (Error e) -> Printf.printf "error: %s\n" (Error.to_string e)
          | Some (Ok _) | None -> print_endline "crash did not happen"))
      | _ -> print_endline "unrecognised (try help)")
  done;
  Printf.printf "bye: %d invocations (%d remote), %s simulated\n"
    (Cluster.stats_invocations cl)
    (Cluster.stats_remote_invocations cl)
    (Time.to_string (Engine.now (Cluster.engine cl)))

(* ------------------------------------------------------------------ *)
(* stats *)

let run_stats c (locality, requests) =
  let cl = default_cluster c in
  let spec =
    {
      Eden_workload.Synthetic.default_spec with
      Eden_workload.Synthetic.locality;
      requests_per_user = requests;
    }
  in
  let r = Eden_workload.Synthetic.run_eden cl spec in
  Format.printf "%a@.@." Eden_workload.Synthetic.pp_results r;
  print_string (Eden_obs.Snapshot.pp_table (Cluster.metrics_snapshot cl))

(* ------------------------------------------------------------------ *)
(* metrics-check *)

(* Core instruments every cluster run must export; [make check] uses
   this to validate the smoke run's --metrics-out file. *)
let required_metrics =
  [
    ("eden.invocations", Some [ ("node", "0") ]);
    ("eden.hint_hits", Some [ ("node", "0") ]);
    ("eden.hint_misses", Some [ ("node", "0") ]);
    ("eden.invocation_latency_s", None);
    ("eden.journal.events", Some [ ("node", "0") ]);
    ("net.frames_sent", Some [ ("segment", "0") ]);
    ("net.collisions", Some [ ("segment", "0") ]);
    ("sim.events", None);
  ]

let run_metrics_check file =
  let fail msg = die "metrics-check: %s\n" msg in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg ->
    (* Open errors already name the file; read errors do not. *)
    let prefix = file ^ ": " in
    fail (if String.starts_with ~prefix msg then msg else prefix ^ msg)
  | contents -> (
    match Eden_obs.Snapshot.of_string contents with
    | Error e -> fail (Printf.sprintf "%s: parse error: %s" file e)
    | Ok snap -> (
      let missing =
        List.filter
          (fun (name, labels) ->
            Eden_obs.Snapshot.find snap ?labels name = None)
          required_metrics
      in
      match missing with
      | [] ->
        Printf.printf "metrics-check: OK (%d samples, t=%s)\n"
          (List.length snap.Eden_obs.Snapshot.metrics)
          (Time.to_string snap.Eden_obs.Snapshot.at)
      | _ ->
        List.iter
          (fun (name, labels) ->
            Printf.eprintf "metrics-check: missing %s%s\n" name
              (match labels with
              | None -> ""
              | Some l ->
                "{"
                ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l)
                ^ "}"))
          missing;
        exit 1))

(* ------------------------------------------------------------------ *)
(* info *)

let run_info () =
  print_endline "Eden reproduction (SOSP 1981, Lazowska et al.)";
  print_endline "";
  print_endline "libraries: eden_util eden_sim eden_net eden_hw eden_kernel";
  print_endline "           eden_obs eden_fault eden_typesys eden_efs";
  print_endline "           eden_baseline eden_workload";
  print_endline "examples : dune exec examples/quickstart.exe (and 5 more)";
  print_endline "benches  : dune exec bench/main.exe -- --list";
  print_endline "";
  let machine = Eden_hw.Machine.default_config ~name:"x" in
  Printf.printf "default node machine: %d GDPs, %d bytes memory\n"
    machine.Eden_hw.Machine.gdps machine.Eden_hw.Machine.memory_bytes;
  let p = Eden_net.Params.default in
  Printf.printf "network: %d Mb/s Ethernet, slot %s, max frame %dB\n"
    (p.Eden_net.Params.bandwidth_bps / 1_000_000)
    (Time.to_string p.Eden_net.Params.slot)
    p.Eden_net.Params.max_frame_bytes

(* ------------------------------------------------------------------ *)
(* The subcommand table *)

let commands =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  [
    ( "demo",
      "Shared counter incremented from every node.",
      Term.(const run_demo $ common $ outputs) );
    ( "mail",
      "Multi-user mail workload.",
      Term.(
        const run_mail $ common $ outputs
        $ count_opt [ "users" ] 2 "K" "Users per node."
        $ count_opt [ "messages" ] 8 "M" "Messages per user.") );
    ( "synth",
      "Synthetic invocation workload.",
      Term.(
        const run_synth $ common $ synth_load
        $ features [ Fault_plan; Replica_cache; Coalesce; Ckpt_delta; Directory ]
        $ outputs) );
    ( "efs",
      "EFS transaction workload on one shared file.",
      Term.(
        const run_efs $ common $ outputs
        $ count_opt [ "txns" ] 10 "T" "Concurrent transactions."
        $ flag "optimistic" "Optimistic concurrency control (default 2PL).") );
    ( "heartbeat",
      "Poll every node object; detect failures.",
      Term.(
        ret
          (const run_heartbeat $ common $ outputs
          $ Arg.(
              value
              & opt (some count) None
              & info [ "kill" ] ~docv:"I" ~doc:"Crash node $(docv) mid-run."))) );
    ( "chaos",
      "Mirrored counters under a deterministic fault plan (random from \
       --seed unless --fault-plan is given).",
      Term.(const run_chaos $ chaos_args all_features $ outputs) );
    ( "reconfig",
      "Join a spare and decommission a member while a counter stream runs: \
       online membership change over the epoch-stamped directory ring (plan \
       overridable with --fault-plan).",
      Term.(
        const run_reconfig $ common $ requests 180
        $ features [ Fault_plan; Spares ]
            ~spares:
              (count_opt [ "spares" ] 1 "K"
                 "Spare nodes racked beyond the boot membership, available \
                  for the plan's 'join' actions.")
        $ outputs) );
    ( "trace",
      "Run the chaos workload with causal tracing and export the merged \
       cross-node timeline.",
      Term.(
        const run_trace $ chaos_args all_features
        $ file_opt "out"
            "Write the assembled timeline as Chrome trace_event JSON to \
             $(docv) (open in chrome://tracing or ui.perfetto.dev)."
        $ file_opt "text"
            "Write the timeline as human-readable causal trees to $(docv)."
        $ flag "check"
            "Audit the assembled trace against the cross-node invariants \
             (matched send/recv, causal time order, retry termination, cache \
             install epochs); exit non-zero on any violation.") );
    ( "profile",
      "Run the chaos workload and attribute each request's latency, \
       along its causal trace in the journal, across \
       service/queue/wire/directory/backoff categories.",
      Term.(
        const run_profile $ chaos_args all_features
        $ file_opt "out"
            "Write the profile report (the same text as stdout) to $(docv); \
             byte-identical across same-seed runs."
        $ file_opt "json" "Write the profile as JSON to $(docv)."
        $ file_opt "folded"
            "Write folded flame-graph stacks (target.op;category count-in-ns \
             per line) to $(docv), ready for flamegraph.pl or speedscope."
        $ file_opt "chrome"
            "Write the causal timeline as Chrome trace_event JSON with one \
             attribution bar per request to $(docv)."
        $ flag "check"
            "Audit the trace against all eight invariants, including \
             attribution-complete (every request's category breakdown must \
             sum exactly to its end-to-end latency); exit non-zero on any \
             violation.") );
    ( "health",
      "Run the chaos workload with the health plane enabled and report SLO \
       rule states, alert transitions and the hottest objects.",
      Term.(
        const run_health $ chaos_args health_features
        $ file_opt "out"
            "Write the health report (SLO dashboard, alert transitions, hot \
             objects) to $(docv); byte-identical across same-seed runs."
        $ file_opt "json"
            "Write the health state and hot-object rollup as JSON.") );
    ( "top",
      "Run the chaos workload with the health plane enabled and show the \
       hottest objects per node and cluster-wide.",
      Term.(
        const run_top $ chaos_args health_features
        $ count_opt [ "k"; "top" ] 10 "K" "Entries per hot-object table."
        $ file_opt "json" "Write the cluster hot-object rollup as JSON.") );
    ( "stats",
      "Run a synthetic workload and print the metrics registry as per-node, \
       per-segment and cluster-wide tables.",
      Term.(const run_stats $ common $ synth_load) );
    ( "metrics-check",
      "Validate an exported metrics snapshot: parse the JSON and verify the \
       core instruments are present.",
      Term.(
        const run_metrics_check
        $ Arg.(
            required
            & pos 0 (some file) None
            & info [] ~docv:"FILE"
                ~doc:"Snapshot JSON written by --metrics-out.")) );
    ( "edit",
      "Interactive object editor (the editing paradigm).",
      Term.(const run_edit $ common) );
    ("info", "Show build configuration.", Term.(const run_info $ const ()));
  ]

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "edenctl" ~version:"1.0"
             ~doc:"Drive scenarios on the Eden reproduction.")
          (List.map
             (fun (name, doc, term) -> Cmd.v (Cmd.info name ~doc) term)
             commands)))
