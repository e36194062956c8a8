(* The experiment harness: one entry per experiment in EXPERIMENTS.md.

     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- E5 E7     # run a subset
     dune exec bench/main.exe -- --list    # enumerate experiments *)

let experiments =
  [
    ("E1", "invocation cost and cluster scaling", Exp_invocation.run);
    ("E2", "node machine provisioning (GDPs, memory)", Exp_node.run);
    ("E3", "Ethernet behaviour under load", Exp_ethernet.run);
    ("E4", "invocation-class concurrency bounds", Exp_classes.run);
    ("E5", "checkpoint cost vs size and reliability", Exp_checkpoint.run);
    ("E6", "crash and reincarnation latency", Exp_recovery.run);
    ("E7", "object mobility", Exp_mobility.run);
    ("E8", "frozen-object replication", Exp_replication.run);
    ("E9", "integration vs distribution (thesis)", Exp_spectrum.run);
    ("E10", "EFS concurrency control and replication", Exp_efs.run);
    ("E11", "sync vs async invocation", Exp_async.run);
    ("E12", "timeout behaviour", Exp_timeout.run);
    ("E13", "location-machinery ablation", Exp_ablation.run);
    ("E14", "edit/compile development workload", Exp_devel.run);
    ("E15", "two-segment Eden: bridge cost", Exp_segments.run);
    ("E16", "availability under node churn", Exp_availability.run);
    ("E17", "availability under fault injection (checksites)", Exp_faults.run);
    ("E18", "replica cache + message coalescing (hot path)", Exp_cache.run);
    ("E19", "delta + async checkpoints vs full sync", Exp_delta.run);
    ("E20", "event-journal overhead on invocation", Exp_journal.run);
    ("E21", "health-plane overhead and hot-object recovery", Exp_health.run);
    ("E22", "tail latency: request cloning and hedged retries", Exp_tail.run);
    ("E23", "sharded locate directory vs broadcast scaling", Exp_directory.run);
    ("E24", "online reconfiguration: join, drain, leave under load", Exp_reconfig.run);
    ("E25", "critical-path profiler: attribution under injected bottlenecks", Exp_profile.run);
    ("M", "substrate microbenchmarks (Bechamel)", Micro.run);
  ]

let list_experiments () =
  List.iter
    (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title)
    experiments

(* Each experiment's output ends with a METRICS line (the registry
   snapshot of the last cluster it built) and a BENCH_<id>.json
   summary file (its headline results and counter totals). *)
let run_one (id, title, run) =
  Common.reset_metrics ();
  run ();
  Common.attach_metrics ~id ();
  Common.write_summary ~id ~title ()

(* Pull [--trace-out FILE] and [--smoke] out of the argument list
   (they modify how E13, E18 and E22-E25 run rather than selecting an
   experiment). *)
let rec extract_trace_out = function
  | [] -> []
  | "--trace-out" :: file :: rest ->
    Exp_cache.trace_out := Some file;
    extract_trace_out rest
  | [ "--trace-out" ] ->
    Printf.eprintf "--trace-out needs a file argument\n";
    exit 1
  | "--smoke" :: rest ->
    Exp_ablation.smoke := true;
    Exp_tail.smoke := true;
    Exp_directory.smoke := true;
    Exp_reconfig.smoke := true;
    Exp_profile.smoke := true;
    extract_trace_out rest
  | a :: rest -> a :: extract_trace_out rest

let () =
  let args = extract_trace_out (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [ "--list" ] -> list_experiments ()
  | [] ->
    Printf.printf
      "Eden reproduction experiment suite (all experiments; pass ids to \
       select, --list to enumerate)\n";
    List.iter run_one experiments
  | ids ->
    List.iter
      (fun id ->
        match
          List.find_opt
            (fun (eid, _, _) -> String.lowercase_ascii eid = String.lowercase_ascii id)
            experiments
        with
        | Some exp -> run_one exp
        | None ->
          Printf.eprintf "unknown experiment %S; try --list\n" id;
          exit 1)
      ids
