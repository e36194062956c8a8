(* E21 — health-plane overhead and hot-object recovery.

   Part A: the health plane samples the metrics registry on a virtual
   clock, so a run with it enabled executes the exact same event
   schedule as one without (asserted via end-of-run virtual times).
   What it costs is host time: a registry walk plus window pushes per
   tick, and a top-k sketch update per invocation.  Run E20's seeded
   invocation workload with the plane off and on and compare host CPU
   time with the same paired-ratio methodology (interleaved pairs from
   a compacted heap; median of per-pair ratios — see
   {!Common.paired_overhead} for why medians of absolutes don't cancel
   machine drift).  The overhead is printed against E20's 5% bar but
   not gated.

   Part B: accuracy of the space-saving hot-object sketch.  Drive a
   seeded Zipf(s=1.2) invocation stream over more distinct objects
   than the sketch holds, then compare the cluster rollup's top 10
   against the true top 10 counted exactly on the side.  Acceptance:
   at least 9 of the true top 10 recovered, and every reported error
   bound within total/capacity. *)

open Eden_util
open Eden_kernel
open Common

let nodes = 4
let iters = 48_000
let repeats = 7

(* ------------------------------------------------------------------ *)
(* Part B: Zipf stream against the top-k rollup. *)

let zipf_objects = 64
let zipf_invocations = 4_000
let zipf_s = 1.2

(* Sample ranks 1..n from Zipf(s) by inverting the CDF over a
   precomputed table — deterministic given the Splitmix stream. *)
let zipf_sampler rng ~n ~s =
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float (i + 1)) s) in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cdf.(i) <- !acc)
    weights;
  let total = !acc in
  fun () ->
    let u = Splitmix.float rng total in
    (* First index whose cumulative weight exceeds the draw. *)
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then find lo mid else find (mid + 1) hi
    in
    find 0 (n - 1)

let zipf_accuracy () =
  let cl =
    fresh_cluster ~seed:91L ~health:Eden_obs.Health.default_config ~n:nodes
      ()
  in
  let true_counts = Array.make zipf_objects 0 in
  let keys =
    drive cl (fun () ->
        let caps =
          Array.init zipf_objects (fun i ->
              must "create"
                (Cluster.create_object cl ~node:(i mod nodes)
                   ~type_name:"bench_obj" Value.Unit))
        in
        let rng = Splitmix.create 0xE21L in
        let draw = zipf_sampler rng ~n:zipf_objects ~s:zipf_s in
        for i = 1 to zipf_invocations do
          let r = draw () in
          true_counts.(r) <- true_counts.(r) + 1;
          ignore
            (must "ping"
               (Cluster.invoke cl ~from:(i mod nodes) caps.(r) ~op:"ping" []))
        done;
        Array.map (fun c -> Name.to_string (Capability.name c)) caps)
  in
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare (b : int) a)
      (Array.to_list (Array.mapi (fun i c -> (keys.(i), c)) true_counts))
  in
  let true_top10 = List.filteri (fun i _ -> i < 10) ranked in
  let reported = Cluster.hot_objects_rollup cl ~k:10 () in
  let recovered =
    List.length
      (List.filter
         (fun (k, _) ->
           List.exists (fun e -> e.Eden_obs.Topk.e_key = k) reported)
         true_top10)
  in
  (cl, true_top10, reported, recovered)

let run () =
  heading "E21" "health-plane overhead and hot-object recovery";
  let ov =
    paired_overhead ~id:"E21" ~feature:"the health plane" ~iters ~repeats
      ~off:(fun () -> fresh_cluster ~n:nodes ())
      ~on:(fun () ->
        fresh_cluster ~health:Eden_obs.Health.default_config ~n:nodes ())
  in
  let ticks =
    match Cluster.health ov.ov_on with
    | Some h -> Eden_obs.Health.ticks h
    | None -> 0
  in
  let overhead = 100.0 *. (ov.ov_ratio -. 1.0) in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E21a %d invocations across %d nodes (median of %d)"
           iters nodes repeats)
      ~columns:
        [
          ("health plane", Table.Left);
          ("host time", Table.Right);
          ("virtual time", Table.Right);
          ("ticks", Table.Right);
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
      "on (default config)";
      Printf.sprintf "%.3fs" ov.ov_on_s;
      Time.to_string ov.ov_virt;
      Table.cell_int ticks;
    ];
  Table.print t;
  note
    "health-plane overhead: %.1f%% host time (median of %d paired off/on \
     ratios) for %d sampler ticks, measured against E20's 5%% bar and \
     not gated; virtual time is identical (checked: the sampler \
     observes, never schedules)."
    overhead repeats ticks;
  (* Part B. *)
  let cl, true_top10, reported, recovered = zipf_accuracy () in
  ignore cl;
  let total =
    List.fold_left (fun acc e -> acc + e.Eden_obs.Topk.e_count) 0 reported
  in
  ignore total;
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E21b Zipf(s=%.1f) stream: %d invocations over %d objects"
           zipf_s zipf_invocations zipf_objects)
      ~columns:
        [
          ("rank", Table.Right);
          ("true object", Table.Left);
          ("true count", Table.Right);
          ("sketch object", Table.Left);
          ("sketch count", Table.Right);
          ("err", Table.Right);
        ]
  in
  List.iteri
    (fun i ((tk, tc), e) ->
      Table.add_row t
        [
          Table.cell_int (i + 1);
          tk;
          Table.cell_int tc;
          e.Eden_obs.Topk.e_key;
          Table.cell_int e.Eden_obs.Topk.e_count;
          Table.cell_int e.Eden_obs.Topk.e_err;
        ])
    (List.combine true_top10 reported);
  Table.print t;
  let worst_err =
    List.fold_left (fun acc e -> max acc e.Eden_obs.Topk.e_err) 0 reported
  in
  note
    "top-k recovery: %d/10 of the true top 10 in the rollup (acceptance: \
     >= 9); worst error bound %d (space-saving guarantee: <= \
     total/capacity = %d)."
    recovered worst_err
    (zipf_invocations / 64)
