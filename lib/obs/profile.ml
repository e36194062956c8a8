open Eden_util

type t = {
  pf_by_trace : Critical.breakdown list;  (* ascending by trace id *)
  pf_sorted : Critical.breakdown array;
      (* ascending by (total latency, trace id) *)
  pf_skipped : int;
  pf_total_ns : int;
  pf_parts : int array;  (* aggregate ns per category *)
}

let of_timeline tl =
  let bds, skipped = Critical.of_index (Index.of_events (Timeline.events tl)) in
  let parts = Array.make Critical.n_categories 0 in
  let total = ref 0 in
  List.iter
    (fun (bd : Critical.breakdown) ->
      total := !total + bd.bd_total_ns;
      for i = 0 to Critical.n_categories - 1 do
        parts.(i) <- parts.(i) + bd.bd_parts.(i)
      done)
    bds;
  (* Quantiles must be byte-reproducible, so they are selections, not
     interpolations: sort the per-request breakdowns by total latency
     (trace id as tie-break) and report the nearest-rank request's
     exact breakdown.  [bds] ascend by trace id and the sort is stable,
     so sorting by total alone breaks ties by trace. *)
  let by_trace = Array.of_list bds in
  let order, _ =
    Radix.order
      (Array.map (fun (bd : Critical.breakdown) -> bd.bd_total_ns) by_trace)
  in
  let sorted = Array.map (fun i -> by_trace.(i)) order in
  {
    pf_by_trace = bds;
    pf_sorted = sorted;
    pf_skipped = skipped;
    pf_total_ns = !total;
    pf_parts = parts;
  }

let requests t = Array.length t.pf_sorted
let skipped t = t.pf_skipped
let total_ns t = t.pf_total_ns

let share t c =
  if t.pf_total_ns <= 0 then 0.
  else
    float_of_int t.pf_parts.(Critical.category_index c)
    /. float_of_int t.pf_total_ns

let dominant t =
  let best = ref Critical.Service in
  List.iter
    (fun c -> if share t c > share t !best then best := c)
    Critical.categories;
  !best

(* Nearest-rank selection on the (total, trace)-sorted breakdowns. *)
let quantile t q =
  let n = Array.length t.pf_sorted in
  if n = 0 then None
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    Some t.pf_sorted.(idx)
  end

let pct x = 100. *. x

let pp_ns ns = Time.to_string (Time.ns ns)

let to_text t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "critical-path profile\n";
  Buffer.add_string b
    (Printf.sprintf "  requests attributed: %d (skipped %d incomplete)\n"
       (requests t) t.pf_skipped);
  Buffer.add_string b
    (Printf.sprintf "  attributed virtual time: %s\n" (pp_ns t.pf_total_ns));
  Buffer.add_string b "  aggregate shares:\n";
  List.iter
    (fun c ->
      let ns = t.pf_parts.(Critical.category_index c) in
      if ns > 0 then
        Buffer.add_string b
          (Printf.sprintf "    %-9s %6.2f%%  %s\n" (Critical.category_name c)
             (pct (share t c)) (pp_ns ns)))
    Critical.categories;
  let quant name q =
    match quantile t q with
    | None -> ()
    | Some bd ->
      Buffer.add_string b
        (Printf.sprintf "  %s: %s %s.%s -> %s (trace %d)\n" name
           (pp_ns bd.bd_total_ns) bd.bd_target bd.bd_op bd.bd_outcome
           bd.bd_trace);
      List.iter
        (fun c ->
          let ns = Critical.part bd c in
          if ns > 0 then
            Buffer.add_string b
              (Printf.sprintf "    %-9s %6.2f%%  %s\n"
                 (Critical.category_name c)
                 (pct (float_of_int ns /. float_of_int (max 1 bd.bd_total_ns)))
                 (pp_ns ns)))
        Critical.categories
  in
  quant "p50" 0.50;
  quant "p95" 0.95;
  quant "p999" 0.999;
  Buffer.contents b

let breakdown_json (bd : Critical.breakdown) =
  Json.Obj
    [
      ("trace", Json.Int bd.bd_trace);
      ("node", Json.Int bd.bd_node);
      ("op", Json.Str bd.bd_op);
      ("target", Json.Str bd.bd_target);
      ("outcome", Json.Str bd.bd_outcome);
      ("total_ns", Json.Int bd.bd_total_ns);
      ( "parts",
        Json.Obj
          (List.map
             (fun c ->
               (Critical.category_name c, Json.Int (Critical.part bd c)))
             Critical.categories) );
    ]

let to_json t =
  let quant name q acc =
    match quantile t q with
    | None -> acc
    | Some bd -> (name, breakdown_json bd) :: acc
  in
  Json.Obj
    ([
       ("requests", Json.Int (requests t));
       ("skipped", Json.Int t.pf_skipped);
       ("total_ns", Json.Int t.pf_total_ns);
       ( "parts",
         Json.Obj
           (List.map
              (fun c ->
                ( Critical.category_name c,
                  Json.Int t.pf_parts.(Critical.category_index c) ))
              Critical.categories) );
       ("dominant", Json.Str (Critical.category_name (dominant t)));
     ]
    @ List.rev
        (quant "p999" 0.999 (quant "p95" 0.95 (quant "p50" 0.50 []))))

(* Folded flame-graph stacks (Brendan Gregg's flamegraph.pl format):
   one "frame;frame;frame value" line per stack, value in nanoseconds.
   Stack: root; operation; category.  Aggregated over all requests and
   sorted, so same-seed runs emit byte-identical files. *)
let to_folded t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (bd : Critical.breakdown) ->
      List.iter
        (fun c ->
          let ns = Critical.part bd c in
          if ns > 0 then begin
            let key =
              Printf.sprintf "eden;%s.%s;%s" bd.bd_target bd.bd_op
                (Critical.category_name c)
            in
            let prior = Option.value (Hashtbl.find_opt tbl key) ~default:0 in
            Hashtbl.replace tbl key (prior + ns)
          end)
        Critical.categories)
    t.pf_by_trace;
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let lines = List.sort (fun (a, _) (b, _) -> String.compare a b) lines in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) lines)

(* Per-request "X" (complete) trace_event entries: one duration bar
   per attributed request on its trace's track, with the category
   breakdown in [args].  Feed to {!Timeline.to_chrome_string} via
   [?extra] so the bars overlay the event instants and flow arrows. *)
let chrome_extra t =
  List.map
    (fun (bd : Critical.breakdown) ->
      Json.Obj
        [
          ( "name",
            Json.Str
              (Printf.sprintf "%s.%s (%s)" bd.bd_target bd.bd_op
                 (Critical.category_name (Critical.dominant bd))) );
          ("cat", Json.Str "critical-path");
          ("ph", Json.Str "X");
          ("ts", Json.Float (float_of_int (Time.to_ns bd.bd_begin) /. 1000.));
          ("dur", Json.Float (float_of_int bd.bd_total_ns /. 1000.));
          ("pid", Json.Int bd.bd_node);
          ("tid", Json.Int bd.bd_trace);
          ( "args",
            Json.Obj
              (("outcome", Json.Str bd.bd_outcome)
              :: List.map
                   (fun c ->
                     ( Critical.category_name c ^ "_ns",
                       Json.Int (Critical.part bd c) ))
                   Critical.categories) );
        ])
    t.pf_by_trace
