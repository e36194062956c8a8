(* SLO watchdogs (see health.mli).  Per-tick reads go through
   Metrics.iter — one unordered table walk, no sample-list sort — and
   aggregate with order-insensitive folds (integer sums, float maxima),
   so the result is deterministic despite the walk order.  Windows hold
   per-tick deltas of the aggregated series; rules then query the same
   ring at two depths. *)

module Time = Eden_util.Time

type signal =
  | Rate of string
  | Ratio of string * string
  | Share of string * string
  | Quantile of string * float
  | Gauge_max of string

type cmp = Above | Below

type rule = {
  r_name : string;
  r_signal : signal;
  r_cmp : cmp;
  r_threshold : float;
}

type config = {
  hc_tick : Time.t;
  hc_short : int;
  hc_long : int;
  hc_rules : rule list;
}

let default_rules =
  [
    {
      r_name = "inv-latency-p99";
      r_signal = Quantile ("eden.invocation_latency_s", 0.99);
      r_cmp = Above;
      r_threshold = 1.0;
    };
    {
      r_name = "retry-ratio";
      r_signal = Ratio ("eden.retries", "eden.invocations");
      r_cmp = Above;
      r_threshold = 0.10;
    };
    {
      r_name = "cache-hit-share";
      r_signal = Share ("eden.replica_cache.hits", "eden.replica_cache.misses");
      r_cmp = Below;
      r_threshold = 0.5;
    };
    {
      r_name = "ckpt-lag";
      r_signal = Gauge_max "eden.ckpt.async_inflight";
      r_cmp = Above;
      r_threshold = 4.0;
    };
    {
      r_name = "queue-depth";
      r_signal = Gauge_max "eden.queue_depth";
      r_cmp = Above;
      r_threshold = 64.0;
    };
    {
      r_name = "pending-requests";
      r_signal = Gauge_max "eden.pending_requests";
      r_cmp = Above;
      r_threshold = 256.0;
    };
  ]

let default_config =
  {
    hc_tick = Time.of_sec 0.25;
    hc_short = 4;
    hc_long = 24;
    hc_rules = default_rules;
  }

(* Trackers: one per distinct metric name a rule mentions.  [cur]
   fields accumulate during the Metrics.iter walk; finalize turns them
   into the tick's delta (counters, histograms) or level (gauges). *)

type ctrack = {
  mutable ct_prev : int;
  mutable ct_cur : int;
  ct_win : Window.t;
}

type gtrack = {
  mutable gt_cur : float; (* neg_infinity = not seen this tick *)
  gt_win : Window.t;
}

type htrack = {
  mutable ht_nb : int; (* bucket-bound count; 0 until first sighting *)
  mutable ht_prev : int array;
  mutable ht_prev_over : int;
  mutable ht_cur : int array;
  mutable ht_cur_over : int;
  mutable ht_delta : int array;
  mutable ht_win : Window.Hist.h option;
  ht_ticks : int;
}

type rstate = {
  rs_rule : rule;
  mutable rs_firing : bool;
  mutable rs_short : float;
  mutable rs_long : float;
}

type t = {
  hs_cfg : config;
  hs_reg : Metrics.t;
  hs_counters : (string, ctrack) Hashtbl.t;
  hs_gauges : (string, gtrack) Hashtbl.t;
  hs_hists : (string, htrack) Hashtbl.t;
  hs_rules : rstate array;
  hs_on_transition : rule -> firing:bool -> value:float -> unit;
  mutable hs_ticks : int;
  mutable hs_transitions : int;
}

let track_counter t name =
  if not (Hashtbl.mem t.hs_counters name) then
    Hashtbl.replace t.hs_counters name
      { ct_prev = 0; ct_cur = 0; ct_win = Window.create ~ticks:t.hs_cfg.hc_long }

let track_gauge t name =
  if not (Hashtbl.mem t.hs_gauges name) then
    Hashtbl.replace t.hs_gauges name
      { gt_cur = neg_infinity; gt_win = Window.create ~ticks:t.hs_cfg.hc_long }

let track_hist t name =
  if not (Hashtbl.mem t.hs_hists name) then
    Hashtbl.replace t.hs_hists name
      {
        ht_nb = 0;
        ht_prev = [||];
        ht_prev_over = 0;
        ht_cur = [||];
        ht_cur_over = 0;
        ht_delta = [||];
        ht_win = None;
        ht_ticks = t.hs_cfg.hc_long;
      }

(* One registry walk: accumulate every tracked series into its [cur]
   fields.  Sums and maxima only, so walk order cannot matter. *)
let accumulate t =
  Hashtbl.iter (fun _ ct -> ct.ct_cur <- 0) t.hs_counters;
  Hashtbl.iter (fun _ gt -> gt.gt_cur <- neg_infinity) t.hs_gauges;
  Hashtbl.iter
    (fun _ ht ->
      if ht.ht_nb > 0 then begin
        Array.fill ht.ht_cur 0 ht.ht_nb 0;
        ht.ht_cur_over <- 0
      end)
    t.hs_hists;
  let tracked name =
    Hashtbl.mem t.hs_counters name
    || Hashtbl.mem t.hs_gauges name
    || Hashtbl.mem t.hs_hists name
  in
  Metrics.iter ~filter:tracked t.hs_reg (fun name _labels v ->
      match v with
      | Metrics.Counter n -> (
        match Hashtbl.find_opt t.hs_counters name with
        | Some ct -> ct.ct_cur <- ct.ct_cur + n
        | None -> ())
      | Metrics.Gauge g -> (
        match Hashtbl.find_opt t.hs_gauges name with
        | Some gt -> if not (Float.is_nan g) && g > gt.gt_cur then gt.gt_cur <- g
        | None -> ())
      | Metrics.Histogram hv -> (
        match Hashtbl.find_opt t.hs_hists name with
        | None -> ()
        | Some ht ->
          let nb = Array.length hv.Metrics.bounds in
          if ht.ht_nb = 0 then begin
            ht.ht_nb <- nb;
            ht.ht_prev <- Array.make nb 0;
            ht.ht_cur <- Array.make nb 0;
            ht.ht_delta <- Array.make nb 0;
            ht.ht_win <-
              Some (Window.Hist.create ~ticks:ht.ht_ticks ~bounds:hv.Metrics.bounds)
          end;
          if nb = ht.ht_nb then begin
            for i = 0 to nb - 1 do
              ht.ht_cur.(i) <- ht.ht_cur.(i) + hv.Metrics.counts.(i)
            done;
            ht.ht_cur_over <- ht.ht_cur_over + hv.Metrics.overflow
          end))

(* Move [cur] into the windows as this tick's delta/level. *)
let push_tick t =
  Hashtbl.iter
    (fun _ ct ->
      let d = ct.ct_cur - ct.ct_prev in
      ct.ct_prev <- ct.ct_cur;
      Window.push ct.ct_win (float_of_int (max 0 d)))
    t.hs_counters;
  Hashtbl.iter (fun _ gt -> Window.push gt.gt_win gt.gt_cur) t.hs_gauges;
  Hashtbl.iter
    (fun _ ht ->
      match ht.ht_win with
      | None -> ()
      | Some hw ->
        for i = 0 to ht.ht_nb - 1 do
          ht.ht_delta.(i) <- max 0 (ht.ht_cur.(i) - ht.ht_prev.(i));
          ht.ht_prev.(i) <- ht.ht_cur.(i)
        done;
        let dover = max 0 (ht.ht_cur_over - ht.ht_prev_over) in
        ht.ht_prev_over <- ht.ht_cur_over;
        Window.Hist.push hw ~counts:ht.ht_delta ~overflow:dover)
    t.hs_hists

let eval_signal t s k =
  match s with
  | Rate name ->
    Window.rate_last (Hashtbl.find t.hs_counters name).ct_win k
      ~tick:t.hs_cfg.hc_tick
  | Ratio (num, den) ->
    let n = Window.sum_last (Hashtbl.find t.hs_counters num).ct_win k in
    let d = Window.sum_last (Hashtbl.find t.hs_counters den).ct_win k in
    if d <= 0.0 then nan else n /. d
  | Share (a, b) ->
    let x = Window.sum_last (Hashtbl.find t.hs_counters a).ct_win k in
    let y = Window.sum_last (Hashtbl.find t.hs_counters b).ct_win k in
    if x +. y <= 0.0 then nan else x /. (x +. y)
  | Quantile (name, q) -> (
    match (Hashtbl.find t.hs_hists name).ht_win with
    | None -> nan
    | Some hw -> Window.Hist.quantile_last hw k q)
  | Gauge_max name ->
    let m = Window.max_last (Hashtbl.find t.hs_gauges name).gt_win k in
    if m = neg_infinity then nan else m

let breaches rule v =
  (not (Float.is_nan v))
  && (match rule.r_cmp with Above -> v > rule.r_threshold | Below -> v < rule.r_threshold)

let create ?(on_transition = fun _ ~firing:_ ~value:_ -> ()) cfg reg =
  if Time.is_zero cfg.hc_tick then invalid_arg "Health.create: zero tick";
  if cfg.hc_short < 1 then invalid_arg "Health.create: hc_short < 1";
  if cfg.hc_long < cfg.hc_short then
    invalid_arg "Health.create: hc_long < hc_short";
  List.iter
    (fun r ->
      match r.r_signal with
      | Quantile (_, q) when not (q >= 0.0 && q <= 1.0) ->
        invalid_arg "Health.create: quantile out of [0,1]"
      | _ -> ())
    cfg.hc_rules;
  let t =
    {
      hs_cfg = cfg;
      hs_reg = reg;
      hs_counters = Hashtbl.create 8;
      hs_gauges = Hashtbl.create 8;
      hs_hists = Hashtbl.create 4;
      hs_rules =
        Array.of_list
          (List.map
             (fun r ->
               { rs_rule = r; rs_firing = false; rs_short = nan; rs_long = nan })
             cfg.hc_rules);
      hs_on_transition = on_transition;
      hs_ticks = 0;
      hs_transitions = 0;
    }
  in
  List.iter
    (fun r ->
      match r.r_signal with
      | Rate n -> track_counter t n
      | Ratio (a, b) | Share (a, b) ->
        track_counter t a;
        track_counter t b
      | Quantile (n, _) -> track_hist t n
      | Gauge_max n -> track_gauge t n)
    cfg.hc_rules;
  (* Baseline: absorb pre-existing totals so the first tick's deltas
     measure the first tick only. *)
  accumulate t;
  Hashtbl.iter (fun _ ct -> ct.ct_prev <- ct.ct_cur) t.hs_counters;
  Hashtbl.iter
    (fun _ ht ->
      if ht.ht_nb > 0 then begin
        Array.blit ht.ht_cur 0 ht.ht_prev 0 ht.ht_nb;
        ht.ht_prev_over <- ht.ht_cur_over
      end)
    t.hs_hists;
  t

let tick t =
  accumulate t;
  push_tick t;
  t.hs_ticks <- t.hs_ticks + 1;
  Array.iter
    (fun rs ->
      let short = eval_signal t rs.rs_rule.r_signal t.hs_cfg.hc_short in
      let long = eval_signal t rs.rs_rule.r_signal t.hs_cfg.hc_long in
      rs.rs_short <- short;
      rs.rs_long <- long;
      let bs = breaches rs.rs_rule short and bl = breaches rs.rs_rule long in
      let firing' = if rs.rs_firing then bs || bl else bs && bl in
      if firing' <> rs.rs_firing then begin
        rs.rs_firing <- firing';
        t.hs_transitions <- t.hs_transitions + 1;
        t.hs_on_transition rs.rs_rule ~firing:firing' ~value:short
      end)
    t.hs_rules

let ticks t = t.hs_ticks

let firing t =
  Array.fold_left (fun n rs -> if rs.rs_firing then n + 1 else n) 0 t.hs_rules

let transitions t = t.hs_transitions

let signal_to_string = function
  | Rate n -> Printf.sprintf "rate(%s)/s" n
  | Ratio (a, b) -> Printf.sprintf "ratio(%s,%s)" a b
  | Share (a, b) -> Printf.sprintf "share(%s,%s)" a b
  | Quantile (n, q) -> Printf.sprintf "p%g(%s)" (q *. 100.0) n
  | Gauge_max n -> Printf.sprintf "max(%s)" n

let cmp_to_string = function Above -> ">" | Below -> "<"

let fmt_value v = if Float.is_nan v then "-" else Printf.sprintf "%.6g" v

let report t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "health: %d/%d firing | transitions %d | ticks %d (tick %.6gs, windows %d/%d)\n"
    (firing t)
    (Array.length t.hs_rules)
    t.hs_transitions t.hs_ticks
    (Time.to_sec t.hs_cfg.hc_tick)
    t.hs_cfg.hc_short t.hs_cfg.hc_long;
  Printf.bprintf buf "  %-18s %-52s %-10s %-10s %-10s %s\n" "rule" "signal"
    "threshold" "short" "long" "state";
  Array.iter
    (fun rs ->
      let r = rs.rs_rule in
      Printf.bprintf buf "  %-18s %-52s %-10s %-10s %-10s %s\n" r.r_name
        (signal_to_string r.r_signal)
        (Printf.sprintf "%s %.6g" (cmp_to_string r.r_cmp) r.r_threshold)
        (fmt_value rs.rs_short) (fmt_value rs.rs_long)
        (if rs.rs_firing then "FIRING" else "ok"))
    t.hs_rules;
  Buffer.contents buf

let json_of_value v = if Float.is_nan v then Json.Null else Json.Float v

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "eden-health/1");
      ("tick_s", Json.Float (Time.to_sec t.hs_cfg.hc_tick));
      ("short_ticks", Json.Int t.hs_cfg.hc_short);
      ("long_ticks", Json.Int t.hs_cfg.hc_long);
      ("ticks", Json.Int t.hs_ticks);
      ("transitions", Json.Int t.hs_transitions);
      ("alerts_firing", Json.Int (firing t));
      ( "rules",
        Json.List
          (Array.to_list
             (Array.map
                (fun rs ->
                  let r = rs.rs_rule in
                  Json.Obj
                    [
                      ("name", Json.Str r.r_name);
                      ("signal", Json.Str (signal_to_string r.r_signal));
                      ("cmp", Json.Str (cmp_to_string r.r_cmp));
                      ("threshold", Json.Float r.r_threshold);
                      ("short", json_of_value rs.rs_short);
                      ("long", json_of_value rs.rs_long);
                      ("firing", Json.Bool rs.rs_firing);
                    ])
                t.hs_rules)) );
    ]
