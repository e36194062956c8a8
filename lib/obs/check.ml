open Eden_util

type violation = { v_rule : string; v_event : int option; v_detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%s]%s %s" v.v_rule
    (match v.v_event with
    | Some id -> Printf.sprintf " event #%d:" id
    | None -> "")
    v.v_detail

(* Failures carry their rule *names* in machine-readable form too, so
   downstream tooling never has to map positional indexes back to
   rules. *)
let violation_json v =
  Json.Obj
    [
      ("rule", Json.Str v.v_rule);
      ( "event",
        match v.v_event with Some id -> Json.Int id | None -> Json.Null );
      ("detail", Json.Str v.v_detail);
    ]

let violations_to_json vs = Json.List (List.map violation_json vs)

(* The eight cross-node invariants.  [complete = false] (some journal
   ring wrapped) downgrades the rules that need every event to be
   present — a missing send or a missing trace tail would otherwise
   read as a violation.

   Every rule reads one {!Index} of the timeline.  Rules that report
   per event walk the events in the timeline's own order, so the
   report lists violations in that order; per-trace state lives in
   arrays indexed by trace ordinal. *)
let run ?(complete = true) (tl : Timeline.t) =
  let ix = Index.of_events (Timeline.events tl) in
  let evs = Index.events ix in
  let n = Index.length ix in
  let out = ref [] in
  let add v_rule v_event v_detail = out := { v_rule; v_event; v_detail } :: !out in
  let iter_input f =
    for i = 0 to n - 1 do
      let p = Index.input ix i in
      f p (Array.unsafe_get evs p)
    done
  in
  (* 1. Every recv has a matching send: its parent event exists, is a
     send, and was recorded at the node the receiver names as source. *)
  if complete then
    iter_input (fun pos (e : Journal.event) ->
        match e.ev_kind with
        | Journal.Recv { src; msg } -> (
          let p = e.ev_parent in
          if p < 0 then
            add "recv-matches-send" (Some e.ev_id)
              (Printf.sprintf "recv of %s has no parent" msg)
          else (
            let q = Index.parent ix pos in
            if q < 0 then
              add "recv-matches-send" (Some e.ev_id)
                (Printf.sprintf "parent #%d of recv %s is not in any journal"
                   p msg)
            else
              let pe = evs.(q) in
              match pe.ev_kind with
              | Journal.Send _ ->
                if pe.ev_node <> src then
                  add "recv-matches-send" (Some e.ev_id)
                    (Printf.sprintf
                       "recv names source n%d but send #%d is on n%d" src p
                       pe.ev_node)
              | k ->
                add "recv-matches-send" (Some e.ev_id)
                  (Printf.sprintf "parent #%d is a %s, not a send" p
                     (Journal.kind_name k))))
        | _ -> ());

  (* 2. No event is ordered against virtual time relative to its
     causal parent. *)
  iter_input (fun pos (e : Journal.event) ->
      let p = e.ev_parent in
      if p >= 0 && p <> e.ev_id then begin
        let q = Index.parent ix pos in
        if q >= 0 then begin
          let pe = evs.(q) in
          if Time.compare pe.ev_at e.ev_at > 0 then
            add "causal-time-order" (Some e.ev_id)
              (Printf.sprintf "at %s but its parent #%d is at %s"
                 (Time.to_string e.ev_at) p (Time.to_string pe.ev_at))
        end
      end);

  (* Per trace, the newest [Dir_fallback] and the newest [Inv_end] —
     what rules 3, 6 and 7 ask of a trace's tail.  Event ids are
     non-negative, so 0 stands for "none". *)
  let trace_of = if complete then Index.trace_of ix else [||] in
  let nt = if complete then Index.traces ix else 0 in
  let last_fallback = Array.make nt 0 and last_end = Array.make nt 0 in
  if complete then
    Array.iteri
      (fun p (e : Journal.event) ->
        match e.ev_kind with
        | Journal.Inv_end _ ->
          let k = trace_of.(p) in
          last_end.(k) <- max last_end.(k) e.ev_id
        | Journal.Dir_fallback _ ->
          let k = trace_of.(p) in
          last_fallback.(k) <- max last_fallback.(k) e.ev_id
        | _ -> ())
      evs;

  (* 3. Every retry chain terminates: a trace containing a retry must
     also contain a later invocation end (ok or error). *)
  if complete then
    iter_input (fun pos (e : Journal.event) ->
        match e.ev_kind with
        | Journal.Retry { op; attempt } ->
          if not (last_end.(trace_of.(pos)) > e.ev_id) then
            add "retry-terminates" (Some e.ev_id)
              (Printf.sprintf
                 "retry #%d of %s in trace %d has no later inv_end" attempt
                 op e.ev_trace)
        | _ -> ());

  (* 4. A replica install never follows its invalidation: per
     (node, target), an install's epoch is at least every earlier
     invalidation epoch on that node. *)
  let epochs = Hashtbl.create 64 in
  iter_input (fun _ (e : Journal.event) ->
      match e.ev_kind with
      | Journal.Cache_invalidate { target; epoch } ->
        let key = (e.ev_node, target) in
        let cur =
          match Hashtbl.find_opt epochs key with Some x -> x | None -> 0
        in
        Hashtbl.replace epochs key (max cur epoch)
      | Journal.Cache_install { target; epoch } -> (
        match Hashtbl.find_opt epochs (e.ev_node, target) with
        | Some bumped when epoch < bumped ->
          add "install-epoch" (Some e.ev_id)
            (Printf.sprintf
               "install of %s at epoch %d on n%d after invalidation bumped \
                the epoch to %d"
               target epoch e.ev_node bumped)
        | _ -> ())
      | _ -> ());

  (* 5. Every clone fan-out resolves to exactly one win plus cancelled
     (or never-sent-to) losers.  Per trace: each fan-out to S sites
     must account for all S — either one win and S-1 cancels, or (no
     winner: timeout / every site nacked) S cancels.  So across a
     trace, wins <= fan-outs and wins + cancels = total sites.  Needs
     complete journals: a dropped cancel event would read as a leak.
     [acct] holds fan-outs, sites, wins and cancels, four ints per
     trace ordinal. *)
  if complete then begin
    let acct = Array.make (4 * nt) 0 in
    let bump p i d =
      let j = (4 * trace_of.(p)) + i in
      acct.(j) <- acct.(j) + d
    in
    Array.iteri
      (fun p (e : Journal.event) ->
        match e.ev_kind with
        | Journal.Clone_fanout { sites; _ } -> bump p 0 1; bump p 1 sites
        | Journal.Clone_win _ -> bump p 2 1
        | Journal.Clone_cancel _ -> bump p 3 1
        | _ -> ())
      evs;
    for k = 0 to nt - 1 do
      let trace = Index.trace_id ix k in
      let fans = acct.(4 * k) and sites = acct.((4 * k) + 1)
      and wins = acct.((4 * k) + 2) and cancels = acct.((4 * k) + 3) in
      if fans = 0 then begin
        if wins > 0 || cancels > 0 then
          add "clone-resolves-once" None
            (Printf.sprintf
               "trace %d has %d win(s) and %d cancel(s) but no fan-out"
               trace wins cancels)
      end
      else if wins > fans then
        add "clone-resolves-once" None
          (Printf.sprintf "trace %d: %d wins for %d fan-out(s)" trace
             wins fans)
      else if wins + cancels <> sites then
        add "clone-resolves-once" None
          (Printf.sprintf
             "trace %d: %d fan-out(s) to %d site(s) resolved as %d \
              win(s) + %d cancel(s)"
             trace fans sites wins cancels)
    done
  end;

  (* 6. The directory resolves to the true home or falls back: per
     trace, a [Dir_hit] must be followed (later event, same trace) by
     the invocation's end or an explicit [Dir_fallback] — a hit may
     never strand an attempt on a stale answer with neither outcome —
     and a [Dir_miss] must always be followed by a [Dir_fallback] (a
     miss has no answer to act on, so broadcast is mandatory).  Needs
     complete journals: a dropped tail would read as a stranding. *)
  if complete then
    iter_input (fun pos (e : Journal.event) ->
        let resolved ~fallback_only what target =
          let k = trace_of.(pos) in
          let ok =
            last_fallback.(k) > e.ev_id
            || ((not fallback_only) && last_end.(k) > e.ev_id)
          in
          if not ok then
            add "dir-resolves-or-falls-back" (Some e.ev_id)
              (Printf.sprintf
                 "dir %s for %s in trace %d has no later %s" what target
                 e.ev_trace
                 (if fallback_only then "dir_fallback"
                  else "inv_end or dir_fallback"))
        in
        match e.ev_kind with
        | Journal.Dir_hit { target; _ } ->
          resolved ~fallback_only:false "hit" target
        | Journal.Dir_miss { target } ->
          resolved ~fallback_only:true "miss" target
        | _ -> ());

  (* 7. Epoch-monotonic: membership views only move forward, and a
     stale view never strands a locate.  Per node, successive
     [Epoch_bump]s carry strictly increasing epochs (a view that went
     backwards would resurrect a retired ring).  And a [Dir_hit]
     consumed at a node whose view lags the newest epoch any node has
     reached must still resolve — a later invocation end or an
     explicit [Dir_fallback] in its trace — so serving through an old
     ring can cost a detour or a broadcast, never a stranded attempt.
     Vacuous on traces with no reconfiguration.  Needs complete
     journals: a dropped bump or trace tail would read as a
     violation.  Event ids are allocated in engine execution order, so
     walking the index in id order replays the cluster's actual
     interleaving. *)
  if complete then begin
    let view = Itbl.create 16 in
    let view_of node = match Itbl.find view node with v -> v | exception Not_found -> 0 in
    let newest = ref 0 in
    Array.iteri
      (fun p (e : Journal.event) ->
        match e.ev_kind with
        | Journal.Epoch_bump { epoch } ->
          let prev = view_of e.ev_node in
          if epoch <= prev then
            add "epoch-monotonic" (Some e.ev_id)
              (Printf.sprintf
                 "n%d bumped to epoch %d after already reaching epoch %d"
                 e.ev_node epoch prev);
          Itbl.replace view e.ev_node (max epoch prev);
          if epoch > !newest then newest := epoch
        | Journal.Dir_hit { target; _ } ->
          let mine = view_of e.ev_node in
          if mine < !newest then begin
            let k = trace_of.(p) in
            if not (last_fallback.(k) > e.ev_id || last_end.(k) > e.ev_id)
            then
              add "epoch-monotonic" (Some e.ev_id)
                (Printf.sprintf
                   "dir hit for %s on n%d (view e%d, cluster at e%d) in \
                    trace %d has no later inv_end or dir_fallback"
                   target e.ev_node mine !newest e.ev_trace)
          end
        | _ -> ())
      evs
  end;

  (* 8. Attribution-complete: for every trace bracketing a whole
     request, the critical-path profiler's per-category nanoseconds
     must sum to the request's end-to-end latency exactly.  The walk
     telescopes consecutive inter-event gaps, so this holds by
     construction when the classifier is sound — the rule is a
     tripwire for classifier drift (a hold-split that stops summing, a
     gap double-counted between branches).  Needs complete journals: a
     truncated trace has no well-defined end-to-end latency. *)
  if complete then
    List.iter
      (fun (bd : Critical.breakdown) ->
        let sum = Critical.sum_parts bd in
        if sum <> bd.bd_total_ns then
          add "attribution-complete" None
            (Printf.sprintf
               "trace %d (%s.%s): categories sum to %dns but end-to-end \
                latency is %dns"
               bd.bd_trace bd.bd_target bd.bd_op sum bd.bd_total_ns))
      (fst (Critical.of_index ix));
  List.rev !out
