open Eden_util

type category =
  | Service
  | Queue
  | Wire
  | Coalesce
  | Directory
  | Backoff
  | Spec_wait
  | Drain
  | Wait

let categories =
  [ Service; Queue; Wire; Coalesce; Directory; Backoff; Spec_wait; Drain;
    Wait ]

let category_name = function
  | Service -> "service"
  | Queue -> "queue"
  | Wire -> "wire"
  | Coalesce -> "coalesce"
  | Directory -> "directory"
  | Backoff -> "backoff"
  | Spec_wait -> "spec-wait"
  | Drain -> "drain"
  | Wait -> "wait"

let category_index = function
  | Service -> 0
  | Queue -> 1
  | Wire -> 2
  | Coalesce -> 3
  | Directory -> 4
  | Backoff -> 5
  | Spec_wait -> 6
  | Drain -> 7
  | Wait -> 8

let n_categories = 9

type breakdown = {
  bd_trace : int;
  bd_node : int;
  bd_op : string;
  bd_target : string;
  bd_outcome : string;
  bd_begin : Time.t;
  bd_total_ns : int;
  bd_parts : int array;
}

let part bd c = bd.bd_parts.(category_index c)

let dominant bd =
  let best = ref Service in
  List.iter (fun c -> if part bd c > part bd !best then best := c) categories;
  !best

(* Location-machinery traffic: locate broadcasts and replies, registry
   lookups/publishes/nacks, proactive hints, and the stale-location
   nacks that send a requester back to locate.  (Prefixes of
   [Message.describe] output; see message.ml.) *)
let rec same_from p s i =
  i = String.length p
  || (String.unsafe_get p i = String.unsafe_get s i && same_from p s (i + 1))

let has_prefix p s = String.length s >= String.length p && same_from p s 0

let directory_message msg =
  String.length msg > 0
  &&
  match String.unsafe_get msg 0 with
  | 'l' -> has_prefix "locate" msg
  | 'd' -> has_prefix "dir" msg
  | 'h' -> has_prefix "hint" msg
  | 'i' -> has_prefix "inv_nack" msg
  | _ -> false

(* Holds recorded against a Send (the hold event's parent is the send
   id) let the Recv gap be split: the held span is the sender sitting
   on the message — endpoint degradation, charged to service — and
   only the remainder is wire time.  [holds] maps a send id to its
   held spans; a trace without holds shares one empty table, which
   the lookup skips. *)
let no_holds : (int * int) list Itbl.t = Itbl.create 1

let hold_overlap holds ~parent ~t0 ~t1 =
  if holds == no_holds then 0
  else
    match Itbl.find holds parent with
    | exception Not_found -> 0
    | spans ->
      List.fold_left
        (fun acc (h0, h1) ->
          let lo = max t0 h0 and hi = min t1 h1 in
          acc + max 0 (hi - lo))
        0 spans

let add parts c ns =
  let i = category_index c in
  Array.unsafe_set parts i (Array.unsafe_get parts i + ns)

(* Charge the gap between two consecutive events of a trace to
   [parts]: every gap maps to spans whose nanoseconds sum to the gap
   exactly, so the per-trace category sums telescope to
   (end - begin) by construction. *)
let charge parts ~holds prev cur =
  let t0 = Time.to_ns prev.Journal.ev_at
  and t1 = Time.to_ns cur.Journal.ev_at in
  let gap = t1 - t0 in
  match prev.Journal.ev_kind with
  | Journal.Retry _ -> add parts Backoff gap
  | _ -> (
    match cur.Journal.ev_kind with
    | Journal.Net_flush _ -> add parts Coalesce gap
    | Journal.Net_hold _ -> add parts Wire gap
    | Journal.Recv { msg; _ } ->
      let send_id = cur.Journal.ev_parent in
      let held =
        if send_id < 0 then 0
        else min gap (hold_overlap holds ~parent:send_id ~t0 ~t1)
      in
      add parts Service held;
      add parts (if directory_message msg then Directory else Wire) (gap - held)
    | Journal.Send { msg; _ } ->
      add parts (if directory_message msg then Directory else Service) gap
    | Journal.Work_start _ ->
      add parts
        (match prev.Journal.ev_kind with
        | Journal.Drain_stall _ -> Drain
        | _ -> Queue)
        gap
    | Journal.Drain_stall _ -> add parts Queue gap
    | Journal.Dir_hit _ | Journal.Dir_miss _ | Journal.Dir_fallback _
    | Journal.Dir_publish _ ->
      add parts Directory gap
    | Journal.Retry _ | Journal.Hedge _ -> add parts Wait gap
    | Journal.Clone_win _ -> add parts Spec_wait gap
    | Journal.Inv_end _ ->
      add parts
        (match prev.Journal.ev_kind with
        | Journal.Recv _ | Journal.Inv_begin _ | Journal.Clone_win _ ->
          Service
        | _ -> Wait)
        gap
    | _ -> add parts Service gap)

(* What one trace's slice holds: no [Inv_begin], a request that began
   but has no later [Inv_end] (crashed, still running, or cut by ring
   wrap-around), or a whole request. *)
type slice = Unbegun | Unended | Whole of breakdown

let ev (evs : Journal.event array) idx i =
  Array.unsafe_get evs (Array.unsafe_get idx i)

(* Attribute the trace whose events are [evs.(idx.(lo)) ..
   evs.(idx.(hi - 1))], sorted by id.  Event ids are allocated in
   engine execution order, which never runs ahead of virtual time, so
   the id-sorted walk visits events in nondecreasing [ev_at]: the
   consecutive gaps tile [begin, end] exactly and the category sums
   telescope to the end-to-end latency — the attribution-complete
   invariant (checker rule 8) re-verifies this on every trace.  The
   walk covers the events whose ids lie in [begin, end]; the first
   [Inv_begin] and the last [Inv_end] after it bound the request.  One
   scan finds both, and whether the slice holds any hold at all; the
   events before the first [Inv_begin] have ids no greater than its,
   so no [Inv_end] among them can bound the request. *)
let attribute_slice evs idx lo hi =
  let b = ref (-1) and e = ref (-1) and any_hold = ref false in
  let op = ref "" and target = ref "" and outcome = ref "" in
  for i = lo to hi - 1 do
    let x = ev evs idx i in
    match x.Journal.ev_kind with
    | Journal.Inv_begin { op = o; target = t; _ } when !b < 0 ->
      b := i;
      op := o;
      target := t
    | Journal.Inv_end { outcome = o; _ }
      when !b >= 0 && x.Journal.ev_id > (ev evs idx !b).Journal.ev_id ->
      e := i;
      outcome := o
    | Journal.Net_hold _ -> any_hold := true
    | _ -> ()
  done;
  if !b < 0 then Unbegun
  else if !e < 0 then Unended
  else begin
    let b = ev evs idx !b and e = ev evs idx !e in
    let b_id = b.Journal.ev_id and e_id = e.Journal.ev_id in
    let holds =
      if not !any_hold then no_holds
      else begin
        let holds = Itbl.create 7 in
        for i = lo to hi - 1 do
          let x = ev evs idx i in
          match x.Journal.ev_kind with
          | Journal.Net_hold { by; _ }
            when x.Journal.ev_parent >= 0
                 && x.Journal.ev_id >= b_id && x.Journal.ev_id <= e_id ->
            let parent = x.Journal.ev_parent in
            let h0 = Time.to_ns x.Journal.ev_at in
            let prior =
              match Itbl.find holds parent with
              | l -> l
              | exception Not_found -> []
            in
            Itbl.replace holds parent ((h0, h0 + Time.to_ns by) :: prior)
          | _ -> ()
        done;
        holds
      end
    in
    let parts = Array.make n_categories 0 in
    let prev = ref b and started = ref false in
    for i = lo to hi - 1 do
      let x = ev evs idx i in
      if x.Journal.ev_id >= b_id && x.Journal.ev_id <= e_id then begin
        if !started then charge parts ~holds !prev x;
        prev := x;
        started := true
      end
    done;
    Whole
      {
        bd_trace = b.Journal.ev_trace;
        bd_node = b.Journal.ev_node;
        bd_op = !op;
        bd_target = !target;
        bd_outcome = !outcome;
        bd_begin = b.Journal.ev_at;
        bd_total_ns =
          Time.to_ns e.Journal.ev_at - Time.to_ns b.Journal.ev_at;
        bd_parts = parts;
      }
  end

let attribute events =
  let evs = Array.of_list events in
  let n = Array.length evs in
  match attribute_slice evs (Array.init n Fun.id) 0 n with
  | Whole bd -> Some bd
  | Unbegun | Unended -> None

(* Every trace's slice of the index, in ascending trace-id order. *)
let of_index ix =
  let evs = Index.events ix in
  let members = Index.members ix and bounds = Index.bounds ix in
  let acc = ref [] and unended = ref 0 in
  for k = Index.traces ix - 1 downto 0 do
    match attribute_slice evs members bounds.(k) bounds.(k + 1) with
    | Whole bd -> acc := bd :: !acc
    | Unended -> incr unended
    | Unbegun -> ()
  done;
  (!acc, !unended)

let breakdowns events = fst (of_index (Index.of_events events))

let sum_parts bd = Array.fold_left ( + ) 0 bd.bd_parts
