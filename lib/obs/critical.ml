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
   held spans; a trace without holds shares one empty table. *)
let no_holds : (int * int) list Itbl.t = Itbl.create 1

let hold_overlap holds ~parent ~t0 ~t1 =
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

(* Attribute the trace whose events are [evs.(idx.(lo)) ..
   evs.(idx.(hi - 1))], sorted by id; [None] unless it brackets a
   whole request (an [Inv_begin] and a later [Inv_end]).  Event ids
   are allocated in engine execution order, which never runs ahead of
   virtual time, so the id-sorted walk visits events in nondecreasing
   [ev_at]: the consecutive gaps tile [begin, end] exactly and the
   category sums telescope to the end-to-end latency — the
   attribution-complete invariant (checker rule 8) re-verifies this on
   every trace.  The walk covers the events whose ids lie in
   [begin, end]; the first [Inv_begin] and the last [Inv_end] after it
   bound the request. *)
let attribute_slice (evs : Journal.event array) idx lo hi =
  let ev i = Array.unsafe_get evs (Array.unsafe_get idx i) in
  let rec find_begin i =
    if i >= hi then None
    else
      match (ev i).Journal.ev_kind with
      | Journal.Inv_begin { op; target } -> Some (ev i, op, target)
      | _ -> find_begin (i + 1)
  in
  match find_begin lo with
  | None -> None
  | Some (b, op, target) -> (
    let b_id = b.Journal.ev_id in
    let e = ref None and any_hold = ref false in
    for i = lo to hi - 1 do
      let x = ev i in
      match x.Journal.ev_kind with
      | Journal.Inv_end { outcome; _ } when x.Journal.ev_id > b_id ->
        e := Some (x, outcome)
      | Journal.Net_hold _ -> any_hold := true
      | _ -> ()
    done;
    match !e with
    | None -> None
    | Some (e, outcome) ->
      let e_id = e.Journal.ev_id in
      let in_window x = x.Journal.ev_id >= b_id && x.Journal.ev_id <= e_id in
      let holds =
        if not !any_hold then no_holds
        else begin
          let holds = Itbl.create 7 in
          for i = lo to hi - 1 do
            let x = ev i in
            match x.Journal.ev_kind with
            | Journal.Net_hold { by; _ }
              when x.Journal.ev_parent >= 0 && in_window x ->
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
        let x = ev i in
        if in_window x then begin
          if !started then charge parts ~holds !prev x;
          prev := x;
          started := true
        end
      done;
      Some
        {
          bd_trace = b.Journal.ev_trace;
          bd_node = b.Journal.ev_node;
          bd_op = op;
          bd_target = target;
          bd_outcome = outcome;
          bd_begin = b.Journal.ev_at;
          bd_total_ns =
            Time.to_ns e.Journal.ev_at - Time.to_ns b.Journal.ev_at;
          bd_parts = parts;
        })

let attribute events =
  let evs = Array.of_list events in
  let n = Array.length evs in
  attribute_slice evs (Array.init n Fun.id) 0 n

(* Every trace's slice of the index, in ascending trace-id order. *)
let of_index ix =
  let evs = Index.events ix in
  let members = Index.members ix and bounds = Index.bounds ix in
  let acc = ref [] in
  for k = Index.traces ix - 1 downto 0 do
    match attribute_slice evs members bounds.(k) bounds.(k + 1) with
    | Some bd -> acc := bd :: !acc
    | None -> ()
  done;
  !acc

let breakdowns events = of_index (Index.of_events events)

let sum_parts bd = Array.fold_left ( + ) 0 bd.bd_parts
